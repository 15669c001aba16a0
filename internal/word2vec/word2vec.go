// Package word2vec implements skip-gram word embeddings with negative
// sampling, replacing the Gensim model of §4.2. The paper trains it over
// predicate token sets with values stripped (columns and comparison
// operators only), window size 5 and minimum token count 10; the feature
// size Pf is the tuning lever that controls the predicate encoding space.
package word2vec

import (
	"math"
	"sort"

	"prestroid/internal/tensor"
)

// Config holds the training hyper-parameters.
type Config struct {
	Dim        int     // embedding dimensionality (the paper's Pf)
	Window     int     // context window size (paper: 5)
	MinCount   int     // minimum token frequency (paper: 10)
	NegSamples int     // negative samples per positive pair
	Epochs     int     // passes over the corpus
	LR         float64 // initial learning rate, linearly decayed
	Seed       uint64  // RNG seed
}

// DefaultConfig returns the paper's settings with sensible training knobs.
func DefaultConfig(dim int) Config {
	return Config{
		Dim:        dim,
		Window:     5,
		MinCount:   10,
		NegSamples: 5,
		Epochs:     3,
		LR:         0.025,
		Seed:       1,
	}
}

// Model is a trained embedding table.
type Model struct {
	Dim   int
	vocab map[string]int
	words []string
	freq  []int
	in    *tensor.Tensor // input vectors (vocab, dim) — the embeddings
	out   *tensor.Tensor // output vectors (vocab, dim)
	table []int32        // unigram^0.75 negative-sampling table; nil once Train returns
}

// Train builds a vocabulary from the corpus (dropping tokens rarer than
// MinCount) and trains skip-gram embeddings. Each corpus entry is one
// sentence: for Prestroid, the token set of one query's predicates.
func Train(corpus [][]string, cfg Config) *Model {
	if cfg.Dim <= 0 {
		panic("word2vec: Dim must be positive")
	}
	if cfg.Window <= 0 {
		cfg.Window = 5
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 1
	}
	if cfg.NegSamples <= 0 {
		cfg.NegSamples = 5
	}
	if cfg.LR <= 0 {
		cfg.LR = 0.025
	}
	m := buildVocab(corpus, cfg)
	if len(m.words) == 0 {
		return m
	}
	m.buildNegTable()
	// Only trainPair draws from the table: a trained model needs no 400 kB
	// of it.
	defer func() { m.table = nil }()

	rng := tensor.NewRNG(cfg.Seed)
	rng.FillUniform(m.in, -0.5/float64(cfg.Dim), 0.5/float64(cfg.Dim))
	// Output vectors start at zero, as in the reference implementation.

	// Pre-encode sentences as id sequences.
	encoded := make([][]int, 0, len(corpus))
	total := 0
	for _, sent := range corpus {
		ids := make([]int, 0, len(sent))
		for _, w := range sent {
			if id, ok := m.vocab[w]; ok {
				ids = append(ids, id)
			}
		}
		if len(ids) > 1 {
			encoded = append(encoded, ids)
			total += len(ids)
		}
	}
	if total == 0 {
		return m
	}

	steps := 0
	maxSteps := cfg.Epochs * total
	grad := make([]float64, cfg.Dim)
	targets := make([]int, 0, cfg.NegSamples+1)
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		for _, ids := range encoded {
			for center := range ids {
				lr := cfg.LR * (1 - float64(steps)/float64(maxSteps+1))
				if lr < cfg.LR*0.0001 {
					lr = cfg.LR * 0.0001
				}
				steps++
				// Dynamic window as in word2vec: sample b ∈ [1, Window].
				b := 1 + rng.Intn(cfg.Window)
				for off := -b; off <= b; off++ {
					ctx := center + off
					if off == 0 || ctx < 0 || ctx >= len(ids) {
						continue
					}
					m.trainPair(ids[center], ids[ctx], lr, cfg.NegSamples, rng, grad, targets)
				}
			}
		}
	}
	return m
}

// trainPair applies one positive update and NegSamples negative updates for
// (center, context) under the SGNS objective, with the bits of updating one
// target at a time. vin is written only at the end, so a target's dot product
// depends on an earlier target of the pair only when both are the same row
// of out. trainPair therefore draws every negative first (the same Intn calls
// in the same order) and walks the targets in groups of distinct rows: four
// when the next four are distinct, else two, else one. A group's dot products
// are taken in one pass over vin and its sigmoids back to back, then its rows
// are updated in order. A repeated row starts a new group, so its dot product
// sees the earlier copy's update. targets is scratch of capacity neg+1.
func (m *Model) trainPair(center, context int, lr float64, neg int, rng *tensor.RNG, grad []float64, targets []int) {
	targets = append(targets[:0], context)
	for s := 0; s < neg; s++ {
		if t := int(m.table[rng.Intn(len(m.table))]); t != context {
			targets = append(targets, t)
		}
	}
	vin := m.in.Row(center)
	clear(grad)
	label := 1.0 // the context's; every negative's is 0
	for lo := 0; lo < len(targets); {
		switch n := distinctPrefix(targets[lo:]); {
		case n == 4:
			r0, r1, r2, r3 := m.out.Row(targets[lo]), m.out.Row(targets[lo+1]), m.out.Row(targets[lo+2]), m.out.Row(targets[lo+3])
			d0, d1, d2, d3 := dot4(vin, r0, r1, r2, r3)
			g0 := lr * (label - 1/(1+math.Exp(-d0)))
			label = 0
			g1 := lr * (label - 1/(1+math.Exp(-d1)))
			g2 := lr * (label - 1/(1+math.Exp(-d2)))
			g3 := lr * (label - 1/(1+math.Exp(-d3)))
			step(grad, vin, r0, g0)
			step(grad, vin, r1, g1)
			step(grad, vin, r2, g2)
			step(grad, vin, r3, g3)
			lo += 4
		case n >= 2:
			r0, r1 := m.out.Row(targets[lo]), m.out.Row(targets[lo+1])
			d0, d1 := dot2(vin, r0, r1)
			g0 := lr * (label - 1/(1+math.Exp(-d0)))
			label = 0
			g1 := lr * (label - 1/(1+math.Exp(-d1)))
			step(grad, vin, r0, g0)
			step(grad, vin, r1, g1)
			lo += 2
		default:
			row := m.out.Row(targets[lo])
			g := lr * (label - 1/(1+math.Exp(-tensor.Dot(vin, row))))
			label = 0
			step(grad, vin, row, g)
			lo++
		}
	}
	for i := range vin {
		vin[i] += grad[i]
	}
}

// distinctPrefix returns the length, at most four, of the longest prefix of
// targets (non-empty) in which no row repeats.
func distinctPrefix(targets []int) int {
	n := 1
	for ; n < len(targets) && n < 4; n++ {
		for _, t := range targets[:n] {
			if t == targets[n] {
				return n
			}
		}
	}
	return n
}

// dot2 takes two dot products with v in one pass, each summed from 0 in
// ascending i, as tensor.Dot sums.
func dot2(v, a, b []float64) (s0, s1 float64) {
	a, b = a[:len(v)], b[:len(v)]
	for i, x := range v {
		s0 += x * a[i]
		s1 += x * b[i]
	}
	return
}

// dot4 takes four dot products with v in one pass, each summed as dot2's.
func dot4(v, a, b, c, d []float64) (s0, s1, s2, s3 float64) {
	a, b, c, d = a[:len(v)], b[:len(v)], c[:len(v)], d[:len(v)]
	for i, x := range v {
		s0 += x * a[i]
		s1 += x * b[i]
		s2 += x * c[i]
		s3 += x * d[i]
	}
	return
}

// step adds target row's share g·row to grad, then moves row by g·vin.
func step(grad, vin, row []float64, g float64) {
	vin, row = vin[:len(grad)], row[:len(grad)]
	for i := range grad {
		grad[i] += g * row[i]
		row[i] += g * vin[i]
	}
}

func buildVocab(corpus [][]string, cfg Config) *Model {
	counts := map[string]int{}
	for _, sent := range corpus {
		for _, w := range sent {
			counts[w]++
		}
	}
	var words []string
	for w, c := range counts {
		if c >= cfg.MinCount {
			words = append(words, w)
		}
	}
	// Deterministic ordering: by descending frequency, ties alphabetical.
	sort.Slice(words, func(i, j int) bool {
		if counts[words[i]] != counts[words[j]] {
			return counts[words[i]] > counts[words[j]]
		}
		return words[i] < words[j]
	})
	m := &Model{
		Dim:   cfg.Dim,
		vocab: make(map[string]int, len(words)),
		words: words,
		freq:  make([]int, len(words)),
	}
	for i, w := range words {
		m.vocab[w] = i
		m.freq[i] = counts[w]
	}
	m.in = tensor.New(maxInt(len(words), 1), cfg.Dim)
	m.out = tensor.New(maxInt(len(words), 1), cfg.Dim)
	return m
}

// buildNegTable fills the unigram^0.75 sampling table (size 1e5 entries,
// plenty for our vocab scale).
func (m *Model) buildNegTable() {
	const tableSize = 100000
	m.table = make([]int32, 0, tableSize)
	powSum := 0.0
	for _, f := range m.freq {
		powSum += math.Pow(float64(f), 0.75)
	}
	if powSum == 0 {
		return
	}
	for id, f := range m.freq {
		n := int(math.Pow(float64(f), 0.75) / powSum * tableSize)
		if n < 1 {
			n = 1
		}
		for i := 0; i < n; i++ {
			m.table = append(m.table, int32(id))
		}
	}
}

// VocabSize returns the number of retained tokens.
func (m *Model) VocabSize() int { return len(m.words) }

// Has reports whether word survived the MinCount cutoff.
func (m *Model) Has(word string) bool {
	_, ok := m.vocab[word]
	return ok
}

// Vector returns the embedding for word and whether it is in vocabulary.
// The returned slice aliases model storage; callers must not mutate it.
func (m *Model) Vector(word string) ([]float64, bool) {
	id, ok := m.vocab[word]
	if !ok {
		return nil, false
	}
	return m.in.Row(id), true
}

// MeanVector averages the embeddings of the in-vocabulary tokens, returning
// ok=false when none are known. This is the node-level predicate encoding of
// §4.2 ("encode each word token and take the overall average").
func (m *Model) MeanVector(tokens []string) ([]float64, bool) {
	acc := make([]float64, m.Dim)
	n := 0
	for _, w := range tokens {
		if v, ok := m.Vector(w); ok {
			for i := range acc {
				acc[i] += v[i]
			}
			n++
		}
	}
	if n == 0 {
		return nil, false
	}
	for i := range acc {
		acc[i] /= float64(n)
	}
	return acc, true
}

// GlobalMean averages every in-vocabulary embedding — the last resort of the
// paper's out-of-vocabulary hierarchy.
func (m *Model) GlobalMean() []float64 {
	acc := make([]float64, m.Dim)
	if len(m.words) == 0 {
		return acc
	}
	for id := range m.words {
		row := m.in.Row(id)
		for i := range acc {
			acc[i] += row[i]
		}
	}
	for i := range acc {
		acc[i] /= float64(len(m.words))
	}
	return acc
}

// Similarity returns the cosine similarity of two words (0 when either is
// out of vocabulary).
func (m *Model) Similarity(a, b string) float64 {
	va, ok1 := m.Vector(a)
	vb, ok2 := m.Vector(b)
	if !ok1 || !ok2 {
		return 0
	}
	return cosine(va, vb)
}

func cosine(a, b []float64) float64 {
	dot, na, nb := 0.0, 0.0, 0.0
	for i := range a {
		dot += a[i] * b[i]
		na += a[i] * a[i]
		nb += b[i] * b[i]
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / math.Sqrt(na*nb)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Snapshot is the serialisable form of a trained model (input vectors only;
// output vectors are a training artefact).
type Snapshot struct {
	Dim     int
	Words   []string
	Freq    []int
	Vectors [][]float64
}

// Snapshot exports the model for persistence.
func (m *Model) Snapshot() *Snapshot {
	s := &Snapshot{Dim: m.Dim, Words: append([]string(nil), m.words...), Freq: append([]int(nil), m.freq...)}
	for id := range m.words {
		s.Vectors = append(s.Vectors, append([]float64(nil), m.in.Row(id)...))
	}
	return s
}

// FromSnapshot reconstructs a model from a snapshot. The restored model
// supports every lookup operation; it cannot be trained further.
func FromSnapshot(s *Snapshot) *Model {
	m := &Model{
		Dim:   s.Dim,
		vocab: make(map[string]int, len(s.Words)),
		words: append([]string(nil), s.Words...),
		freq:  append([]int(nil), s.Freq...),
		in:    tensor.New(maxInt(len(s.Words), 1), s.Dim),
		out:   tensor.New(maxInt(len(s.Words), 1), s.Dim),
	}
	for i, w := range s.Words {
		m.vocab[w] = i
		copy(m.in.Row(i), s.Vectors[i])
	}
	return m
}
