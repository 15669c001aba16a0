package word2vec

import (
	"fmt"
	"math"
	"testing"

	"prestroid/internal/tensor"
)

// trainRef is Train as it stood before trainPair drew a pair's negatives
// first and took the dot products of distinct targets together: one target
// at a time, each negative drawn just before its update, each dot product
// by tensor.Dot. It is the reference trainPair must match bit for bit; the
// one change is the int conversion of the now int32 negative table.
func trainRef(corpus [][]string, cfg Config) *Model {
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
					m.trainPairRef(ids[center], ids[ctx], lr, cfg.NegSamples, rng, grad)
				}
			}
		}
	}
	return m
}

// trainPairRef applies one positive update and NegSamples negative updates
// for (center, context), one target after the other.
func (m *Model) trainPairRef(center, context int, lr float64, neg int, rng *tensor.RNG, grad []float64) {
	vin := m.in.Row(center)
	for i := range grad {
		grad[i] = 0
	}
	for s := 0; s <= neg; s++ {
		var target int
		var label float64
		if s == 0 {
			target, label = context, 1
		} else {
			target = int(m.table[rng.Intn(len(m.table))])
			if target == context {
				continue
			}
			label = 0
		}
		vout := m.out.Row(target)
		dot := tensor.Dot(vin, vout)
		pred := 1 / (1 + math.Exp(-dot))
		g := lr * (label - pred)
		for i := range grad {
			grad[i] += g * vout[i]
			vout[i] += g * vin[i]
		}
	}
	for i := range vin {
		vin[i] += grad[i]
	}
}

// checkTrainMatchesReference trains the corpus with Train and trainRef and
// requires both tables, input and output vectors, to agree bit for bit, and
// Train's model to hold no negative-sampling table: only training draws from
// it, and the reference keeps its own to the end.
func checkTrainMatchesReference(t *testing.T, corpus [][]string, cfg Config) {
	t.Helper()
	got, want := Train(corpus, cfg), trainRef(corpus, cfg)
	if got.table != nil {
		t.Fatalf("%+v: the trained model keeps a %d-entry negative table", cfg, len(got.table))
	}
	for _, tab := range []struct {
		name      string
		got, want *tensor.Tensor
	}{{"in", got.in, want.in}, {"out", got.out, want.out}} {
		if len(tab.got.Data) != len(tab.want.Data) {
			t.Fatalf("%+v: %s has %d values, reference %d", cfg, tab.name, len(tab.got.Data), len(tab.want.Data))
		}
		for i, w := range tab.want.Data {
			if g := tab.got.Data[i]; math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("%+v: %s[%d] = %v (%#x), reference %v (%#x)", cfg, tab.name, i, g, math.Float64bits(g), w, math.Float64bits(w))
			}
		}
	}
}

// tinyCorpus draws sentences over a vocabulary of vocab words, so negatives
// repeat within a pair and often equal the context word.
func tinyCorpus(seed uint64, vocab, sentences, maxLen int) [][]string {
	rng := tensor.NewRNG(seed)
	corpus := make([][]string, sentences)
	for i := range corpus {
		sent := make([]string, 1+rng.Intn(maxLen))
		for j := range sent {
			// Skewed towards low ids so the negative table is uneven.
			sent[j] = fmt.Sprintf("w%d", rng.Intn(1+rng.Intn(vocab)))
		}
		corpus[i] = sent
	}
	return corpus
}

func TestTrainMatchesReference(t *testing.T) {
	for _, vocab := range []int{1, 2, 3, 6, 12} {
		for _, dim := range []int{1, 3, 4, 5, 16} {
			for _, neg := range []int{1, 4, 5, 10} {
				corpus := tinyCorpus(uint64(vocab*1000+dim*10+neg), vocab, 20, 9)
				cfg := Config{Dim: dim, Window: 3, MinCount: 1, NegSamples: neg, Epochs: 2, LR: 0.05, Seed: uint64(dim + neg)}
				checkTrainMatchesReference(t, corpus, cfg)
			}
		}
	}
	// The shipped settings on a larger vocabulary, where most groups of
	// targets are four distinct rows.
	cfg := DefaultConfig(16)
	cfg.MinCount = 2
	checkTrainMatchesReference(t, syntheticCorpus(200), cfg)
	checkTrainMatchesReference(t, tinyCorpus(7, 60, 120, 20), cfg)
}

// FuzzTrainMatchesReference decodes a configuration and a corpus from the
// fuzz bytes: the first five bytes pick vocabulary size, Dim, NegSamples,
// Window and Epochs, the rest are word ids with a zero byte ending each
// sentence.
func FuzzTrainMatchesReference(f *testing.F) {
	f.Add([]byte{3, 4, 5, 2, 1, 1, 2, 3, 1, 1, 0, 2, 2, 1, 3})
	f.Add([]byte{1, 1, 10, 5, 3, 1, 1, 1, 1, 0, 1, 1})
	f.Add([]byte{12, 9, 0, 0, 2, 5, 7, 9, 11, 2, 4, 0, 12, 1, 6, 6, 3, 0, 8, 8, 8, 1})
	f.Add([]byte{6, 16, 4, 3, 1, 1, 2, 1, 2, 3, 4, 5, 6, 0, 6, 5, 4, 3, 2, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 {
			return
		}
		vocab := 1 + int(data[0])%12
		cfg := Config{
			Dim:        1 + int(data[1])%16,
			NegSamples: int(data[2]) % 11,
			Window:     int(data[3]) % 6,
			Epochs:     1 + int(data[4])%3,
			MinCount:   1,
			LR:         0.05,
			Seed:       uint64(data[0])<<8 | uint64(data[1]),
		}
		var corpus [][]string
		var sent []string
		for _, b := range data[5:] {
			if b == 0 {
				corpus, sent = append(corpus, sent), nil
				continue
			}
			sent = append(sent, fmt.Sprintf("w%d", int(b)%vocab))
		}
		corpus = append(corpus, sent)
		checkTrainMatchesReference(t, corpus, cfg)
	})
}
