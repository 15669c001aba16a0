package otp

import (
	"math"
	"sort"

	"prestroid/internal/logicalplan"
	"prestroid/internal/sqlparse"
	"prestroid/internal/word2vec"
)

// Encoder turns O-T-P nodes into fixed-width feature vectors laid out as
// [OPR 1-hot | PRED embedding (Pf) | TBL 1-hot]. Unknown tables map to a
// reserved slot; unknown predicates follow the paper's fallback hierarchy.
type Encoder struct {
	OpIndex    map[logicalplan.Op]int
	TableIndex map[string]int
	NumTables  int // including the reserved unknown slot 0
	W2V        *word2vec.Model
	Pf         int

	// MeanPooling replaces the MIN/MAX conjunction pooling of §4.2 with a
	// plain mean — an ablation knob.
	MeanPooling bool
	// HashedPredicates replaces the Word2Vec embedding with a hashed 1-hot
	// of the whole predicate text over Pf buckets — the space-inefficient
	// encoding §3.3 critiques, as an ablation knob.
	HashedPredicates bool
}

// NewEncoder builds an encoder over the training-time table set and a
// trained predicate Word2Vec model. Index 0 of the table block is reserved
// for out-of-vocabulary tables encountered at deployment.
func NewEncoder(tables []string, w2v *word2vec.Model) *Encoder {
	ops := logicalplan.AllOps()
	opIdx := make(map[logicalplan.Op]int, len(ops))
	for i, op := range ops {
		opIdx[op] = i
	}
	sorted := append([]string(nil), tables...)
	sort.Strings(sorted)
	tblIdx := make(map[string]int, len(sorted))
	for i, t := range sorted {
		tblIdx[t] = i + 1 // 0 reserved for unknown
	}
	return &Encoder{
		OpIndex:    opIdx,
		TableIndex: tblIdx,
		NumTables:  len(sorted) + 1,
		W2V:        w2v,
		Pf:         w2v.Dim,
	}
}

// FeatureDim returns the per-node feature width.
func (e *Encoder) FeatureDim() int {
	return len(e.OpIndex) + e.Pf + e.NumTables
}

// predOffset is where the predicate block starts.
func (e *Encoder) predOffset() int { return len(e.OpIndex) }

// tblOffset is where the table block starts.
func (e *Encoder) tblOffset() int { return len(e.OpIndex) + e.Pf }

// QueryContext holds the per-query fallback vectors of the paper's
// out-of-vocabulary hierarchy: (1) mean of the query's encodable PRED nodes,
// (2) mean of all tokens in the query, (3) the global vocabulary mean. They
// are computed from the query's tree the first time a clause falls back, so
// a query whose every clause is in vocabulary never pays for them. A
// QueryContext belongs to the one goroutine encoding its query.
type QueryContext struct {
	root        *Node
	ready       bool // the fields below are filled in
	predMean    []float64
	hasPredMean bool
	tokenMean   []float64
	hasTokMean  bool
	globalMean  []float64
}

// NewQueryContext returns the fallback chain for one recast query tree.
func (e *Encoder) NewQueryContext(root *Node) *QueryContext {
	return &QueryContext{root: root}
}

// fill computes ctx's PRED and token means over its query's tree.
func (e *Encoder) fill(ctx *QueryContext) {
	var allTokens []string
	var encodable [][]float64
	ctx.root.Walk(func(n *Node) {
		if n.Type != NodePred || n.Pred == nil {
			return
		}
		toks := PredTokens(n.Pred)
		allTokens = append(allTokens, toks...)
		if v, ok := e.encodePredDirect(n); ok {
			encodable = append(encodable, v)
		}
	})
	if len(encodable) > 0 {
		ctx.predMean = meanOf(encodable, e.Pf)
		ctx.hasPredMean = true
	}
	if v, ok := e.W2V.MeanVector(allTokens); ok {
		ctx.tokenMean = v
		ctx.hasTokMean = true
	}
	if !ctx.hasPredMean && !ctx.hasTokMean {
		ctx.globalMean = e.W2V.GlobalMean()
	}
	ctx.ready = true
}

func meanOf(vs [][]float64, dim int) []float64 {
	acc := make([]float64, dim)
	for _, v := range vs {
		for i := range acc {
			acc[i] += v[i]
		}
	}
	for i := range acc {
		acc[i] /= float64(len(vs))
	}
	return acc
}

// NodeFeature encodes one O-T-P node into a fresh vector. ∅ nodes encode to
// the zero vector, which is the paper's 0-padding.
func (e *Encoder) NodeFeature(n *Node, ctx *QueryContext) []float64 {
	f := make([]float64, e.FeatureDim())
	e.NodeFeatureInto(f, n, ctx)
	return f
}

// NodeFeatureInto encodes one O-T-P node straight into dst, which must be
// FeatureDim() wide and zero on entry (a fresh tensor row is): only the
// node's non-zero entries are written, all of them inside the returned span
// [lo, hi) — one column for an OPR or TBL node, the predicate block for a
// PRED node, empty for ∅ — so a caller can index the row from the span alone.
func (e *Encoder) NodeFeatureInto(dst []float64, n *Node, ctx *QueryContext) (lo, hi int) {
	if n == nil {
		return 0, 0
	}
	switch n.Type {
	case NodeOpr:
		if i, ok := e.OpIndex[n.Op]; ok {
			dst[i] = 1
			return i, i + 1
		}
	case NodeTbl:
		idx := 0 // unknown slot
		if i, ok := e.TableIndex[n.Table]; ok {
			idx = i
		}
		i := e.tblOffset() + idx
		dst[i] = 1
		return i, i + 1
	case NodePred:
		off := e.predOffset()
		lo, hi := e.encodePredInto(dst[off:off+e.Pf], n, ctx)
		return off + lo, off + hi
	}
	return 0, 0
}

// EncodePred encodes a PRED node via the conjunction tree with MIN pooling
// for AND and MAX pooling for OR, falling back through the OOV hierarchy
// when no token of a clause is in vocabulary.
func (e *Encoder) EncodePred(n *Node, ctx *QueryContext) []float64 {
	out := make([]float64, e.Pf)
	e.encodePredInto(out, n, ctx)
	return out
}

// encodePredInto writes the PRED encoding into dst (Pf wide, zero on entry)
// and returns the span of dst it wrote.
func (e *Encoder) encodePredInto(dst []float64, n *Node, ctx *QueryContext) (lo, hi int) {
	if n.Pred == nil {
		return 0, 0
	}
	if e.HashedPredicates {
		i := int(hashString(sqlparse.ExprString(n.Pred)) % uint64(e.Pf))
		dst[i] = 1
		return i, i + 1
	}
	return 0, copy(dst, e.encodeConj(BuildConjTree(n.Pred), ctx))
}

func hashString(s string) uint64 {
	// FNV-1a, inlined to keep the encoding hot path allocation-free.
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// encodePredDirect encodes a PRED node without fallbacks, reporting whether
// every pooling level had at least one encodable clause.
func (e *Encoder) encodePredDirect(n *Node) ([]float64, bool) {
	if n.Pred == nil {
		return nil, false
	}
	tree := BuildConjTree(n.Pred)
	return e.encodeConjStrict(tree)
}

func (e *Encoder) encodeConj(t *ConjTree, ctx *QueryContext) []float64 {
	if t.Clause != nil {
		if v, ok := e.W2V.MeanVector(t.Clause.Tokens); ok {
			return v
		}
		return e.fallback(ctx)
	}
	vecs := make([][]float64, 0, len(t.Children))
	for _, c := range t.Children {
		vecs = append(vecs, e.encodeConj(c, ctx))
	}
	if e.MeanPooling {
		return meanOf(vecs, e.Pf)
	}
	return pool(vecs, t.Conj, e.Pf)
}

func (e *Encoder) encodeConjStrict(t *ConjTree) ([]float64, bool) {
	if t.Clause != nil {
		return e.W2V.MeanVector(t.Clause.Tokens)
	}
	var vecs [][]float64
	for _, c := range t.Children {
		if v, ok := e.encodeConjStrict(c); ok {
			vecs = append(vecs, v)
		}
	}
	if len(vecs) == 0 {
		return nil, false
	}
	return pool(vecs, t.Conj, e.Pf), true
}

// pool applies MIN feature pooling for AND conjunctions and MAX for OR,
// following §4.2 (and the prior work it cites).
func pool(vecs [][]float64, conj string, dim int) []float64 {
	out := make([]float64, dim)
	if len(vecs) == 0 {
		return out
	}
	copy(out, vecs[0])
	for _, v := range vecs[1:] {
		for i := range out {
			if conj == "OR" {
				out[i] = math.Max(out[i], v[i])
			} else {
				out[i] = math.Min(out[i], v[i])
			}
		}
	}
	return out
}

// fallback walks the §4.2 hierarchy: per-query PRED mean → per-query token
// mean → global vocabulary mean.
func (e *Encoder) fallback(ctx *QueryContext) []float64 {
	if ctx == nil {
		return e.W2V.GlobalMean()
	}
	if !ctx.ready {
		e.fill(ctx)
	}
	switch {
	case ctx.hasPredMean:
		return ctx.predMean
	case ctx.hasTokMean:
		return ctx.tokenMean
	default:
		return ctx.globalMean
	}
}
