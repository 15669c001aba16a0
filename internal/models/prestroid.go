package models

import (
	"fmt"
	"runtime"
	"sync"

	"prestroid/internal/dataset"
	"prestroid/internal/logicalplan"
	"prestroid/internal/nn"
	"prestroid/internal/otp"
	"prestroid/internal/subtree"
	"prestroid/internal/tensor"
	"prestroid/internal/treecnn"
	"prestroid/internal/workload"
)

// SamplingMode selects how a plan is decomposed into sub-trees. Algorithm 1
// is the paper's contribution; the naive modes are the §4.3 ablation
// baselines that discard receptive-field guarantees.
type SamplingMode int

// Sampling modes.
const (
	SamplingAlgorithm1 SamplingMode = iota
	SamplingNaiveBFS
	SamplingNaiveDFS
)

// PrestroidConfig configures both Prestroid variants. K > 0 selects the
// sub-tree model Prestroid(N-K-Pf); K <= 0 selects the full-tree model
// Prestroid(Full-Pf), which convolves whole plans like Neo.
type PrestroidConfig struct {
	N           int   // max nodes per sub-tree (paper: 15 or 32)
	K           int   // sub-trees per query (paper: 5..47); <=0 = full tree
	ConvWidths  []int // conv kernel counts (paper: 512/512/512, TPC-DS 128^3)
	DenseWidths []int // head widths (paper: 128/64, TPC-DS 32/8)
	Dropout     float64
	BatchNorm   bool
	LR          float64
	Seed        uint64

	// Sampling selects Algorithm 1 or a naive pruning ablation.
	Sampling SamplingMode
	// DisableVotes forces every node to vote (ablation: boundary nodes with
	// incomplete receptive fields leak into pooling).
	DisableVotes bool
}

// DefaultPrestroidConfig returns a scaled-down architecture suitable for CPU
// training; the paper-scale variant uses ConvWidths {512,512,512} and
// DenseWidths {128,64}.
func DefaultPrestroidConfig(n, k int) PrestroidConfig {
	return PrestroidConfig{
		N:           n,
		K:           k,
		ConvWidths:  []int{64, 64, 64},
		DenseWidths: []int{32, 16},
		Dropout:     0.1,
		BatchNorm:   true,
		LR:          1e-3,
		Seed:        1,
	}
}

// Prestroid is the paper's tree-convolution cost model.
type Prestroid struct {
	cfg  PrestroidConfig
	pipe *Pipeline

	conv *treecnn.Network
	head []nn.Layer

	slab *nn.Slab // every trainable tensor: the conv stack's, then the head's
	opt  *nn.Adam
	loss nn.HuberLoss

	cache    map[*workload.Trace][]*treecnn.Tree // index-only trees (see Prepare)
	maxNodes int                                 // full-tree padding target, set during Prepare

	// convCache, when set, memoises pooled conv outputs by tree hash on the
	// PredictInto fast path. It must be concurrency-safe (see ConvCache).
	convCache ConvCache

	// Inference scratch, never shared between models: arenas backs the
	// per-worker conv scratch and each call's batch features + dense head.
	arenas *tensor.ArenaPool

	// step is TrainBatch's memory, reused from one step to the next.
	step trainStep

	// feats[n] pools released (n, featDim) feature slabs of sub-trees for
	// encodePlan to flatten into (see Recycle); nil for a full-tree model.
	// Prepare's workers and serving's miss path both draw from and return to
	// them, so a slab's life is one encode. The pools live in their own
	// array, apart from the model: the runtime's pool registry points at a
	// pool once it is used, and a pool inside the struct would keep a
	// finished model alive across collections.
	feats []sync.Pool
}

// trainStep is the step-scoped state of TrainBatch: the batch's trees in
// (trace, tree) order laid end to end as one forest, which carries the
// forward pass to the backward pass, per worker a scratch arena that dies
// with each tree or task, and the head's input.
type trainStep struct {
	trees   []*treecnn.Tree
	first   []int // first[bi] = index in trees of trace bi's first tree
	forest  treecnn.Context
	scratch []*tensor.Arena
	wT      treecnn.Transposed // the step's transposed conv weights
	feats   *tensor.Tensor     // (batch, slots*convOut), the pooled conv features

	tasks []updateTask // the update fan-out for parts workers (updateTasks)
	parts int
}

// updateTask is one share of a step's parameter update: the slab range
// [lo, hi) Adam steps and, when accumulate is set, the conv gradient task
// that fills exactly that range first.
type updateTask struct {
	grad       treecnn.GradTask
	accumulate bool
	lo, hi     int
}

// headChunk is the most slab elements one update-only task of the head
// steps: small enough that the head's ranges, last in the fan-out, even the
// workers out, and large enough to be worth a hand-off.
const headChunk = 4096

// NewPrestroid builds the model over a shared pipeline. It panics when the
// configuration selects Algorithm 1 with a node limit N no conv depth can
// satisfy (N must exceed 2^(C+1)-1 for C >= 1, so N >= 4): encodings are
// made on helper goroutines, where a failure could not be recovered.
func NewPrestroid(cfg PrestroidConfig, pipe *Pipeline) *Prestroid {
	rng := tensor.NewRNG(cfg.Seed)
	featDim := pipe.Enc.FeatureDim()
	conv := treecnn.NewNetwork(featDim, cfg.ConvWidths, rng)

	k := cfg.K
	if k <= 0 {
		k = 1
	}
	in := k * conv.OutDim()
	var head []nn.Layer
	for _, w := range cfg.DenseWidths {
		head = append(head, nn.NewDense(in, w, rng))
		if cfg.BatchNorm {
			head = append(head, nn.NewBatchNorm(w))
		}
		head = append(head, nn.NewReLU())
		if cfg.Dropout > 0 {
			head = append(head, nn.NewDropout(cfg.Dropout, rng))
		}
		in = w
	}
	head = append(head, nn.NewDense(in, 1, rng), nn.NewSigmoid())

	m := &Prestroid{
		cfg:    cfg,
		pipe:   pipe,
		conv:   conv,
		head:   head,
		loss:   nn.NewHuberLoss(1),
		opt:    nn.NewAdam(cfg.LR),
		cache:  make(map[*workload.Trace][]*treecnn.Tree),
		arenas: tensor.NewArenaPool(0),
	}
	params := conv.Params()
	for _, l := range head {
		params = append(params, l.Params()...)
	}
	m.slab = nn.NewSlab(params)
	if cfg.K > 0 {
		m.feats = make([]sync.Pool, cfg.N+1)
	}
	if cfg.K > 0 && cfg.Sampling == SamplingAlgorithm1 {
		if err := m.samplingConfig().Validate(); err != nil {
			panic(fmt.Sprintf("models: Prestroid N=%d cannot be sampled by Algorithm 1: %v", cfg.N, err))
		}
	}
	return m
}

// Name reports the paper's naming convention: Prestroid (N-K-Pf) for
// sub-tree models, Prestroid (Full-Pf) for full-tree models.
func (m *Prestroid) Name() string {
	if m.cfg.K > 0 {
		return fmt.Sprintf("Prestroid (%d-%d-%d)", m.cfg.N, m.cfg.K, m.pipe.Enc.Pf)
	}
	return fmt.Sprintf("Prestroid (Full-%d)", m.pipe.Enc.Pf)
}

// maxSamplingC returns the largest C satisfying Algorithm 1's constraint
// N > 2^(C+1)-1. The paper's own Prestroid(15-K-Pf) setting pairs N=15 with
// three convolution layers, which violates the stated constraint (15 is not
// > 2^4-1); we therefore cap the sampling depth at the legal maximum, which
// relaxes the vote guarantee for the deepest convolution layer exactly as
// the authors' configuration implies.
func maxSamplingC(n int) int {
	c := 1
	for (1<<(c+2))-1 < n {
		c++
	}
	return c
}

// samplingConfig is Algorithm 1's configuration for the model: the node
// limit N, C the conv depth capped at the legal maximum for N, and K the
// sub-trees the model keeps, past which sampling stops.
func (m *Prestroid) samplingConfig() subtree.Config {
	return subtree.Config{N: m.cfg.N, C: min(len(m.cfg.ConvWidths), maxSamplingC(m.cfg.N)), K: m.cfg.K}
}

// Prepare recasts, samples and flattens each trace's plan once. The traces
// not yet cached are encoded in parallel through tensor.Each (encodePlan
// reads only immutable state) and adopted serially in input order, so the
// cache ends the same at any core count. Each worker releases a trace's
// dense feature rows as soon as it is encoded (recycle), so the cache holds
// index-only trees and the dense slabs in flight are a few per worker.
func (m *Prestroid) Prepare(traces []*workload.Trace) {
	var todo []*workload.Trace
	for _, tr := range traces {
		if _, ok := m.cache[tr]; !ok {
			todo = append(todo, tr)
		}
	}
	if len(todo) == 0 {
		// No closure on the all-cached path: Each's work func escapes to its
		// helpers, and steady PredictInto allocates nothing.
		return
	}
	encs := make([][]*treecnn.Tree, len(todo))
	tensor.Each(len(todo), func(i, _ int) {
		encs[i] = m.encodePlan(todo[i].Plan)
		m.recycle(encs[i])
	})
	for i, tr := range todo {
		m.adopt(tr, encs[i])
	}
}

// encodePlan is the single recast/sample/flatten path behind Prepare,
// EncodeTrace and the prepared-template front end. It reads only immutable
// state (config, encoder tables, Word2Vec vectors) and the slab pools, which
// are safe for concurrent use, and returns trees the caller owns, so it is
// safe to call from many goroutines at once. A sub-tree's feature rows come
// from the pool of its row count, or a fresh slab when that pool is empty.
func (m *Prestroid) encodePlan(plan *logicalplan.Node) []*treecnn.Tree {
	root := otp.Recast(plan)
	qctx := m.pipe.Enc.NewQueryContext(root)
	if m.cfg.K <= 0 {
		// Full-tree model: one tree over the BFS node order, every node voting.
		return []*treecnn.Tree{treecnn.FlattenFull(root, m.pipe.Enc, qctx)}
	}
	var samples []subtree.SubTree
	switch m.cfg.Sampling {
	case SamplingNaiveBFS:
		samples = subtree.NaiveChunks(root, m.cfg.N, m.cfg.K, false)
	case SamplingNaiveDFS:
		samples = subtree.NaiveChunks(root, m.cfg.N, m.cfg.K, true)
	default:
		var err error
		samples, err = subtree.Sample(root, m.samplingConfig())
		if err != nil {
			// Unreachable: NewPrestroid validated the configuration.
			panic(fmt.Sprintf("models: %v", err))
		}
	}
	trees := make([]*treecnn.Tree, 0, len(samples))
	for _, st := range samples {
		var slab *tensor.Tensor
		if n := len(st.Nodes); n < len(m.feats) {
			slab, _ = m.feats[n].Get().(*tensor.Tensor)
		}
		ft := treecnn.FlattenSubTreeInto(slab, st, m.pipe.Enc, qctx)
		if m.cfg.DisableVotes {
			for i := range ft.Votes {
				ft.Votes[i] = 1
			}
			// Votes are part of the tree's content hash; re-hash so the conv
			// cache never conflates the ablation's trees with the originals.
			ft.Rehash()
		}
		trees = append(trees, ft)
	}
	return trees
}

// adopt installs pre-computed encodings in the cache. Like every other
// cache mutation it must run on the goroutine that owns the model.
func (m *Prestroid) adopt(tr *workload.Trace, trees []*treecnn.Tree) {
	if _, ok := m.cache[tr]; ok {
		return
	}
	m.cache[tr] = trees
	if m.cfg.K <= 0 {
		for _, t := range trees {
			if t.Len() > m.maxNodes {
				m.maxNodes = t.Len()
			}
		}
	}
}

// EncodeTrace computes a trace's encodings without touching the per-trace
// cache, so any goroutine may call it. The caller owns the encoding, dense
// feature rows included: it may hand it to PredictEncoded, or to
// AdoptEncoding, or to Recycle, or keep it for as long as it likes.
func (m *Prestroid) EncodeTrace(tr *workload.Trace) any { return m.encodePlan(tr.Plan) }

// Recycle releases the dense feature rows of an encoding EncodeTrace made:
// a sub-tree's slab goes to the model's pools, for later encodes to flatten
// into, and a full tree's to the garbage collector. The trees stay valid on
// their index — they predict, hash and cache as before — but the caller must
// not read their Feats again.
func (m *Prestroid) Recycle(enc any) { m.recycle(enc.([]*treecnn.Tree)) }

// recycle is Recycle on the trees themselves, with no interface conversion
// for Prepare's workers to allocate.
func (m *Prestroid) recycle(trees []*treecnn.Tree) {
	for _, t := range trees {
		if n := t.Len(); n < len(m.feats) {
			m.feats[n].Put(t.Release())
		} else {
			t.Feats = nil // no pool takes it: clearing it would be wasted work
		}
	}
}

// AdoptEncoding installs an encoding produced by EncodeTrace. It mutates the
// cache and must run on the goroutine that owns the model, before Predict.
func (m *Prestroid) AdoptEncoding(tr *workload.Trace, enc any) {
	m.adopt(tr, enc.([]*treecnn.Tree))
}

// trees returns the cached trees for a trace, preparing lazily if needed.
func (m *Prestroid) trees(tr *workload.Trace) []*treecnn.Tree {
	ts, ok := m.cache[tr]
	if !ok {
		m.Prepare([]*workload.Trace{tr})
		ts = m.cache[tr]
	}
	return ts
}

// slots returns the number of tree slots per sample.
func (m *Prestroid) slots() int {
	if m.cfg.K > 0 {
		return m.cfg.K
	}
	return 1
}

// convTrees returns the trees of an encoding that the model convolves: at
// most one per slot.
func (m *Prestroid) convTrees(trees []*treecnn.Tree) []*treecnn.Tree {
	if k := m.slots(); len(trees) > k {
		trees = trees[:k]
	}
	return trees
}

// TrainBatch performs one ADAM step on Huber loss. The conv stack's share of
// the step runs on one forest — the batch's trees end to end, with one
// output and one gradient matrix per conv layer for all their nodes:
//
//   - forward fans the traces out over the workers; each tree's activations
//     go to its rows of the forest, its pooled vector to its slot of the
//     head's input (missing sub-trees stay zero — the paper's padding);
//   - after the head's forward and backward, the conv weights are transposed
//     once, the traces fan out again and every tree pulls its slice of the
//     head's input gradient down its own stack, which reads the transposes
//     only;
//   - the parameter update then fans out over the slab (updateTasks). A conv
//     task's owner makes one pass over the forest that adds the trees'
//     contributions to its rows of the gradient in (trace, tree) order, so
//     every gradient element receives the additions of a serial
//     tree-by-tree backward in the same order, and then steps Adam over
//     those rows while they are in its cache. The head's gradient is
//     complete by then, so its tasks only step Adam. Nothing reads a weight
//     after the transposes, and Adam is element-wise with the step's bias
//     corrections fixed before the fan-out, so the weights after the step
//     do not depend on GOMAXPROCS, bit for bit.
func (m *Prestroid) TrainBatch(batch []*workload.Trace, labels *tensor.Tensor) float64 {
	// Prepare is the only cache mutation, so the workers below only read.
	m.Prepare(batch)
	st := &m.step
	st.trees, st.first = st.trees[:0], st.first[:0]
	for _, tr := range batch {
		st.first = append(st.first, len(st.trees))
		st.trees = append(st.trees, m.convTrees(m.cache[tr])...)
	}
	st.forest.Reset(m.conv, st.trees)
	parts := runtime.GOMAXPROCS(0)
	for len(st.scratch) < parts {
		st.scratch = append(st.scratch, tensor.NewArena(0))
	}

	od := m.conv.OutDim()
	if n := len(batch) * m.slots() * od; st.feats == nil || cap(st.feats.Data) < n {
		st.feats = tensor.New(len(batch), m.slots()*od)
	} else {
		st.feats.Data, st.feats.Shape[0] = st.feats.Data[:n], len(batch)
		clear(st.feats.Data)
	}
	tensor.Each(len(batch), func(bi, w int) {
		row := st.feats.Row(bi)
		for ti := range m.convTrees(m.cache[batch[bi]]) {
			m.conv.ForwardTrain(&st.forest, st.first[bi]+ti, row[ti*od:(ti+1)*od], st.scratch[w])
			st.scratch[w].Reset()
		}
	})

	x := st.feats
	for _, l := range m.head {
		x = l.Forward(x, true)
	}
	lossVal := m.loss.Value(x, labels)
	g := m.loss.Grad(x, labels)
	for i := len(m.head) - 1; i >= 0; i-- {
		g = m.head[i].Backward(g)
	}

	// g is now (batch, slots*convOut): route slices to each tree, which all
	// read the weights transposed once for the step.
	st.wT = m.conv.Transpose(st.wT)
	tensor.Each(len(batch), func(bi, _ int) {
		row := g.Row(bi)
		for ti := range m.convTrees(m.cache[batch[bi]]) {
			m.conv.BackwardInputs(&st.forest, st.first[bi]+ti, row[ti*od:(ti+1)*od], st.wT)
		}
	})
	if st.parts != parts {
		st.tasks, st.parts = m.updateTasks(parts), parts
	}
	m.opt.Begin(m.slab)
	tensor.Each(len(st.tasks), func(i, w int) {
		t := &st.tasks[i]
		if t.accumulate {
			m.conv.AccumulateGrad(t.grad, &st.forest, st.scratch[w])
			st.scratch[w].Reset()
		}
		m.opt.Update(t.lo, t.hi)
	})
	return lossVal
}

// updateTasks cuts a step's parameter update into tasks that partition the
// slab: first every conv gradient task for parts workers (GradTasks, the
// largest first) with the slab range it fills, then the head's parameters,
// which follow the conv stack's in the slab, in update-only ranges of at
// most headChunk elements.
func (m *Prestroid) updateTasks(parts int) []updateTask {
	var tasks []updateTask
	for _, gt := range m.conv.GradTasks(parts) {
		p, lo, hi := m.conv.Span(gt)
		off := m.slab.Offset(p)
		tasks = append(tasks, updateTask{grad: gt, accumulate: true, lo: off + lo, hi: off + hi})
	}
	end := len(m.slab.W)
	for lo := m.slab.Offset(len(m.conv.Params())); lo < end; lo += headChunk {
		tasks = append(tasks, updateTask{lo: lo, hi: min(lo+headChunk, end)})
	}
	return tasks
}

// Predict runs inference on the float kernels, bypassing the conv cache:
// the reference the serving fast path is held byte-identical to.
func (m *Prestroid) Predict(batch []*workload.Trace) *tensor.Tensor {
	m.Prepare(batch)
	feats := tensor.New(len(batch), m.slots()*m.conv.OutDim())
	m.inferConv(batch, feats, nil)
	x := feats
	for _, l := range m.head {
		x = l.Forward(x, false)
	}
	return x
}

// SetConvCache installs a pooled-conv-output cache consulted on the
// PredictInto fast path; nil removes it. The cache must satisfy the
// ConvCache concurrency contract. It is not synchronised against concurrent
// Predict calls — install it while the model is quiescent. Clone does not
// carry the cache over. Serving does not install one: it hands its cache to
// each PredictEncoded call.
func (m *Prestroid) SetConvCache(c ConvCache) { m.convCache = c }

// PredictInto is the arena-backed inference fast path: one prediction per
// batch element into the caller-owned dst (len ≥ len(batch)). Results are
// byte-identical to Predict — the conv stages and the
// dense head replay the training path's operation order exactly — while all
// intermediate tensors live in model-owned arenas and the outputs land in
// the caller's dst, so a warmed-up call performs no heap allocation and no
// model-owned memory escapes.
func (m *Prestroid) PredictInto(batch []*workload.Trace, dst []float64) {
	if len(dst) < len(batch) {
		panic("models: PredictInto dst shorter than batch")
	}
	m.Prepare(batch)
	a := m.arenas.Get()
	defer m.arenas.Put(a)
	feats := a.Get(len(batch), m.slots()*m.conv.OutDim())
	m.inferConv(batch, feats, m.convCache)
	copy(dst[:len(batch)], nn.ForwardInference(m.head, feats, a).Data)
}

// PredictEncoded predicts one query from an encoding EncodeTrace made,
// byte-identical to Predict on its trace. It reads and fills cache (nil
// convolves every tree) and writes nothing of the model's: no encoding is
// adopted, and its scratch comes from the model's arena pool. So any number
// of goroutines may call it on one model at once, as long as nothing trains
// the model or swaps its weights meanwhile. The caller keeps enc and may
// Recycle it once the call returns.
func (m *Prestroid) PredictEncoded(enc any, cache ConvCache) float64 {
	a := m.arenas.Get()
	defer m.arenas.Put(a)
	feats := a.Get(1, m.slots()*m.conv.OutDim())
	m.inferOne(0, m.convTrees(enc.([]*treecnn.Tree)), feats, cache)
	return nn.ForwardInference(m.head, feats, a).Data[0]
}

// inferConv fills out (batch, slots*convOut) with pooled conv features of
// the batch's prepared traces, fanning traces out through tensor.Each, and
// reads and fills cache (nil convolves every tree). The conv stack is pure at
// inference and each row is computed in the serial loop's operation order,
// so outputs do not depend on batch composition. out must not live in the
// conv workers' arenas.
func (m *Prestroid) inferConv(batch []*workload.Trace, out *tensor.Tensor, cache ConvCache) {
	if len(batch) == 1 {
		// No closure for the lone trace: Each's work func escapes to its
		// helpers, and steady single-query PredictInto allocates nothing.
		m.inferOne(0, m.convTrees(m.cache[batch[0]]), out, cache)
		return
	}
	tensor.Each(len(batch), func(bi, _ int) { m.inferOne(bi, m.convTrees(m.cache[batch[bi]]), out, cache) })
}

// inferOne convolves trees into row bi of out, inside a pooled arena, each
// sub-tree answered from cache if its pooled output is already known and
// deposited there otherwise. Safe to call from multiple goroutines for
// distinct bi (the arena pool and the cache are concurrency-safe by
// contract).
func (m *Prestroid) inferOne(bi int, trees []*treecnn.Tree, out *tensor.Tensor, cache ConvCache) {
	a := m.arenas.Get()
	defer m.arenas.Put(a)
	od := m.conv.OutDim()
	row := out.Row(bi)
	for ti, tree := range trees {
		slot := row[ti*od : (ti+1)*od]
		if cache != nil && tree.Hash != 0 {
			if v, ok := cache.Get(tree.Hash); ok {
				copy(slot, v)
				continue
			}
		}
		pooled := m.conv.ForwardInference(tree, a)
		copy(slot, pooled.Data)
		a.Reset()
		if cache != nil && tree.Hash != 0 {
			cache.Put(tree.Hash, slot)
		}
	}
	// Missing sub-trees (fewer than K samples) stay zero — the paper's
	// padding of short queries.
}

// ParamCount returns trainable scalars.
func (m *Prestroid) ParamCount() int { return len(m.slab.W) }

// BatchBytes reports the padded per-batch input size: sub-tree models pad to
// K × N slots; full-tree models pad every plan to the largest plan seen.
func (m *Prestroid) BatchBytes(batchSize int) int {
	featDim := m.pipe.Enc.FeatureDim()
	if m.cfg.K > 0 {
		return dataset.PaddedSubTreeBatchBytes(batchSize, m.cfg.K, m.cfg.N, featDim)
	}
	n := m.maxNodes
	if n == 0 {
		n = 1
	}
	return dataset.PaddedTreeBatchBytes(batchSize, n, featDim)
}

// Clone returns an independent copy: a fresh Prestroid with the same
// architecture, sharing the read-only Pipeline (Word2Vec vectors and O-T-P
// encoder) and duplicating only mutable state — trainable weights and
// batch-norm running statistics. The per-trace encoding cache starts empty,
// optimizer moments are reset, and the copy's Predict output is
// bit-identical to the source model's for any trace. Serving never clones:
// its concurrent calls share one model through PredictEncoded. The
// repository benchmark and tests clone, to keep a reference or a hand-driven
// model apart from a served one.
func (m *Prestroid) Clone() Model {
	c := NewPrestroid(m.cfg, m.pipe)
	if err := c.CopyWeightsFrom(m); err != nil {
		// Unreachable by construction: an identical config yields an
		// identical parameter order and shapes.
		panic(fmt.Sprintf("models: clone: %v", err))
	}
	c.maxNodes = m.maxNodes
	return c
}

// RebuildWithPipeline constructs a fresh Prestroid with the receiver's
// architecture config over pipe, whose feature dimension — not the
// receiver's — decides the conv parameter shapes: a retrain that grew the
// table universe rolls in by rebuilding off its pipeline and applying its
// weights. Weights start freshly initialised (the caller installs the
// retrained bundle's tensors afterwards, which is where a pipeline/weight
// mismatch is caught), the encoding cache starts empty, and the receiver is
// never mutated.
func (m *Prestroid) RebuildWithPipeline(pipe *Pipeline) (Model, error) {
	if pipe == nil || pipe.Enc == nil {
		return nil, fmt.Errorf("models: rebuild needs a pipeline with an encoder")
	}
	return NewPrestroid(m.cfg, pipe), nil
}

// CopyWeightsFrom overwrites the model's trainable parameters and
// non-trainable layer state with src's, validating tensor count and shapes
// the same way persist.Bundle.Apply validates an on-disk bundle; Clone
// copies through it. Both models' parameters live in one slab each, laid out
// alike once the shapes match, so the weights copy as one slice.
func (m *Prestroid) CopyWeightsFrom(src *Prestroid) error {
	dst, from := m.slab.Params, src.slab.Params
	if len(from) != len(dst) {
		return fmt.Errorf("models: source has %d tensors, destination has %d", len(from), len(dst))
	}
	for i, p := range dst {
		sw := from[i].W
		if len(sw.Shape) != len(p.W.Shape) {
			return fmt.Errorf("models: tensor %d (%s) rank mismatch", i, p.Name)
		}
		for d := range p.W.Shape {
			if sw.Shape[d] != p.W.Shape[d] {
				return fmt.Errorf("models: tensor %d (%s) shape %v, destination wants %v",
					i, p.Name, sw.Shape, p.W.Shape)
			}
		}
	}
	copy(m.slab.W, src.slab.W)
	srcState, dstState := src.StateTensors(), m.StateTensors()
	if len(srcState) != len(dstState) {
		return fmt.Errorf("models: source has %d state tensors, destination has %d", len(srcState), len(dstState))
	}
	for i, st := range dstState {
		if len(srcState[i].Data) != len(st.Data) {
			return fmt.Errorf("models: state tensor %d size mismatch", i)
		}
		copy(st.Data, srcState[i].Data)
	}
	return nil
}

// Weights exposes the trainable parameters for persistence and for
// data-parallel weight synchronisation.
func (m *Prestroid) Weights() []*nn.Param { return m.slab.Params }

// StateTensors exposes non-trainable layer state (batch-norm running
// statistics) for persistence and replica synchronisation.
func (m *Prestroid) StateTensors() []*tensor.Tensor { return nn.CollectState(m.head) }

// Release drops what only training needs: the last step's forest, worker
// arenas and transposed weights, the buffers the dense head's layers keep
// from step to step (nn.Releaser), and every encoding Prepare cached (the map
// is made anew, so its buckets go too). The model keeps its weights, its
// layer state, its Adam moments and the full-tree padding target BatchBytes
// reads, so a later Prepare, TrainBatch or Predict rebuilds what it needs
// and computes the same bits as a model never released. train.Run calls it
// when it returns.
func (m *Prestroid) Release() {
	m.step = trainStep{}
	for _, l := range m.head {
		if r, ok := l.(nn.Releaser); ok {
			r.Release()
		}
	}
	m.cache = make(map[*workload.Trace][]*treecnn.Tree)
}

// Evict drops cached encodings for traces the caller no longer needs, to
// bound the memory of a model that predicts trace after trace.
// Evicting a trace that was never prepared is a no-op, and a later Prepare
// (or lazy Predict) re-encodes evicted traces deterministically, so
// evict-then-predict returns byte-identical results.
func (m *Prestroid) Evict(traces []*workload.Trace) {
	for _, tr := range traces {
		delete(m.cache, tr)
	}
}
