package treecnn

import (
	"math"
	"testing"

	"prestroid/internal/logicalplan"
	"prestroid/internal/nn"
	"prestroid/internal/otp"
	"prestroid/internal/subtree"
	"prestroid/internal/tensor"
	"prestroid/internal/word2vec"
	"prestroid/internal/workload"
)

// The dense reference: the tree convolution as three GEMMs per layer over
// materialised child rows, forward and backward, exactly as the package
// computed it before layer 0 learned to read the feature index and the hidden
// layers learned tensor.AccumRows. It treats the feature tensor like any
// other input — scanning its width, computing the input gradient nobody
// reads — and its GEMMs are plain Go loops, so it shares no kernel with the
// code it checks. It is the oracle the package must match bit for bit.

type refState struct {
	x, xl, xr *tensor.Tensor
	mask      []bool
}

// refMatMul is out = a × b in i-k-j order, zero entries of a skipped.
func refMatMul(out, a, b *tensor.Tensor) {
	n := b.Shape[1]
	for i := 0; i < a.Shape[0]; i++ {
		orow := out.Row(i)
		for j := range orow {
			orow[j] = 0
		}
		for p, av := range a.Row(i) {
			if av == 0 {
				continue
			}
			for j, bv := range b.Data[p*n : (p+1)*n] {
				orow[j] += float64(av * bv)
			}
		}
	}
}

// refMatMulTransA is aᵀ × b for a (k,m) and b (k,n): p outer, zero entries
// of a skipped.
func refMatMulTransA(a, b *tensor.Tensor) *tensor.Tensor {
	k, m, n := a.Shape[0], a.Shape[1], b.Shape[1]
	out := tensor.New(m, n)
	for p := 0; p < k; p++ {
		brow := b.Row(p)
		for i, av := range a.Row(p) {
			if av == 0 {
				continue
			}
			orow := out.Row(i)
			for j, bv := range brow {
				orow[j] += float64(av * bv)
			}
		}
	}
	return out
}

// refMatMulTransB is a × bᵀ for a (m,k) and b (n,k): every element a dot
// product in p order from +0, nothing skipped.
func refMatMulTransB(a, b *tensor.Tensor) *tensor.Tensor {
	m, n := a.Shape[0], b.Shape[0]
	out := tensor.New(m, n)
	for i := 0; i < m; i++ {
		arow, orow := a.Row(i), out.Row(i)
		for j := range orow {
			s := 0.0
			for p, bv := range b.Row(j) {
				s += float64(arow[p] * bv)
			}
			orow[j] = s
		}
	}
	return out
}

func refLayerForward(l *ConvLayer, tree *Tree, x *tensor.Tensor) (*tensor.Tensor, *refState) {
	n := tree.Len()
	// Each node's child rows, absent children left zero.
	xl := tensor.New(n, l.In)
	xr := tensor.New(n, l.In)
	for i := 0; i < n; i++ {
		if li := tree.Left[i]; li >= 0 {
			copy(xl.Row(i), x.Row(li))
		}
		if ri := tree.Right[i]; ri >= 0 {
			copy(xr.Row(i), x.Row(ri))
		}
	}
	// Wt·x + Wl·xl + Wr·xr + b, added in that order.
	out := tensor.New(n, l.Out)
	tmp := tensor.New(n, l.Out)
	refMatMul(out, x, l.Wt.W)
	refMatMul(tmp, xl, l.Wl.W)
	out.AddInPlace(tmp)
	refMatMul(tmp, xr, l.Wr.W)
	out.AddInPlace(tmp)
	tensor.AddRowVector(out, l.B.W)
	st := &refState{x: x, xl: xl, xr: xr, mask: make([]bool, out.Size())}
	for i, v := range out.Data {
		if v > 0 {
			st.mask[i] = true
		} else {
			out.Data[i] = 0
		}
	}
	return out, st
}

func refLayerBackward(l *ConvLayer, tree *Tree, st *refState, gradOut *tensor.Tensor) *tensor.Tensor {
	gz := gradOut.Clone()
	for i := range gz.Data {
		if !st.mask[i] {
			gz.Data[i] = 0
		}
	}
	l.Wt.G.AddInPlace(refMatMulTransA(st.x, gz))
	l.Wl.G.AddInPlace(refMatMulTransA(st.xl, gz))
	l.Wr.G.AddInPlace(refMatMulTransA(st.xr, gz))
	l.B.G.AddInPlace(tensor.SumRows(gz))

	gx := refMatMulTransB(gz, l.Wt.W)
	gl := refMatMulTransB(gz, l.Wl.W)
	gr := refMatMulTransB(gz, l.Wr.W)
	for i := 0; i < tree.Len(); i++ {
		if li := tree.Left[i]; li >= 0 {
			dst := gx.Row(li)
			for j, v := range gl.Row(i) {
				dst[j] += v
			}
		}
		if ri := tree.Right[i]; ri >= 0 {
			dst := gx.Row(ri)
			for j, v := range gr.Row(i) {
				dst[j] += v
			}
		}
	}
	return gx
}

// refForwardBackward runs one tree through the dense reference, adding its
// parameter gradients into net's, and returns the pooled vector and winners.
func refForwardBackward(net *Network, t *Tree, grad []float64) (*tensor.Tensor, []int32) {
	x := t.Feats
	var states []*refState
	for _, l := range net.Layers {
		var st *refState
		x, st = refLayerForward(l, t, x)
		states = append(states, st)
	}
	od := net.OutDim()
	pooled := tensor.New(1, od)
	argmax := make([]int32, od)
	net.pool(t, x, pooled, argmax)

	gx := tensor.New(t.Len(), od)
	for d, i := range argmax {
		if i >= 0 {
			gx.Data[int(i)*od+d] = grad[d]
		}
	}
	for li := len(net.Layers) - 1; li >= 0; li-- {
		gx = refLayerBackward(net.Layers[li], t, states[li], gx)
	}
	return pooled, argmax
}

// sameFloat is equality of bit patterns, except that any NaN equals any NaN:
// which payload survives NaN+NaN depends on the operand order the compiler
// picked for a commutative add, which is not arithmetic this package owns.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

func requireSame(t testing.TB, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, reference has %d", what, len(got), len(want))
	}
	for i := range want {
		if !sameFloat(got[i], want[i]) {
			t.Fatalf("%s[%d] = %v (%#x), reference %v (%#x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

func requireSameGrads(t testing.TB, what string, got, want *Network) {
	t.Helper()
	wp := want.Params()
	for i, p := range got.Params() {
		requireSame(t, what+" "+p.Name+".G", p.G.Data, wp[i].G.Data)
	}
}

// diffNets returns three networks with identical weights (biases included,
// made non-zero so the bias add is exercised) and zeroed gradients.
func diffNets(inDim int, widths []int, seed uint64) [3]*Network {
	var nets [3]*Network
	for i := range nets {
		rng := tensor.NewRNG(seed)
		nets[i] = NewNetwork(inDim, widths, rng)
		for _, l := range nets[i].Layers {
			rng.FillNorm(l.B.W, 0, 0.5)
		}
		nn.ZeroGrads(nets[i].Params())
	}
	return nets
}

// checkSparseMatchesDense feeds the trees, in order and without zeroing
// gradients in between, through the dense reference, through Forward/Backward
// on the heap, and through the step path one tree at a time (a forest of one:
// ForwardTrain, BackwardInputs, then AccumulateGrad over a three-way task
// split) — and requires pooled outputs, pooling winners and every parameter
// gradient to agree after each tree. ForwardInference's pooled vector is
// checked along the way. A last leg lays all the trees end to end as one
// forest, back-propagates them in reverse order, accumulates every task once,
// and requires the reference's gradients after the last tree.
func checkSparseMatchesDense(t testing.TB, trees []*Tree, widths []int, seed uint64) {
	t.Helper()
	if len(trees) == 0 {
		return
	}
	nets := diffNets(trees[0].Feats.Shape[1], widths, seed)
	ref, heap, step := nets[0], nets[1], nets[2]
	forest := diffNets(trees[0].Feats.Shape[1], widths, seed)[0]
	rng := tensor.NewRNG(seed + 1)
	scratch := tensor.NewArena(0)
	tasks := step.GradTasks(3)
	var sctx Context
	grads := make([][]float64, len(trees))
	pooled := make([][]float64, len(trees))
	for ti, tree := range trees {
		grad := tensor.New(1, ref.OutDim())
		rng.FillNorm(grad, 0, 1)
		grad.Data[0] = 0
		grads[ti] = grad.Data

		wantPooled, wantArg := refForwardBackward(ref, tree, grad.Data)
		pooled[ti] = wantPooled.Data

		got, ctx := heap.Forward(tree)
		requireSame(t, "Forward pooled", got.Data, wantPooled.Data)
		for d := range wantArg {
			if ctx.argmax[d] != wantArg[d] {
				t.Fatalf("tree %d: argmax[%d] = %d, reference %d", ti, d, ctx.argmax[d], wantArg[d])
			}
		}
		heap.Backward(ctx, grad)
		requireSameGrads(t, "Backward", heap, ref)

		sctx.Reset(step, []*Tree{tree})
		got = tensor.New(1, ref.OutDim())
		step.ForwardTrain(&sctx, 0, got.Data, scratch)
		requireSame(t, "ForwardTrain pooled", got.Data, wantPooled.Data)
		scratch.Reset()
		step.BackwardInputs(&sctx, 0, grad.Data, step.Transpose(nil))
		for _, task := range tasks {
			step.AccumulateGrad(task, &sctx, scratch)
			scratch.Reset()
		}
		requireSameGrads(t, "AccumulateGrad", step, ref)

		requireSame(t, "ForwardInference pooled", step.ForwardInference(tree, scratch).Data, wantPooled.Data)
		scratch.Reset()
	}

	var fctx Context
	fctx.Reset(forest, trees)
	for ti := range trees {
		got := make([]float64, ref.OutDim())
		forest.ForwardTrain(&fctx, ti, got, scratch)
		scratch.Reset()
		requireSame(t, "forest ForwardTrain pooled", got, pooled[ti])
	}
	wT := forest.Transpose(nil)
	for ti := len(trees) - 1; ti >= 0; ti-- {
		forest.BackwardInputs(&fctx, ti, grads[ti], wT)
	}
	for _, task := range forest.GradTasks(3) {
		forest.AccumulateGrad(task, &fctx, scratch)
		scratch.Reset()
	}
	requireSameGrads(t, "forest AccumulateGrad", forest, ref)
}

// grabTrees featurizes generated Grab plans the way the models do: Algorithm-1
// samples of every plan plus the whole plan, over an encoder fitted to them,
// and one long-tail plan whose full tree exceeds the digest's stack buffer.
func grabTrees(t *testing.T) []*Tree {
	t.Helper()
	cfg := workload.DefaultGrabConfig()
	cfg.Queries = 24
	traces := workload.NewGrabGenerator(cfg).Generate()
	plans := make([]*logicalplan.Node, len(traces))
	tables := map[string]bool{}
	for i, tr := range traces {
		plans[i] = tr.Plan
		for _, tbl := range tr.Plan.Tables() {
			tables[tbl] = true
		}
	}
	var names []string
	for tbl := range tables {
		names = append(names, tbl)
	}
	w2v := word2vec.DefaultConfig(6)
	w2v.MinCount = 2
	enc := otp.NewEncoder(names, word2vec.Train(otp.Corpus(plans), w2v))

	big := workload.GeneratePlanSample(workload.PlanSampleConfig{Count: 1, Seed: 5, MaxNodes: 300, TailFraction: 1})
	var trees []*Tree
	sawBig := false
	for _, plan := range append(plans, big...) {
		root := otp.Recast(plan)
		qctx := enc.NewQueryContext(root)
		full := FlattenFull(root, enc, qctx)
		sawBig = sawBig || full.Len() > rehashBuf
		trees = append(trees, full)
		samples, err := subtree.Sample(root, subtree.Config{N: 15, C: 2})
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range subtree.Select(samples, 9) {
			trees = append(trees, FlattenSubTree(st, enc, qctx))
		}
	}
	if !sawBig {
		t.Fatalf("no full tree over %d nodes among the generated plans", rehashBuf)
	}
	return trees
}

// literal builds an unindexed Tree from rows of features.
func literal(feats [][]float64, left, right []int, votes []float64) *Tree {
	t := &Tree{Feats: tensor.New(len(feats), len(feats[0])), Left: left, Right: right, Votes: votes}
	for i, row := range feats {
		copy(t.Feats.Row(i), row)
	}
	return t
}

// adversarialTrees are hand-built literals (no index) aimed at the places the
// indexed path differs in mechanism from the dense one.
func adversarialTrees() []*Tree {
	negZero := math.Copysign(0, -1)
	return []*Tree{
		// Single node.
		literal([][]float64{{0, 2, 0, -1}}, []int{-1}, []int{-1}, []float64{1}),
		// Left-only chain and a right-only child: absent children on both sides.
		literal([][]float64{{1, 0, 0, 0}, {0, 1, 0, 0}, {0, 0, 1, 0}, {0, 0, 0, 1}},
			[]int{1, 2, -1, -1}, []int{-1, -1, 3, -1}, []float64{1, 0, 1, 1}),
		// All-zero ∅ rows, including the root, and a node nobody votes for.
		literal([][]float64{{0, 0, 0, 0}, {0, 0, 0, 0}, {0.5, 0, 0, 2}},
			[]int{1, -1, -1}, []int{2, -1, -1}, []float64{1, 1, 0}),
		// ±0 entries: neither is indexed, both must behave as absent.
		literal([][]float64{{negZero, 3, 0, negZero}, {0, negZero, 1, 0}, {negZero, negZero, negZero, negZero}},
			[]int{1, -1, -1}, []int{2, -1, -1}, []float64{1, 1, 1}),
		// A NaN row and an Inf entry, in different columns of different nodes.
		literal([][]float64{{1, 0, 0, 0}, {math.NaN(), 0, math.NaN(), 0}, {0, math.Inf(1), 0, 0}},
			[]int{1, -1, -1}, []int{2, -1, -1}, []float64{1, 1, 1}),
		// Nobody votes: pooling is empty and no gradient may flow.
		literal([][]float64{{1, 2, 3, 4}, {4, 3, 2, 1}}, []int{1, -1}, []int{-1, -1}, []float64{0, 0}),
		// Fully dense rows.
		literal([][]float64{{1, -2, 3, -4}, {-1, 2, -3, 4}, {0.5, 0.25, -0.125, 8}},
			[]int{1, -1, -1}, []int{2, -1, -1}, []float64{1, 1, 1}),
	}
}

func TestLayer0SparseMatchesDenseReference(t *testing.T) {
	t.Run("grab", func(t *testing.T) {
		trees := grabTrees(t)
		checkSparseMatchesDense(t, trees, []int{8, 8, 6}, 11)
		checkSparseMatchesDense(t, trees, wideWidths, 14)
	})
	t.Run("adversarial", func(t *testing.T) {
		trees := adversarialTrees()
		checkSparseMatchesDense(t, trees, []int{5, 4}, 12)
		// The same trees indexed (as a mutating caller would leave them) and
		// through a single layer, where layer 0 is also the pooled layer.
		for _, tree := range trees {
			tree.Rehash()
		}
		checkSparseMatchesDense(t, trees, []int{5, 4}, 12)
		checkSparseMatchesDense(t, trees, []int{3}, 13)
	})
}

// fuzzTree decodes bytes into a literal tree: node count, feature width, then
// per node a parent/side choice, a vote and a mostly-zero feature row drawn
// from a palette of awkward values. Exhausted input reads as zeros.
func fuzzTree(data []byte) *Tree {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	n := 1 + int(next())%24
	dim := 1 + int(next())%10
	t := &Tree{
		Feats: tensor.New(n, dim),
		Left:  make([]int, n),
		Right: make([]int, n),
		Votes: make([]float64, n),
	}
	for i := range t.Left {
		t.Left[i], t.Right[i] = -1, -1
	}
	for i := 0; i < n; i++ {
		b := next()
		if i > 0 {
			// Attach below an earlier node (children sit at higher indices);
			// a taken slot leaves the node unreferenced, like a sample's
			// boundary.
			p := int(b>>1) % i
			if b&1 == 0 && t.Left[p] < 0 {
				t.Left[p] = i
			} else if t.Right[p] < 0 {
				t.Right[p] = i
			}
		}
		t.Votes[i] = float64(next() & 1)
		row := t.Feats.Row(i)
		for j := range row {
			switch v := next(); v % 16 {
			case 10:
				row[j] = math.Copysign(0, -1)
			case 11:
				row[j] = 1
			case 12:
				row[j] = -1.5
			case 13:
				row[j] = 0.25 * float64(v)
			case 14:
				row[j] = math.NaN()
			case 15:
				row[j] = math.Inf(1)
			}
		}
	}
	return t
}

// leadTree is a fixed dense-ish literal tree dim features wide, which the
// fuzz target puts first in its forests so that the fuzzed trees' rows start
// past row 0.
func leadTree(dim int) *Tree {
	n := 3
	t := &Tree{
		Feats: tensor.New(n, dim),
		Left:  []int{1, -1, -1},
		Right: []int{2, -1, -1},
		Votes: []float64{1, 1, 1},
	}
	for i := range t.Feats.Data {
		t.Feats.Data[i] = float64(i%5) - 1.5
	}
	return t
}

// FuzzLayer0SparseVsDense is the differential target: any tree the decoder
// can express must convolve and back-propagate identically through the
// indexed path and the dense reference, literal and indexed alike, alone and
// behind another tree in a forest.
func FuzzLayer0SparseVsDense(f *testing.F) {
	f.Add([]byte{}, uint64(1))
	f.Add([]byte{2, 3, 0, 1, 11, 0, 14, 0, 1, 10, 12, 0}, uint64(2))
	f.Add([]byte{23, 9, 1, 1, 13, 29, 45, 61, 77, 93, 109, 125, 141, 157, 173}, uint64(3))
	f.Fuzz(func(t *testing.T, data []byte, seed uint64) {
		tree := fuzzTree(data)
		indexed := fuzzTree(data)
		indexed.Rehash()
		lead := leadTree(tree.Feats.Shape[1])
		checkSparseMatchesDense(t, []*Tree{lead, tree, indexed, tree}, []int{5, 4}, seed)
		checkSparseMatchesDense(t, []*Tree{lead, tree, indexed}, wideWidths, seed)
	})
}

// wideWidths make the hidden layers' tensor.AccumRows calls (forward: Out
// wide over In coefficients; backward: Out wide over the nodes) reach every
// column path of its assembly: 37 = a 32-column block, a 4-column block and
// a single column; 19 = a 16-column block and three single columns.
var wideWidths = []int{37, 37, 19}
