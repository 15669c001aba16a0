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
)

// tinyTree builds a hand-wired 3-node tree with the given feature width.
func tinyTree(featDim int, rng *tensor.RNG) *Tree {
	t := &Tree{
		Feats: tensor.New(3, featDim),
		Left:  []int{1, -1, -1},
		Right: []int{2, -1, -1},
		Votes: []float64{1, 1, 1},
	}
	rng.FillNorm(t.Feats, 0, 1)
	return t
}

func TestConvLayerSingleNodeKnown(t *testing.T) {
	rng := tensor.NewRNG(1)
	l := NewConvLayer(2, 1, rng)
	l.Wt.W.Data = []float64{1, 2}
	l.Wl.W.Data = []float64{0, 0}
	l.Wr.W.Data = []float64{0, 0}
	l.B.W.Data = []float64{0.5}
	tree := &Tree{
		Feats: tensor.FromSlice([]float64{3, 4}, 1, 2),
		Left:  []int{-1},
		Right: []int{-1},
		Votes: []float64{1},
	}
	out := tensor.New(1, 1)
	l.forward(out, 0, tree, tree.index(nil), nil, nil)
	// 1*3 + 2*4 + 0.5 = 11.5
	if math.Abs(out.Data[0]-11.5) > 1e-12 {
		t.Fatalf("conv = %v, want 11.5", out.Data[0])
	}
}

func TestConvLayerUsesChildren(t *testing.T) {
	rng := tensor.NewRNG(2)
	l := NewConvLayer(1, 1, rng)
	l.Wt.W.Data = []float64{1}
	l.Wl.W.Data = []float64{10}
	l.Wr.W.Data = []float64{100}
	l.B.W.Data = []float64{0}
	tree := &Tree{
		Feats: tensor.FromSlice([]float64{1, 2, 3}, 3, 1),
		Left:  []int{1, -1, -1},
		Right: []int{2, -1, -1},
		Votes: []float64{1, 1, 1},
	}
	out := tensor.New(3, 1)
	l.forward(out, 0, tree, tree.index(nil), nil, nil)
	// root: 1 + 10*2 + 100*3 = 321; leaves: just themselves.
	if out.Data[0] != 321 || out.Data[1] != 2 || out.Data[2] != 3 {
		t.Fatalf("conv out = %v", out.Data)
	}
}

func TestNetworkGradientsNumeric(t *testing.T) {
	rng := tensor.NewRNG(3)
	featDim := 4
	net := NewNetwork(featDim, []int{5, 3}, rng)
	tree := tinyTree(featDim, rng)

	// Loss = weighted sum of pooled output.
	w := []float64{0.7, -1.3, 0.4}
	loss := func() float64 {
		out, _ := net.Forward(tree)
		s := 0.0
		for i, x := range out.Data {
			s += w[i] * x
		}
		return s
	}
	out, ctx := net.Forward(tree)
	_ = out
	grad := tensor.FromSlice(append([]float64(nil), w...), 1, 3)
	nn.ZeroGrads(net.Params())
	net.Backward(ctx, grad)

	const h = 1e-6
	for _, p := range net.Params() {
		for i := range p.W.Data {
			orig := p.W.Data[i]
			p.W.Data[i] = orig + h
			up := loss()
			p.W.Data[i] = orig - h
			down := loss()
			p.W.Data[i] = orig
			want := (up - down) / (2 * h)
			if math.Abs(p.G.Data[i]-want) > 1e-4 {
				t.Fatalf("%s grad[%d] = %v, numeric %v", p.Name, i, p.G.Data[i], want)
			}
		}
	}
}

// TestTransposeFollowsTheWeights: Transpose reuses the tensors it is handed
// and refills them from the weights as they are now, layer 0 having none.
func TestTransposeFollowsTheWeights(t *testing.T) {
	rng := tensor.NewRNG(6)
	net := NewNetwork(4, []int{5, 3, 2}, rng)
	wT := net.Transpose(nil)
	if wT[0] != ([3]*tensor.Tensor{}) {
		t.Fatal("layer 0 has transposes")
	}
	kept := wT[2][paramWr]
	for _, p := range net.Params() {
		rng.FillNorm(p.W, 0, 1)
	}
	wT = net.Transpose(wT)
	if wT[2][paramWr] != kept {
		t.Fatal("Transpose reallocated a tensor it was handed")
	}
	for li, l := range net.Layers[1:] {
		for p, w := range [...]*nn.Param{l.Wt, l.Wl, l.Wr} {
			if !tensor.Equal(wT[li+1][p], tensor.Transpose(w.W), 0) {
				t.Fatalf("layer %d %s: stale transpose", li+1, w.Name)
			}
		}
	}
}

func TestVoteMaskExcludesNodes(t *testing.T) {
	rng := tensor.NewRNG(4)
	net := NewNetwork(2, []int{3}, rng)
	tree := tinyTree(2, rng)

	// With all votes the pooling may pick any node; silence node 0 and the
	// pooled output must be computable from nodes 1,2 only.
	outAll, _ := net.Forward(tree)
	tree.Votes = []float64{0, 1, 1}
	outMasked, ctx := net.Forward(tree)
	for d, i := range ctx.argmax {
		if i == 0 {
			t.Fatalf("masked node won pooling at dim %d", d)
		}
	}
	// Masked output must be <= unmasked (max over a subset).
	for i := range outAll.Data {
		if outMasked.Data[i] > outAll.Data[i]+1e-12 {
			t.Fatal("masked pooling exceeded unmasked")
		}
	}
}

func TestAllVotesZeroYieldsZeroVector(t *testing.T) {
	rng := tensor.NewRNG(5)
	net := NewNetwork(2, []int{3}, rng)
	tree := tinyTree(2, rng)
	tree.Votes = []float64{0, 0, 0}
	out, ctx := net.Forward(tree)
	for _, v := range out.Data {
		if v != 0 {
			t.Fatal("no voters must pool to zero")
		}
	}
	// Backward with no voters must not panic and must leave grads zero.
	nn.ZeroGrads(net.Params())
	g := tensor.New(1, 3)
	g.Fill(1)
	net.Backward(ctx, g)
	for _, p := range net.Params() {
		for _, v := range p.G.Data {
			if v != 0 {
				t.Fatal("gradient leaked through empty pooling")
			}
		}
	}
}

func buildEncoder(t *testing.T) (*otp.Encoder, *otp.Node, *otp.QueryContext) {
	t.Helper()
	p, err := logicalplan.PlanSQL("SELECT * FROM a JOIN b ON a.x = b.x WHERE a.y > 3 AND b.z < 9")
	if err != nil {
		t.Fatal(err)
	}
	cfg := word2vec.DefaultConfig(6)
	cfg.MinCount = 1
	w2v := word2vec.Train(otp.Corpus([]*logicalplan.Node{p}), cfg)
	enc := otp.NewEncoder([]string{"a", "b"}, w2v)
	root := otp.Recast(p)
	return enc, root, enc.NewQueryContext(root)
}

func TestFlattenFullStructure(t *testing.T) {
	enc, root, qctx := buildEncoder(t)
	tree := FlattenFull(root, enc, qctx)
	if tree.Len() != root.NodeCount() {
		t.Fatalf("flatten len = %d, tree nodes = %d", tree.Len(), root.NodeCount())
	}
	// Root is index 0; every child index must point forward (BFS property).
	for i := 0; i < tree.Len(); i++ {
		if tree.Left[i] >= 0 && tree.Left[i] <= i {
			t.Fatal("BFS child index must be greater than parent index")
		}
		if tree.Right[i] >= 0 && tree.Right[i] <= i {
			t.Fatal("BFS child index must be greater than parent index")
		}
		if tree.Votes[i] != 1 {
			t.Fatal("full tree must vote everywhere")
		}
	}
	if tree.Feats.Shape[1] != enc.FeatureDim() {
		t.Fatalf("feature width = %d", tree.Feats.Shape[1])
	}
}

func TestFlattenSubTreeBoundary(t *testing.T) {
	enc, root, qctx := buildEncoder(t)
	samples, err := subtree.Sample(root, subtree.Config{N: 7, C: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range samples {
		ft := FlattenSubTree(st, enc, qctx)
		if ft.Len() != len(st.Nodes) {
			t.Fatalf("flatten len mismatch")
		}
		for i := 0; i < ft.Len(); i++ {
			// Child indices must be in range or -1.
			if ft.Left[i] >= ft.Len() || ft.Right[i] >= ft.Len() {
				t.Fatal("child index out of range")
			}
		}
	}
}

func TestNetworkDifferentiatesStructure(t *testing.T) {
	// Two trees with identical multiset of node features but different
	// shapes must produce different conv outputs — the positional
	// sensitivity that motivates Tree CNN over flat aggregation.
	rng := tensor.NewRNG(6)
	net := NewNetwork(3, []int{4}, rng)
	feats := tensor.New(3, 3)
	rng.FillNorm(feats, 0, 1)

	chain := &Tree{ // 0 -> 1 -> 2 as left chain
		Feats: feats.Clone(),
		Left:  []int{1, 2, -1},
		Right: []int{-1, -1, -1},
		Votes: []float64{1, 1, 1},
	}
	balanced := &Tree{ // 0 with children 1, 2
		Feats: feats.Clone(),
		Left:  []int{1, -1, -1},
		Right: []int{2, -1, -1},
		Votes: []float64{1, 1, 1},
	}
	o1, _ := net.Forward(chain)
	o2, _ := net.Forward(balanced)
	if tensor.Equal(o1, o2, 1e-9) {
		t.Fatal("tree conv must be sensitive to tree shape")
	}
}

func TestTrainingReducesLossOnTreeTask(t *testing.T) {
	// Distinguish left-chains from balanced trees: a structural signal only
	// the conv kernels can pick up. Train conv + dense head end to end.
	rng := tensor.NewRNG(7)
	featDim := 3
	net := NewNetwork(featDim, []int{8}, rng)
	head := nn.NewDense(8, 1, rng)
	sig := nn.NewSigmoid()
	opt := nn.NewAdam(0.01)
	loss := nn.NewHuberLoss(1)

	mkChain := func() *Tree {
		f := tensor.New(3, featDim)
		rng.FillNorm(f, 0, 1)
		return &Tree{Feats: f, Left: []int{1, 2, -1}, Right: []int{-1, -1, -1}, Votes: []float64{1, 1, 1}}
	}
	mkBal := func() *Tree {
		f := tensor.New(3, featDim)
		rng.FillNorm(f, 0, 1)
		return &Tree{Feats: f, Left: []int{1, -1, -1}, Right: []int{2, -1, -1}, Votes: []float64{1, 1, 1}}
	}
	slab := nn.NewSlab(append(net.Params(), head.Params()...))
	var first, last float64
	for step := 0; step < 300; step++ {
		var tree *Tree
		target := tensor.New(1, 1)
		if step%2 == 0 {
			tree = mkChain()
			target.Data[0] = 1
		} else {
			tree = mkBal()
			target.Data[0] = 0
		}
		pooled, ctx := net.Forward(tree)
		pred := sig.Forward(head.Forward(pooled, true), true)
		l := loss.Value(pred, target)
		if step < 20 {
			first += l
		}
		if step >= 280 {
			last += l
		}
		g := loss.Grad(pred, target)
		g = head.Backward(sig.Backward(g))
		net.Backward(ctx, g)
		opt.Step(slab)
	}
	if last >= first {
		t.Fatalf("structural training did not improve: first %v last %v", first, last)
	}
}
