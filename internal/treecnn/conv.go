package treecnn

import (
	"math"

	"prestroid/internal/nn"
	"prestroid/internal/tensor"
)

// ConvLayer is one tree convolution: for every node i with children l, r,
//
//	y_i = ReLU(Wt·x_i + Wl·x_l + Wr·x_r + b)
//
// with missing children contributing zero. The (Wt, Wl, Wr) triple is the
// triangular kernel slid breadth-first across the tree.
//
// What the layer's input is decides how it is computed, in both directions.
// The first layer reads the tree's feature rows, which are indexed once at
// featurization and almost entirely zero: forward gathers rows of Wt/Wl/Wr
// through the index, backward scatters dWt/dWl/dWr through it and computes no
// input gradient (nothing is upstream of the features). Every later layer
// reads rectified activations, about half dense, and every product there is
// one tensor.AccumRows call that adds its sum, formed on its own from +0,
// straight into its destination row: forward adds each node's parent and
// child products into the node's output row, backward adds each weight row's
// sum over the nodes into G and each product over the transposed weights
// (Transposed) into an input-gradient row. Either way each output and each
// gradient element is built by the additions of the dense three-GEMM
// formulation in that formulation's order, less only additions of a zero that
// cannot change the sum, so the bits are the same (dense_ref_test.go keeps
// that formulation as the oracle).
type ConvLayer struct {
	In, Out int
	Wt      *nn.Param
	Wl      *nn.Param
	Wr      *nn.Param
	B       *nn.Param

	// q is the int8-packed triangular kernel used by the quantised
	// inference path; nil until PackInt8, stale after any weight update
	// until PackInt8 runs again.
	q *int8Kernel
}

// int8Kernel is the column-quantised form of one layer's (Wt, Wl, Wr).
type int8Kernel struct {
	wt, wl, wr *tensor.Int8Matrix
}

// NewConvLayer returns a tree-convolution layer with Glorot initialisation.
func NewConvLayer(in, out int, rng *tensor.RNG) *ConvLayer {
	l := &ConvLayer{
		In: in, Out: out,
		Wt: nn.NewParam("tconv.wt", in, out),
		Wl: nn.NewParam("tconv.wl", in, out),
		Wr: nn.NewParam("tconv.wr", in, out),
		B:  nn.NewParam("tconv.b", out),
	}
	rng.GlorotUniform(l.Wt.W, in, out)
	rng.GlorotUniform(l.Wl.W, in, out)
	rng.GlorotUniform(l.Wr.W, in, out)
	return l
}

// Params returns the triangular kernel and bias.
func (l *ConvLayer) Params() []*nn.Param { return []*nn.Param{l.Wt, l.Wl, l.Wr, l.B} }

// addRow adds src into dst element-wise.
func addRow(dst, src []float64) {
	for j, v := range src {
		dst[j] += v
	}
}

// gatherRows sets orow to Σ_c xrow[c]·w[c,:] over the listed columns, in
// column order from +0 — tensor.AccumRows with the zero tests already
// answered by the index.
func gatherRows(orow, xrow []float64, cols []int32, w *tensor.Tensor) {
	n := len(orow)
	clear(orow)
	for _, c := range cols {
		av := xrow[c]
		wrow := w.Data[int(c)*n : (int(c)+1)*n]
		for j, wv := range wrow {
			orow[j] += av * wv
		}
	}
}

// project writes every node's output ReLU(Wt·x_i + Wl·x_l + Wr·x_r + b) into
// out, whose rows are +0: the parent product is added into the output row,
// which leaves it that product exactly, then each present child's product,
// then the bias — per element, the additions of the dense three-GEMM
// formulation in its order — and the row is rectified while the bias goes in.
// An absent child would add a row of +0, which cannot change a sum that
// started from +0, so it is skipped. product(dst, i, w) adds node i's input
// row times w, formed on its own from +0, into dst.
func (l *ConvLayer) project(out *tensor.Tensor, tree *Tree, product func(dst []float64, i int, w *tensor.Tensor)) {
	bias := l.B.W.Data
	for i := range tree.Left {
		orow := out.Row(i)
		product(orow, i, l.Wt.W)
		if li := tree.Left[i]; li >= 0 {
			product(orow, li, l.Wl.W)
		}
		if ri := tree.Right[i]; ri >= 0 {
			product(orow, ri, l.Wr.W)
		}
		// About half the outputs are positive, in no pattern a branch
		// predictor learns, so ReLU picks on the bits (a conditional move).
		orow = orow[:len(bias)]
		for j, b := range bias {
			v := orow[j] + b
			bits := math.Float64bits(v)
			if !(v > 0) {
				bits = 0
			}
			orow[j] = math.Float64frombits(bits)
		}
	}
}

// PackInt8 (re)quantises the triangular kernel for the int8 inference
// path, returning the max absolute weight round-trip error across the three
// matrices. The bias stays float: it is added after dequantisation, exactly
// like the float path.
func (l *ConvLayer) PackInt8() float64 {
	q := &int8Kernel{
		wt: tensor.QuantizeColumns(l.Wt.W),
		wl: tensor.QuantizeColumns(l.Wl.W),
		wr: tensor.QuantizeColumns(l.Wr.W),
	}
	l.q = q
	maxErr := q.wt.MaxErr
	if q.wl.MaxErr > maxErr {
		maxErr = q.wl.MaxErr
	}
	if q.wr.MaxErr > maxErr {
		maxErr = q.wr.MaxErr
	}
	return maxErr
}

// forwardArenaInt8 is the quantised inference pass. It quantises each input
// row once (per-row scale, int8 magnitudes), then runs the three kernel
// matrices as int8 GEMMs: Wt over all n rows, Wl and Wr over *compacted*
// child rows only — each node has at most one parent, so a node's features
// are consumed by at most one left slot and one right slot, and gathering
// the already-quantised rows (k bytes each) into dense operands costs a
// fraction of the projections it avoids. The compact projections are laid
// out in node order of the consuming parent, so the combine pass walks them
// with a pair of cursors instead of an index table. The GEMMs go through
// tensor.Int8MatMulInto, so they use the SWAR kernel and shard rows across
// the shared worker budget at paper-scale widths. Alongside the output it
// reports the max absolute activation quantisation error on this input.
// PackInt8 must have run since the last weight change.
func (l *ConvLayer) forwardArenaInt8(tree *Tree, x *tensor.Tensor, a *tensor.Arena) (*tensor.Tensor, float64) {
	n := tree.Len()
	k := l.In
	qx := a.GetI8(n * k)
	sx := a.Get(n)
	mx := a.GetI32(2 * n)
	qerr := tensor.QuantizeRowsInto(qx, sx.Data, mx, x)
	nl, nr := 0, 0
	for i := 0; i < n; i++ {
		if tree.Left[i] >= 0 {
			nl++
		}
		if tree.Right[i] >= 0 {
			nr++
		}
	}
	qxl := a.GetI8(nl * k)
	qxr := a.GetI8(nr * k)
	sxl := a.Get(nl)
	sxr := a.Get(nr)
	mxl := a.GetI32(2 * nl)
	mxr := a.GetI32(2 * nr)
	c, d := 0, 0
	for i := 0; i < n; i++ {
		if li := tree.Left[i]; li >= 0 {
			copy(qxl[c*k:(c+1)*k], qx[li*k:(li+1)*k])
			sxl.Data[c] = sx.Data[li]
			mxl[2*c], mxl[2*c+1] = mx[2*li], mx[2*li+1]
			c++
		}
		if ri := tree.Right[i]; ri >= 0 {
			copy(qxr[d*k:(d+1)*k], qx[ri*k:(ri+1)*k])
			sxr.Data[d] = sx.Data[ri]
			mxr[2*d], mxr[2*d+1] = mx[2*ri], mx[2*ri+1]
			d++
		}
	}
	pt := a.Get(n, l.Out)
	pl := a.Get(nl, l.Out)
	pr := a.Get(nr, l.Out)
	tensor.Int8MatMulInto(pt, qx, sx.Data, mx, l.q.wt)
	tensor.Int8MatMulInto(pl, qxl, sxl.Data, mxl, l.q.wl)
	tensor.Int8MatMulInto(pr, qxr, sxr.Data, mxr, l.q.wr)
	out := a.Get(n, l.Out)
	bias := l.B.W.Data
	c, d = 0, 0
	for i := 0; i < n; i++ {
		row := out.Row(i)
		trow := pt.Row(i)
		var lrow, rrow []float64
		if tree.Left[i] >= 0 {
			lrow = pl.Row(c)
			c++
		}
		if tree.Right[i] >= 0 {
			rrow = pr.Row(d)
			d++
		}
		for j := range row {
			v := bias[j] + trow[j]
			if lrow != nil {
				v += lrow[j]
			}
			if rrow != nil {
				v += rrow[j]
			}
			if !(v > 0) {
				v = 0
			}
			row[j] = v
		}
	}
	return out, qerr
}

// forward computes the layer output for input x over tree. The output comes
// from keep, per-call scratch from scratch; either may be nil for the heap,
// and inference passes the same arena twice. x being the tree's own feature
// tensor is what selects products gathered through nz, each formed in an
// Out-wide scratch row and then added; any other input is an activation
// matrix, and each product is one tensor.AccumRows call.
func (l *ConvLayer) forward(tree *Tree, nz rowIndex, x *tensor.Tensor, keep, scratch *tensor.Arena) *tensor.Tensor {
	out := keep.Get(tree.Len(), l.Out)
	if x == tree.Feats {
		tmp := scratch.Get(l.Out).Data
		l.project(out, tree, func(dst []float64, i int, w *tensor.Tensor) {
			gatherRows(tmp, x.Row(i), nz.row(i), w)
			addRow(dst, tmp)
		})
	} else {
		l.project(out, tree, func(dst []float64, i int, w *tensor.Tensor) {
			tensor.AccumRows(dst, x.Row(i), w.Data)
		})
	}
	return out
}

// inputGrad returns dL/dx (n, In) in keep for the layer's pre-activation
// gradient gz: each node's gz row times Wtᵀ added into its own +0 row, then,
// in node order, its gz row times Wlᵀ (Wrᵀ) added into its left (right)
// child's row. Each product is one tensor.AccumRows call over wT, the layer's
// transposed weights, that forms its sum from +0 and adds it into gx's row;
// it skips the zero entries pooling and the ReLU masks leave in most of gz: a
// zero entry would add a ±0 product (the weights being finite), which cannot
// change a sum that started from +0. It reads wT only, so trees
// back-propagate concurrently.
func (l *ConvLayer) inputGrad(tree *Tree, gz *tensor.Tensor, wT [3]*tensor.Tensor, keep *tensor.Arena) *tensor.Tensor {
	n := tree.Len()
	gx := keep.Get(n, l.In)
	for i := 0; i < n; i++ {
		tensor.AccumRows(gx.Row(i), gz.Row(i), wT[paramWt].Data)
	}
	for i := 0; i < n; i++ {
		if li := tree.Left[i]; li >= 0 {
			tensor.AccumRows(gx.Row(li), gz.Row(i), wT[paramWl].Data)
		}
		if ri := tree.Right[i]; ri >= 0 {
			tensor.AccumRows(gx.Row(ri), gz.Row(i), wT[paramWr].Data)
		}
	}
	return gx
}

// The weight gradient of one tree is xᵀ·gz for Wt and the same with each row
// of x replaced by the node's left (right) child row for Wl (Wr): per weight
// row, the sum over the tree's nodes in node order, formed on its own from
// +0, and only then added into G. The two accumulators below compute exactly
// that for rows [lo,hi) of one matrix, so G can be split between owners by
// row. child is nil for Wt, tree.Left for Wl, tree.Right for Wr.

// inputRow is the row of x that node p multiplies: its own, or its child's
// (-1 when the child is absent).
func inputRow(child []int, p int) int {
	if child == nil {
		return p
	}
	return child[p]
}

// accumDense is the accumulator for an activation input. Each weight row's
// input column, in node order (0 for an absent child), is first laid out
// contiguously in scratch — all of [lo,hi) in one pass over the nodes' rows;
// then per row one tensor.AccumRows call sums the column against gz's rows
// from +0 and adds the sum straight into G's row. A row no node feeds (its
// input column is all zero, as half of a rectified layer's are) would add
// +0s and is skipped.
func accumDense(g, x *tensor.Tensor, child []int, gz *tensor.Tensor, lo, hi int, a *tensor.Arena) {
	in, n, out := x.Shape[1], gz.Shape[0], gz.Shape[1]
	cols := a.Get((hi - lo) * n).Data
	for p := 0; p < n; p++ {
		if q := inputRow(child, p); q >= 0 {
			for c, v := range x.Data[q*in+lo : q*in+hi] {
				cols[c*n+p] = v
			}
		}
	}
rows:
	for i := lo; i < hi; i++ {
		col := cols[(i-lo)*n : (i-lo+1)*n]
		for _, v := range col {
			if v != 0 {
				tensor.AccumRows(g.Data[i*out:(i+1)*out], col, gz.Data)
				continue rows
			}
		}
	}
}

// accumSparse is the accumulator for the indexed feature rows: only weight
// rows some node's index lists are touched. Each touched row gets a slot in
// a compact scratch block on first sight, sums there in node order, and is
// added into G at the end; the untouched rows would have received +0, which
// cannot change a gradient that started from +0.
func accumSparse(g, x *tensor.Tensor, nz rowIndex, child []int, gz *tensor.Tensor, lo, hi int, a *tensor.Arena) {
	out := gz.Shape[1]
	slot := a.GetI32(hi - lo)
	for i := range slot {
		slot[i] = -1
	}
	rows := min(hi-lo, nz.entries())
	touched := a.GetI32(rows)[:0]
	acc := a.Get(rows, out).Data
	for p := 0; p < gz.Shape[0]; p++ {
		q := inputRow(child, p)
		if q < 0 {
			continue
		}
		xrow, grow := x.Row(q), gz.Row(p)
		for _, c := range nz.row(q) {
			if int(c) < lo || int(c) >= hi {
				continue
			}
			s := slot[int(c)-lo]
			if s < 0 {
				s = int32(len(touched))
				slot[int(c)-lo] = s
				touched = append(touched, c)
			}
			av := xrow[c]
			arow := acc[int(s)*out : (int(s)+1)*out]
			for j, gv := range grow {
				arow[j] += av * gv
			}
		}
	}
	for s, c := range touched {
		addRow(g.Data[int(c)*out:(int(c)+1)*out], acc[s*out:(s+1)*out])
	}
}

// accumBias adds gz's column sums, formed on their own first, into g.
func accumBias(g, gz *tensor.Tensor, a *tensor.Arena) {
	out := gz.Shape[1]
	tmp := a.Get(out).Data
	for p := 0; p < gz.Shape[0]; p++ {
		addRow(tmp, gz.Row(p))
	}
	addRow(g.Data, tmp)
}

// Network is a stack of tree-convolution layers followed by vote-masked
// one-way dynamic max pooling, producing one fixed-width vector per tree.
type Network struct {
	Layers []*ConvLayer

	wT Transposed // Backward's transposes, remade (not reallocated) per call
}

// NewNetwork builds a conv stack with the given widths, e.g.
// NewNetwork(feat, []int{512, 512, 512}, rng) for the paper's Grab-Traces
// architecture.
func NewNetwork(inDim int, widths []int, rng *tensor.RNG) *Network {
	net := &Network{}
	prev := inDim
	for _, w := range widths {
		net.Layers = append(net.Layers, NewConvLayer(prev, w, rng))
		prev = w
	}
	return net
}

// OutDim returns the pooled output width.
func (n *Network) OutDim() int { return n.Layers[len(n.Layers)-1].Out }

// Params returns all layer parameters.
func (n *Network) Params() []*nn.Param {
	var ps []*nn.Param
	for _, l := range n.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// Context carries one tree's forward pass to its backward pass: the tree and
// its index, every layer's input and output, and the pooling winners. The
// ReLU mask is not stored — an output is positive exactly where the mask was
// set. A Context may be reused for another tree once its step is over.
type Context struct {
	t      *Tree
	nz     rowIndex
	acts   []*tensor.Tensor // acts[0] = t.Feats, acts[k+1] = layer k's output
	gz     []*tensor.Tensor // per layer, dL/d(pre-activation); set by backwardInputs
	argmax []int32          // per output dim, node that won the pooling max (-1 none)
}

// pool performs vote-masked dynamic max pooling of the (t.Len(), OutDim)
// activations x into the pre-zeroed (1, OutDim) out. When argmax is non-nil
// it records, per output dim, the node index that won the max (-1 if no node
// votes) for the backward pass.
func (n *Network) pool(t *Tree, x, out *tensor.Tensor, argmax []int32) {
	od := n.OutDim()
	for d := 0; d < od; d++ {
		best := math.Inf(-1)
		bestI := -1
		for i := 0; i < t.Len(); i++ {
			if t.Votes[i] <= 0 {
				continue
			}
			if v := x.Data[i*od+d]; v > best {
				best = v
				bestI = i
			}
		}
		if bestI >= 0 {
			out.Data[d] = best
		}
		if argmax != nil {
			argmax[d] = int32(bestI)
		}
	}
}

// forward is the one implementation behind Forward, ForwardTrain and
// ForwardInference: the conv stack over one tree, then pooling, returning the
// (1, OutDim) pooled vector. Everything that must outlive the call — the
// pooled vector and, when ctx is non-nil, what Backward needs — comes from
// keep; per-layer scratch comes from scratch. A nil arena is the heap.
func (n *Network) forward(t *Tree, ctx *Context, keep, scratch *tensor.Arena) *tensor.Tensor {
	nz := t.index(keep)
	x := t.Feats
	if ctx != nil {
		ctx.t, ctx.nz = t, nz
		ctx.acts = append(ctx.acts[:0], x)
	}
	for _, l := range n.Layers {
		x = l.forward(t, nz, x, keep, scratch)
		if ctx != nil {
			ctx.acts = append(ctx.acts, x)
		}
	}
	out := keep.Get(1, n.OutDim())
	var argmax []int32
	if ctx != nil {
		ctx.argmax = keep.GetI32(n.OutDim())
		argmax = ctx.argmax
	}
	n.pool(t, x, out, argmax)
	return out
}

// Forward runs the conv stack over one tree and pools the voted nodes,
// returning a (1, OutDim) vector and the backward context, all on the heap.
func (n *Network) Forward(t *Tree) (*tensor.Tensor, *Context) {
	ctx := &Context{}
	return n.forward(t, ctx, nil, nil), ctx
}

// ForwardTrain is Forward for a training step that owns its memory: the
// pooled vector and everything ctx records live in keep until the step
// resets it, and scratch may be reset as soon as the call returns. Values
// are byte-identical to Forward's.
func (n *Network) ForwardTrain(t *Tree, ctx *Context, keep, scratch *tensor.Arena) *tensor.Tensor {
	return n.forward(t, ctx, keep, scratch)
}

// ForwardInference runs the conv stack and pooling entirely inside the arena,
// producing byte-identical values to Forward with zero heap allocation. The
// returned tensor aliases arena memory and is only valid until the next
// arena Reset.
func (n *Network) ForwardInference(t *Tree, a *tensor.Arena) *tensor.Tensor {
	return n.forward(t, nil, a, a)
}

// PackInt8 (re)quantises every layer's triangular kernel, returning the max
// weight round-trip error across the stack. Must be called again after any
// weight change before using ForwardInferenceInt8.
func (n *Network) PackInt8() float64 {
	maxErr := 0.0
	for _, l := range n.Layers {
		if e := l.PackInt8(); e > maxErr {
			maxErr = e
		}
	}
	return maxErr
}

// ForwardInferenceInt8 runs the quantised conv stack and the (float) pooling
// inside the arena, returning the pooled vector and the max activation
// quantisation error observed across the layers. Outputs carry a bounded
// quantisation error relative to ForwardInference; pooling itself is exact.
//
// Nothing in the daemon calls it: serving runs ForwardInference only. It and
// PackInt8, the layers' int8Kernel and tensor's int8 kernels stay for one
// caller, the repository benchmark's treecnn.infer_int8_us_per_tree rung
// (benchmark/trace_serving.go), and go when that rung is dropped.
func (n *Network) ForwardInferenceInt8(t *Tree, a *tensor.Arena) (*tensor.Tensor, float64) {
	x := t.Feats
	maxErr := 0.0
	for _, l := range n.Layers {
		var e float64
		x, e = l.forwardArenaInt8(t, x, a)
		if e > maxErr {
			maxErr = e
		}
	}
	out := a.Get(1, n.OutDim())
	n.pool(t, x, out, nil)
	return out, maxErr
}

// The backward pass of a training step has two halves, split so that a whole
// batch can back-propagate in parallel and still add into every gradient
// element in batch order. BackwardInputs pulls the pooled gradient down one
// tree's stack, reading weights only, and leaves each layer's pre-activation
// gradient in the Context; any number of trees can do that at once.
// AccumulateGrad then adds one tree's contribution to one GradTask's share of
// the parameter gradients. An owner that walks the batch's trees in order for
// its task performs, on each element of G it owns, the additions a serial
// tree-by-tree Backward performs, in the same order — whatever the number of
// owners.

// Transposed is the form in which BackwardInputs reads the weights: per
// layer, Wtᵀ, Wlᵀ and Wrᵀ, each (Out, In), so that a node's gradient row times
// a transposed weight is one tensor.AccumRows call. The first layer has no
// input gradient and no entry. Network.Transpose makes it from the weights as
// they are, and any weight change leaves it stale: a training step makes it
// once, after its forward pass, and every tree of the step reads it.
type Transposed [][3]*tensor.Tensor

// Transpose returns the network's current weights in the form BackwardInputs
// reads, in dst's tensors when dst is an earlier Transpose of this network
// (nil allocates).
func (n *Network) Transpose(dst Transposed) Transposed {
	if dst == nil {
		dst = make(Transposed, len(n.Layers))
	}
	for li, l := range n.Layers[1:] {
		for p, w := range [...]*nn.Param{l.Wt, l.Wl, l.Wr} {
			if dst[li+1][p] == nil {
				dst[li+1][p] = tensor.New(l.Out, l.In)
			}
			tensor.TransposeInto(dst[li+1][p], w.W)
		}
	}
	return dst
}

// BackwardInputs propagates grad — dL/d(pooled), OutDim values — through the
// pooling and down the conv stack, recording per layer the gradient at its
// pre-activation. wT must hold the network's current weights. It writes
// nothing but ctx. The recorded gradients live in keep. Every input-gradient
// product adds straight into a keep row, so nothing is drawn from scratch;
// it is taken beside keep as ForwardTrain takes it, and may be reset when the
// call returns.
func (n *Network) BackwardInputs(ctx *Context, grad []float64, wT Transposed, keep, scratch *tensor.Arena) {
	t := ctx.t
	od := n.OutDim()
	last := len(n.Layers) - 1
	for len(ctx.gz) <= last {
		ctx.gz = append(ctx.gz, nil)
	}
	gz := keep.Get(t.Len(), od)
	for d, i := range ctx.argmax {
		if i >= 0 {
			gz.Data[int(i)*od+d] = grad[d]
		}
	}
	for li := last; li >= 0; li-- {
		// ReLU: the gradient passes where the layer's output is positive.
		// About half the outputs are, in no pattern a branch predictor
		// learns, so the choice is made on the bits (a conditional move).
		grads := gz.Data
		acts := ctx.acts[li+1].Data[:len(grads)]
		for i, g := range grads {
			b := math.Float64bits(g)
			if !(acts[i] > 0) {
				b = 0
			}
			grads[i] = math.Float64frombits(b)
		}
		ctx.gz[li] = gz
		if li > 0 {
			// Layer 0 reads the features; nothing is upstream of them.
			gz = n.Layers[li].inputGrad(t, gz, wT[li], keep)
		}
	}
}

// GradTask names one owner's share of the parameter gradients: rows [lo,hi)
// of one layer's Wt, Wl or Wr, or its whole bias. GradTasks makes them.
type GradTask struct {
	layer, param, lo, hi int
}

// The parameters of a layer a GradTask can name.
const (
	paramWt = iota
	paramWl
	paramWr
	paramBias
)

// GradTasks partitions every parameter gradient of the network into tasks,
// splitting the activation-fed weight matrices into up to parts row blocks
// of at least eight rows. The feature-fed first layer's scatter is a sliver
// of the work and stays whole.
func (n *Network) GradTasks(parts int) []GradTask {
	var tasks []GradTask
	for li, l := range n.Layers {
		blocks := 1
		if li > 0 {
			blocks = max(1, min(parts, l.In/8))
		}
		for _, param := range [...]int{paramWt, paramWl, paramWr} {
			for b := 0; b < blocks; b++ {
				tasks = append(tasks, GradTask{layer: li, param: param, lo: b * l.In / blocks, hi: (b + 1) * l.In / blocks})
			}
		}
		tasks = append(tasks, GradTask{layer: li, param: paramBias})
	}
	return tasks
}

// AccumulateGrad adds ctx's tree's contribution to the task's share of the
// parameter gradients. BackwardInputs must have run on ctx. Tasks own
// disjoint memory, so different tasks may run concurrently; within a task,
// trees must be fed in batch order. a is scratch, resettable on return.
func (n *Network) AccumulateGrad(task GradTask, ctx *Context, a *tensor.Arena) {
	l := n.Layers[task.layer]
	gz := ctx.gz[task.layer]
	var g *tensor.Tensor
	var child []int
	switch task.param {
	case paramBias:
		accumBias(l.B.G, gz, a)
		return
	case paramWt:
		g = l.Wt.G
	case paramWl:
		g, child = l.Wl.G, ctx.t.Left
	case paramWr:
		g, child = l.Wr.G, ctx.t.Right
	}
	if x := ctx.acts[task.layer]; x == ctx.t.Feats {
		accumSparse(g, x, ctx.nz, child, gz, task.lo, task.hi, a)
	} else {
		accumDense(g, x, child, gz, task.lo, task.hi, a)
	}
}

// Backward propagates a (1, OutDim) gradient through the pooling and conv
// stack of one tree, accumulating parameter gradients: Transpose,
// BackwardInputs, then every task over that one tree, on the heap. The
// transposes are made for this one tree; a batch makes them once for all of
// its trees (see TrainBatch in package models).
func (n *Network) Backward(ctx *Context, grad *tensor.Tensor) {
	n.wT = n.Transpose(n.wT)
	n.BackwardInputs(ctx, grad.Data, n.wT, nil, nil)
	for _, task := range n.GradTasks(1) {
		n.AccumulateGrad(task, ctx, nil)
	}
}
