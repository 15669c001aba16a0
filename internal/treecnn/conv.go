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
type ConvLayer struct {
	In, Out int
	Wt      *nn.Param
	Wl      *nn.Param
	Wr      *nn.Param
	B       *nn.Param

	// q is the int8-packed triangular kernel used by the quantised
	// inference path; nil until PackInt8, stale after any weight update
	// until the owner repacks (models own that lifecycle).
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

// layerState caches one forward pass for the matching backward pass.
type layerState struct {
	x      *tensor.Tensor // layer input (n, in)
	xl, xr *tensor.Tensor // gathered child features (n, in)
	mask   []bool         // ReLU mask over the (n, out) output
}

// The forward pass is decomposed into three stages shared by the training
// path (forward, which additionally records a layerState) and the
// arena-backed inference path (forwardArena):
//
//	gather   — materialise left/right child feature rows per node
//	project  — apply the triangular kernel Wt/Wl/Wr + bias
//	rectify  — ReLU
//
// project performs the additions in the exact order of the original fused
// expression (parent product, then +left product, then +right product, then
// +bias) so both paths produce byte-identical floats.

// gather copies each node's child feature rows into the pre-zeroed xl, xr.
// Absent children (index -1) keep their zero rows.
func gather(tree *Tree, x, xl, xr *tensor.Tensor) {
	n := tree.Len()
	for i := 0; i < n; i++ {
		if li := tree.Left[i]; li >= 0 {
			copy(xl.Row(i), x.Row(li))
		}
		if ri := tree.Right[i]; ri >= 0 {
			copy(xr.Row(i), x.Row(ri))
		}
	}
}

// project writes Wt·x + Wl·xl + Wr·xr + b into out, using tmp as scratch for
// the child products. out and tmp must both be (n, Out).
func (l *ConvLayer) project(out, tmp, x, xl, xr *tensor.Tensor) {
	tensor.MatMulInto(out, x, l.Wt.W)
	tensor.MatMulInto(tmp, xl, l.Wl.W)
	out.AddInPlace(tmp)
	tensor.MatMulInto(tmp, xr, l.Wr.W)
	out.AddInPlace(tmp)
	tensor.AddRowVector(out, l.B.W)
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

// Int8Ready reports whether a packed kernel is installed.
func (l *ConvLayer) Int8Ready() bool { return l.q != nil }

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
	tensor.Int8MatMulInto(pt, qx, sx.Data, mx, l.q.wt, nil, false)
	tensor.Int8MatMulInto(pl, qxl, sxl.Data, mxl, l.q.wl, nil, false)
	tensor.Int8MatMulInto(pr, qxr, sxr.Data, mxr, l.q.wr, nil, false)
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

// forward computes the layer output and returns the cache needed to
// backpropagate through this specific tree.
func (l *ConvLayer) forward(tree *Tree, x *tensor.Tensor) (*tensor.Tensor, *layerState) {
	n := tree.Len()
	xl := tensor.New(n, l.In)
	xr := tensor.New(n, l.In)
	gather(tree, x, xl, xr)
	out := tensor.New(n, l.Out)
	tmp := tensor.New(n, l.Out)
	l.project(out, tmp, x, xl, xr)

	st := &layerState{x: x, xl: xl, xr: xr, mask: make([]bool, out.Size())}
	for i, v := range out.Data {
		if v > 0 {
			st.mask[i] = true
		} else {
			out.Data[i] = 0
		}
	}
	return out, st
}

// forwardArena runs the same gather/project/rectify stages with every scratch
// tensor drawn from the arena: no heap allocation, no backward cache.
func (l *ConvLayer) forwardArena(tree *Tree, x *tensor.Tensor, a *tensor.Arena) *tensor.Tensor {
	n := tree.Len()
	xl := a.Get(n, l.In)
	xr := a.Get(n, l.In)
	gather(tree, x, xl, xr)
	out := a.Get(n, l.Out)
	tmp := a.Get(n, l.Out)
	l.project(out, tmp, x, xl, xr)
	for i, v := range out.Data {
		if !(v > 0) {
			out.Data[i] = 0
		}
	}
	return out
}

// backward accumulates parameter gradients and returns dL/dx, scattering
// child-path gradients back to the child rows.
func (l *ConvLayer) backward(tree *Tree, st *layerState, gradOut *tensor.Tensor) *tensor.Tensor {
	gz := gradOut.Clone()
	for i := range gz.Data {
		if !st.mask[i] {
			gz.Data[i] = 0
		}
	}
	l.Wt.G.AddInPlace(tensor.MatMulTransA(st.x, gz))
	l.Wl.G.AddInPlace(tensor.MatMulTransA(st.xl, gz))
	l.Wr.G.AddInPlace(tensor.MatMulTransA(st.xr, gz))
	l.B.G.AddInPlace(tensor.SumRows(gz))

	gx := tensor.MatMulTransB(gz, l.Wt.W)
	gl := tensor.MatMulTransB(gz, l.Wl.W)
	gr := tensor.MatMulTransB(gz, l.Wr.W)
	n := tree.Len()
	for i := 0; i < n; i++ {
		if li := tree.Left[i]; li >= 0 {
			dst := gx.Row(li)
			src := gl.Row(i)
			for j := range dst {
				dst[j] += src[j]
			}
		}
		if ri := tree.Right[i]; ri >= 0 {
			dst := gx.Row(ri)
			src := gr.Row(i)
			for j := range dst {
				dst[j] += src[j]
			}
		}
	}
	return gx
}

// Network is a stack of tree-convolution layers followed by vote-masked
// one-way dynamic max pooling, producing one fixed-width vector per tree.
type Network struct {
	Layers []*ConvLayer
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

// Context carries the per-tree caches between Forward and Backward.
type Context struct {
	states []*layerState
	t      *Tree
	argmax []int // per output dim, node index that won the pooling max (-1 none)
}

// pool performs vote-masked dynamic max pooling of the (t.Len(), OutDim)
// activations x into the pre-zeroed (1, OutDim) out. When argmax is non-nil
// it records, per output dim, the node index that won the max (-1 if no node
// votes) for the backward pass.
func (n *Network) pool(t *Tree, x, out *tensor.Tensor, argmax []int) {
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
			argmax[d] = bestI
		}
	}
}

// Forward runs the conv stack over one tree and pools the voted nodes,
// returning a (1, OutDim) vector and the backward context.
func (n *Network) Forward(t *Tree) (*tensor.Tensor, *Context) {
	ctx := &Context{t: t}
	x := t.Feats
	for _, l := range n.Layers {
		var st *layerState
		x, st = l.forward(t, x)
		ctx.states = append(ctx.states, st)
	}
	out := tensor.New(1, n.OutDim())
	ctx.argmax = make([]int, n.OutDim())
	n.pool(t, x, out, ctx.argmax)
	return out, ctx
}

// ForwardInference runs the conv stack and pooling entirely inside the arena,
// producing byte-identical values to Forward with zero heap allocation. The
// returned tensor aliases arena memory and is only valid until the next
// arena Reset.
func (n *Network) ForwardInference(t *Tree, a *tensor.Arena) *tensor.Tensor {
	x := t.Feats
	for _, l := range n.Layers {
		x = l.forwardArena(t, x, a)
	}
	out := a.Get(1, n.OutDim())
	n.pool(t, x, out, nil)
	return out
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

// Int8Ready reports whether every layer has a packed kernel installed.
func (n *Network) Int8Ready() bool {
	for _, l := range n.Layers {
		if !l.Int8Ready() {
			return false
		}
	}
	return len(n.Layers) > 0
}

// ForwardInferenceInt8 runs the quantised conv stack and the (float) pooling
// inside the arena, returning the pooled vector and the max activation
// quantisation error observed across the layers. Outputs carry a bounded
// quantisation error relative to ForwardInference; pooling itself is exact,
// so cached pooled vectors remain self-consistent for a given kernel mode
// and weight generation.
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

// Backward propagates a (1, OutDim) gradient through the pooling and conv
// stack, accumulating parameter gradients.
func (n *Network) Backward(ctx *Context, grad *tensor.Tensor) {
	t := ctx.t
	gx := tensor.New(t.Len(), n.OutDim())
	for d := 0; d < n.OutDim(); d++ {
		if i := ctx.argmax[d]; i >= 0 {
			gx.Data[i*n.OutDim()+d] = grad.Data[d]
		}
	}
	for li := len(n.Layers) - 1; li >= 0; li-- {
		gx = n.Layers[li].backward(t, ctx.states[li], gx)
	}
}
