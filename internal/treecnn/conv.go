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
// Where the layer sits in the stack decides how it is computed, in both
// directions. The first layer reads the tree's feature rows, which are
// almost entirely zero and indexed once at featurization, values included,
// so it reads the index alone: forward gathers rows of Wt/Wl/Wr through it,
// backward sorts the forest's index entries by weight row and scatters
// dWt/dWl/dWr through them, and computes no input gradient (nothing is
// upstream of the features). Every later layer reads rectified
// activations, about half dense, and every product there is one tensor
// kernel call that adds its sum, formed on its own from +0, straight into its
// destination row: forward adds each node's parent and child products into
// the node's output row (tensor.AccumRows), backward adds each product over
// the transposed weights (Transposed) into an input-gradient row, and each
// weight row's per-tree sums over a whole forest into G with one
// tensor.AccumSegments call whose segments are the trees. Either way each
// output and each gradient element is built by the additions of the dense
// three-GEMM formulation in that formulation's order, tree after tree, less
// only additions of a zero that cannot change the sum, so the bits are the
// same (dense_ref_test.go keeps that formulation as the oracle).
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

// Params returns the triangular kernel and bias, in the order of the
// GradTask param constants (Network.Span counts on it).
func (l *ConvLayer) Params() []*nn.Param { return []*nn.Param{l.Wt, l.Wl, l.Wr, l.B} }

// weight returns the kernel matrix a GradTask's param names.
func (l *ConvLayer) weight(param int) *nn.Param {
	return [...]*nn.Param{l.Wt, l.Wl, l.Wr}[param]
}

// addRow adds src into dst element-wise.
func addRow(dst, src []float64) {
	for j, v := range src {
		dst[j] += v
	}
}

// gatherRows sets orow to Σ_k vals[k]·w[cols[k],:] over one row's index
// entries, in column order from +0 — tensor.AccumRows over the dense row
// with the zero tests already answered by the index.
func gatherRows(orow []float64, cols []int32, vals []float64, w *tensor.Tensor) {
	n := len(orow)
	clear(orow)
	for k, c := range cols {
		av := vals[k]
		wrow := w.Data[int(c)*n : (int(c)+1)*n]
		for j, wv := range wrow {
			orow[j] += av * wv
		}
	}
}

// project writes every node's output ReLU(Wt·x_i + Wl·x_l + Wr·x_r + b) into
// out's rows [off, off+n), which are +0: the parent product is added into the
// output row,
// which leaves it that product exactly, then each present child's product,
// then the bias — per element, the additions of the dense three-GEMM
// formulation in its order — and the row is rectified while the bias goes in.
// An absent child would add a row of +0, which cannot change a sum that
// started from +0, so it is skipped. product(dst, i, w) adds node i's input
// row times w, formed on its own from +0, into dst.
func (l *ConvLayer) project(out *tensor.Tensor, off int, tree *Tree, product func(dst []float64, i int, w *tensor.Tensor)) {
	bias := l.B.W.Data
	for i := range tree.Left {
		orow := out.Row(off + i)
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
// tensor.Int8MatMulInto, so they use the SWAR kernel and run row blocks
// through tensor.Each at paper-scale widths. Alongside the output it
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

// forward writes the layer's output for tree into out's rows [off, off+n),
// clearing them first; scratch (nil for the heap) serves the call. A nil x
// is the first layer's input, the tree's features, read through their index
// nz alone: each product is gathered in an Out-wide scratch row and then
// added. Any other x is an activation matrix whose rows [off, off+n) are the
// tree's, and each product is one tensor.AccumRows call.
func (l *ConvLayer) forward(out *tensor.Tensor, off int, tree *Tree, nz rowIndex, x *tensor.Tensor, scratch *tensor.Arena) {
	clear(out.Data[off*l.Out : (off+tree.Len())*l.Out])
	if x == nil {
		tmp := scratch.Get(l.Out).Data
		l.project(out, off, tree, func(dst []float64, i int, w *tensor.Tensor) {
			cols, vals := nz.row(i)
			gatherRows(tmp, cols, vals, w)
			addRow(dst, tmp)
		})
	} else {
		l.project(out, off, tree, func(dst []float64, i int, w *tensor.Tensor) {
			tensor.AccumRows(dst, x.Row(off+i), w.Data)
		})
	}
}

// inputGrad writes dL/dx for tree into gx's rows [off, off+n), which are +0,
// from the layer's pre-activation gradient gz (the same rows): each node's
// gz row times Wtᵀ added into its own row, then, in node order, its gz row
// times Wlᵀ (Wrᵀ) added into its left (right) child's row. Each product is
// one tensor.AccumRows call over wT, the layer's transposed weights, that
// forms its sum from +0 and adds it into gx's row; it skips the zero entries
// pooling and the ReLU masks leave in most of gz: a zero entry would add a ±0
// product (the weights being finite), which cannot change a sum that started
// from +0. It reads wT only, so trees back-propagate concurrently.
func (l *ConvLayer) inputGrad(gx *tensor.Tensor, off int, tree *Tree, gz *tensor.Tensor, wT [3]*tensor.Tensor) {
	n := tree.Len()
	for i := off; i < off+n; i++ {
		tensor.AccumRows(gx.Row(i), gz.Row(i), wT[paramWt].Data)
	}
	for i := 0; i < n; i++ {
		if li := tree.Left[i]; li >= 0 {
			tensor.AccumRows(gx.Row(off+li), gz.Row(off+i), wT[paramWl].Data)
		}
		if ri := tree.Right[i]; ri >= 0 {
			tensor.AccumRows(gx.Row(off+ri), gz.Row(off+i), wT[paramWr].Data)
		}
	}
}

// The weight gradient of a forest is, for Wt, xᵀ·gz summed tree by tree, and
// the same with each row of x replaced by the node's left (right) child row
// for Wl (Wr): per weight row and per tree, the sum over the tree's nodes in
// node order, formed on its own from +0, and only then added into G, tree
// after tree. The two accumulators below compute exactly that for rows
// [lo,hi) of one matrix, so G can be split between owners by row. A tree
// that feeds a row nothing would add +0 there, which cannot change a
// gradient that started from +0 and has only received sums from +0 (such a
// sum is never −0), so whether it is added makes no difference.

// children is the child map a weight's input rows follow: nil for Wt (a
// node's own row), the tree's Left for Wl, its Right for Wr.
func children(t *Tree, param int) []int {
	switch param {
	case paramWl:
		return t.Left
	case paramWr:
		return t.Right
	}
	return nil
}

// inputRow is the row of x that node p multiplies: its own, or its child's
// (-1 when the child is absent).
func inputRow(child []int, p int) int {
	if child == nil {
		return p
	}
	return child[p]
}

// accumDense is the accumulator for an activation input. It takes [lo,hi)
// sixteen weight rows at a time: their input columns over the whole forest,
// in node order (0 for an absent child), are first laid out contiguously in
// scratch in one pass over the nodes' rows; then per row one
// tensor.AccumSegments call, whose segments are the trees, sums the column
// against gz's rows tree by tree from +0 and adds each tree's sum straight
// into G's row.
func accumDense(g, x *tensor.Tensor, ctx *Context, param int, gz *tensor.Tensor, lo, hi int, a *tensor.Arena) {
	const block = 16
	in, n, out := x.Shape[1], gz.Shape[0], gz.Shape[1]
	// Every block writes the same positions, those of the present children,
	// so an absent child's stay at the arena's +0.
	cols := a.Get(min(block, hi-lo) * n).Data
	for blo := lo; blo < hi; blo += block {
		bhi := min(blo+block, hi)
		off := 0
		for ti, t := range ctx.trees {
			child := children(t, param)
			for p := range t.Left {
				if q := inputRow(child, p); q >= 0 {
					q += off
					j := off + p
					for _, v := range x.Data[q*in+blo : q*in+bhi] {
						cols[j] = v
						j += n
					}
				}
			}
			off = ctx.ends[ti]
		}
		for i := blo; i < bhi; i++ {
			tensor.AccumSegments(g.Data[i*out:(i+1)*out], cols[(i-blo)*n:(i-blo+1)*n], gz.Data, ctx.ends)
		}
	}
}

// accumSparse is the accumulator for the indexed feature rows, which it
// reads from the index alone: only weight rows some node's index lists are
// touched. A counting sort lays the
// forest's index entries in [lo,hi) out by weight row, each row's in node
// order; then per row each tree's run of entries is summed from +0 in an
// Out-wide scratch row and added into G when the tree changes.
func accumSparse(g *tensor.Tensor, ctx *Context, param int, gz *tensor.Tensor, lo, hi int, a *tensor.Arena) {
	out := gz.Shape[1]
	// at[r+1] counts row lo+r's entries; the prefix sum turns at[r] into the
	// row's first slot, and filling the slots moves it to one past its last.
	at := a.GetI32(hi - lo + 1)
	clear(at)
	for ti, t := range ctx.trees {
		child := children(t, param)
		for p := range t.Left {
			if q := inputRow(child, p); q >= 0 {
				cols, _ := ctx.nz[ti].row(q)
				for _, c := range cols {
					if r := int(c) - lo; r >= 0 && r < hi-lo {
						at[r+1]++
					}
				}
			}
		}
	}
	for r := 1; r < len(at); r++ {
		at[r] += at[r-1]
	}
	total := int(at[len(at)-1])
	node, tree := a.GetI32(total), a.GetI32(total)
	val := a.Get(total).Data
	off := 0
	for ti, t := range ctx.trees {
		child := children(t, param)
		for p := range t.Left {
			if q := inputRow(child, p); q >= 0 {
				cols, vals := ctx.nz[ti].row(q)
				for e, c := range cols {
					if r := int(c) - lo; r >= 0 && r < hi-lo {
						k := at[r]
						node[k], tree[k], val[k] = int32(off+p), int32(ti), vals[e]
						at[r]++
					}
				}
			}
		}
		off = ctx.ends[ti]
	}
	acc := a.Get(out).Data
	from := int32(0)
	for r, to := range at[:hi-lo] {
		grow := g.Data[(lo+r)*out : (lo+r+1)*out]
		for k := from; k < to; k++ {
			if k > from && tree[k] != tree[k-1] {
				addRow(grow, acc)
				clear(acc)
			}
			v := val[k]
			for j, gv := range gz.Data[int(node[k])*out : int(node[k]+1)*out] {
				acc[j] += v * gv
			}
		}
		if to > from {
			addRow(grow, acc)
			clear(acc)
		}
		from = to
	}
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

// Context is a forest: trees laid end to end, their nodes numbered from 0 in
// tree order, and the forward pass of the forest carried to its backward
// pass. Per conv layer it holds one (N, Out) output matrix and one (N, Out)
// pre-activation gradient matrix for all N nodes, in which tree t owns the
// rows [start(t), ends[t]); per tree it holds the feature index and the
// pooling winners. The ReLU mask is not stored — an output is positive
// exactly where the mask was set. Reset lays out another forest in the same
// memory, so a training step that resets one Context per step stops
// allocating once the largest forest has been seen; Forward makes a forest
// of one tree and leaves its gradient matrices to Backward.
type Context struct {
	trees  []*Tree
	nz     []rowIndex      // per tree, its feature index
	ends   []int           // ends[t] is one past tree t's last row
	acts   []tensor.Tensor // per layer, its output
	gz     []tensor.Tensor // per layer, dL/d(pre-activation); set by BackwardInputs
	argmax []int32         // per tree, per output dim, the tree's node that won the pooling max (-1 none)
	abuf   []float64       // backs acts
	gbuf   []float64       // backs gz
}

// Reset lays trees end to end as c's forest for the network n, reusing c's
// memory. The matrices' contents are left as they are: ForwardTrain and
// BackwardInputs clear each tree's rows before they write them.
func (c *Context) Reset(n *Network, trees []*Tree) {
	c.layout(n, trees)
	c.gbuf = carve(c.gz, c.gbuf, n, c.rows())
}

// layout is Reset without the gradient matrices, which a forward pass does
// not touch: Forward leaves them to Backward, so a forest of one that is
// never back-propagated does not pay for them.
func (c *Context) layout(n *Network, trees []*Tree) {
	c.trees = append(c.trees[:0], trees...)
	c.nz, c.ends = c.nz[:0], c.ends[:0]
	rows := 0
	for _, t := range trees {
		rows += t.Len()
		c.ends = append(c.ends, rows)
		c.nz = append(c.nz, t.index(nil))
	}
	layers := len(n.Layers)
	if len(c.acts) != layers {
		mats, shapes := make([]tensor.Tensor, 2*layers), make([]int, 4*layers)
		for i := range mats {
			mats[i].Shape = shapes[2*i : 2*i+2 : 2*i+2]
		}
		c.acts, c.gz = mats[:layers], mats[layers:]
	}
	c.abuf = carve(c.acts, c.abuf, n, rows)
	if size := len(trees) * n.OutDim(); cap(c.argmax) < size {
		c.argmax = make([]int32, size)
	} else {
		c.argmax = c.argmax[:size]
	}
}

// rows is the number of nodes in c's forest.
func (c *Context) rows() int {
	if len(c.ends) == 0 {
		return 0
	}
	return c.ends[len(c.ends)-1]
}

// carve shapes mats[k] as (rows, Out) of n's layer k, back to back in buf,
// and returns buf, reallocated when it is too short. The first allocation is
// exact, so a forest of one and a run's first step pay for their own size
// only; a regrowth, a forest larger than any before it, takes a quarter more
// than it needs, so the few new maxima a run of shuffled batches meets do not
// each allocate and fault in the whole buffer again.
func carve(mats []tensor.Tensor, buf []float64, n *Network, rows int) []float64 {
	size := 0
	for _, l := range n.Layers {
		size += rows * l.Out
	}
	if cap(buf) < size {
		c := size
		if cap(buf) > 0 {
			c += size / 4
		}
		buf = make([]float64, size, c)
	}
	rest := buf[:size]
	for k, l := range n.Layers {
		m := &mats[k]
		m.Shape[0], m.Shape[1] = rows, l.Out
		m.Data, rest = rest[:rows*l.Out:rows*l.Out], rest[rows*l.Out:]
	}
	return buf
}

// start is the forest row of tree t's first node.
func (c *Context) start(t int) int {
	if t == 0 {
		return 0
	}
	return c.ends[t-1]
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

// Forward runs the conv stack over one tree and pools the voted nodes,
// returning a (1, OutDim) vector and the backward context, a forest of that
// one tree, all on the heap. The context's gradient matrices are not sized
// until Backward.
func (n *Network) Forward(t *Tree) (*tensor.Tensor, *Context) {
	ctx := &Context{}
	ctx.layout(n, []*Tree{t})
	pooled := tensor.New(1, n.OutDim())
	n.ForwardTrain(ctx, 0, pooled.Data, nil)
	return pooled, ctx
}

// ForwardTrain runs tree ti of ctx's forest through the conv stack, writing
// every layer's output into the tree's rows of the forest's matrices, and
// pools its voted nodes into pooled (OutDim values, zero on entry: a
// dimension no node votes for stays zero), recording the winners for
// BackwardInputs. Different trees of one forest may run concurrently.
// scratch (nil for the heap) serves the call and may be reset when it
// returns. Values are byte-identical to ForwardInference's.
func (n *Network) ForwardTrain(ctx *Context, ti int, pooled []float64, scratch *tensor.Arena) {
	t, off := ctx.trees[ti], ctx.start(ti)
	var x *tensor.Tensor // the first layer reads the tree's index
	for k, l := range n.Layers {
		l.forward(&ctx.acts[k], off, t, ctx.nz[ti], x, scratch)
		x = &ctx.acts[k]
	}
	od := n.OutDim()
	rows := tensor.Tensor{Data: x.Data[off*od : ctx.ends[ti]*od]}
	n.pool(t, &rows, &tensor.Tensor{Data: pooled}, ctx.argmax[ti*od:(ti+1)*od])
}

// ForwardInference runs the conv stack and pooling entirely inside the arena,
// producing byte-identical values to Forward with zero heap allocation. The
// returned tensor aliases arena memory and is only valid until the next
// arena Reset.
func (n *Network) ForwardInference(t *Tree, a *tensor.Arena) *tensor.Tensor {
	nz := t.index(a)
	var x *tensor.Tensor // the first layer reads the tree's index
	for _, l := range n.Layers {
		out := a.Get(t.Len(), l.Out)
		l.forward(out, 0, t, nz, x, a)
		x = out
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

// ForwardInferenceInt8 runs the quantised conv stack and the (float) pooling
// inside the arena, returning the pooled vector and the max activation
// quantisation error observed across the layers. Outputs carry a bounded
// quantisation error relative to ForwardInference; pooling itself is exact.
// It reads the dense feature rows, so t must still hold its Feats.
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
// forest can back-propagate in parallel and still add into every gradient
// element in tree order. BackwardInputs pulls one tree's pooled gradient
// down its stack, reading weights only, and leaves each layer's
// pre-activation gradient in the tree's rows of the forest; any number of
// trees can do that at once. AccumulateGrad then adds the whole forest's
// contribution to one GradTask's share of the parameter gradients, tree
// after tree: on each element of G it owns it performs the additions a
// serial tree-by-tree Backward performs, in the same order — whatever the
// number of owners.

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

// BackwardInputs propagates grad — dL/d(pooled) of tree ti of ctx's forest,
// OutDim values — through the tree's pooling and down the conv stack,
// writing per layer the gradient at its pre-activation into the tree's rows
// of the forest's gradient matrices. ForwardTrain must have run on the tree,
// and wT must hold the network's current weights. It writes nothing but the
// tree's rows, so different trees of one forest may run concurrently.
func (n *Network) BackwardInputs(ctx *Context, ti int, grad []float64, wT Transposed) {
	t, off, end := ctx.trees[ti], ctx.start(ti), ctx.ends[ti]
	od := n.OutDim()
	last := len(n.Layers) - 1
	top := ctx.gz[last].Data[off*od : end*od]
	clear(top)
	for d, i := range ctx.argmax[ti*od : (ti+1)*od] {
		if i >= 0 {
			top[int(i)*od+d] = grad[d]
		}
	}
	for li := last; li >= 0; li-- {
		l := n.Layers[li]
		// ReLU: the gradient passes where the layer's output is positive.
		// About half the outputs are, in no pattern a branch predictor
		// learns, so the choice is made on the bits (a conditional move).
		grads := ctx.gz[li].Data[off*l.Out : end*l.Out]
		acts := ctx.acts[li].Data[off*l.Out : end*l.Out]
		for i, g := range grads {
			b := math.Float64bits(g)
			if !(acts[i] > 0) {
				b = 0
			}
			grads[i] = math.Float64frombits(b)
		}
		if li > 0 {
			// Layer 0 reads the features; nothing is upstream of them.
			gx := &ctx.gz[li-1]
			clear(gx.Data[off*l.In : end*l.In])
			l.inputGrad(gx, off, t, &ctx.gz[li], wT[li])
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
// of at least eight rows. The feature-fed first layer's three matrices stay
// whole, each one pass over the forest's index entries. They are not a
// sliver: on the training benchmark's shape the layer's four tasks take
// about a quarter of the accumulation's CPU (a one-core profile of
// BenchmarkPrestroidTrainBatch). They come first in the list, so the
// smaller hidden-layer blocks that follow even the workers out.
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

// Span locates a task's share of the parameters: the index in Params() of
// the parameter the task names, and the range [lo, hi) of that parameter's
// elements it owns (a weight row is Out elements).
func (n *Network) Span(task GradTask) (param, lo, hi int) {
	out := n.Layers[task.layer].Out
	param = 4*task.layer + task.param
	if task.param == paramBias {
		return param, 0, out
	}
	return param, task.lo * out, task.hi * out
}

// AccumulateGrad adds the contribution of every tree of ctx's forest, in
// forest order, to the task's share of the parameter gradients.
// BackwardInputs must have run on every tree. Tasks own disjoint memory, so
// different tasks may run concurrently. a is scratch, resettable on return.
func (n *Network) AccumulateGrad(task GradTask, ctx *Context, a *tensor.Arena) {
	l := n.Layers[task.layer]
	gz := &ctx.gz[task.layer]
	switch {
	case task.param == paramBias:
		// The bias gradient is each tree's column sums of gz: a segmented
		// product with a column of ones, each 1·g being g exactly.
		ones := a.Get(gz.Shape[0]).Data
		for i := range ones {
			ones[i] = 1
		}
		tensor.AccumSegments(l.B.G.Data, ones, gz.Data, ctx.ends)
	case task.layer == 0:
		accumSparse(l.weight(task.param).G, ctx, task.param, gz, task.lo, task.hi, a)
	default:
		accumDense(l.weight(task.param).G, &ctx.acts[task.layer-1], ctx, task.param, gz, task.lo, task.hi, a)
	}
}

// Backward propagates a (1, OutDim) gradient through the pooling and conv
// stack of a Forward's one-tree forest, accumulating parameter gradients:
// the forest's gradient matrices, Transpose, BackwardInputs, then every
// task, on the heap. The transposes
// are made for this one tree; a training step makes them once for all of
// its trees (see TrainBatch in package models).
func (n *Network) Backward(ctx *Context, grad *tensor.Tensor) {
	ctx.gbuf = carve(ctx.gz, ctx.gbuf, n, ctx.rows())
	n.wT = n.Transpose(n.wT)
	n.BackwardInputs(ctx, 0, grad.Data, n.wT)
	for _, task := range n.GradTasks(1) {
		n.AccumulateGrad(task, ctx, nil)
	}
}
