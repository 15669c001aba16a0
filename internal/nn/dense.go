package nn

import (
	"prestroid/internal/tensor"
)

// Dense is a fully connected layer computing y = xW + b over a batch
// (batch, in) → (batch, out).
type Dense struct {
	In, Out int
	Weight  *Param
	Bias    *Param

	lastInput  *tensor.Tensor
	xT, wT, dx *tensor.Tensor // Backward's transposes and result, kept from call to call
}

// NewDense returns a dense layer with Glorot-uniform weights and zero bias.
func NewDense(in, out int, rng *tensor.RNG) *Dense {
	d := &Dense{
		In:     in,
		Out:    out,
		Weight: NewParam("dense.w", in, out),
		Bias:   NewParam("dense.b", out),
	}
	rng.GlorotUniform(d.Weight.W, in, out)
	return d
}

// Forward computes xW + b and caches x for the backward pass.
func (d *Dense) Forward(x *tensor.Tensor, training bool) *tensor.Tensor {
	CheckShape(x, 2, "Dense")
	d.lastInput = x
	out := tensor.MatMul(x, d.Weight.W)
	tensor.AddRowVector(out, d.Bias.W)
	return out
}

// ForwardArena is the inference fast path: same arithmetic as Forward with
// training=false, writing into arena scratch and caching nothing.
func (d *Dense) ForwardArena(x *tensor.Tensor, a *tensor.Arena) *tensor.Tensor {
	CheckShape(x, 2, "Dense")
	out := a.Get(x.Shape[0], d.Out)
	tensor.MatMulInto(out, x, d.Weight.W)
	tensor.AddRowVector(out, d.Bias.W)
	return out
}

// Backward accumulates dL/dW = xᵀg and dL/db = Σ_batch g, returning
// dL/dx = g Wᵀ. Both products run over a transpose made here, so they run on
// tensor.AccumRows; a training step calls Backward once, so W is transposed
// once per step. The transposes and dL/dx live in memory the layer keeps
// from call to call, so the returned gradient is valid until the layer's
// next Backward. The weight gradient is added straight into G, one AccumRows
// call per row of xᵀ (MatMulAddInto), with no product temporary. Each
// product element is its p-ordered sum from +0, less only products with a
// zero factor of g or x, which cannot change it while the weights are finite.
func (d *Dense) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	batch := gradOut.Shape[0]
	d.xT = tensor.TransposeInto(sized(d.xT, d.In, batch), d.lastInput)
	d.wT = tensor.TransposeInto(sized(d.wT, d.Out, d.In), d.Weight.W)
	tensor.MatMulAddInto(d.Weight.G, d.xT, gradOut)
	d.Bias.G.AddInPlace(tensor.SumRows(gradOut))
	d.dx = sized(d.dx, batch, d.In)
	tensor.MatMulInto(d.dx, gradOut, d.wT)
	return d.dx
}

// sized returns a (rows, cols) tensor in buf's memory when buf (an earlier
// sized result, or nil) holds enough of it, in a new tensor otherwise. What
// it holds is stale: callers overwrite every element.
func sized(buf *tensor.Tensor, rows, cols int) *tensor.Tensor {
	if buf == nil || cap(buf.Data) < rows*cols {
		return tensor.New(rows, cols)
	}
	buf.Data, buf.Shape[0], buf.Shape[1] = buf.Data[:rows*cols], rows, cols
	return buf
}

// Release drops the input Forward kept and Backward's transposes and result.
func (d *Dense) Release() { d.lastInput, d.xT, d.wT, d.dx = nil, nil, nil, nil }

// Params returns the weight and bias.
func (d *Dense) Params() []*Param { return []*Param{d.Weight, d.Bias} }
