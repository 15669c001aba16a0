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

	lastInput *tensor.Tensor
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
// once per step. The weight gradient is added straight into G, one AccumRows
// call per row of xᵀ (MatMulAddInto), with no product temporary. Each
// product element is its p-ordered sum from +0, less only products with a
// zero factor of g or x, which cannot change it while the weights are finite.
func (d *Dense) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	tensor.MatMulAddInto(d.Weight.G, tensor.Transpose(d.lastInput), gradOut)
	d.Bias.G.AddInPlace(tensor.SumRows(gradOut))
	return tensor.MatMul(gradOut, tensor.Transpose(d.Weight.W))
}

// Params returns the weight and bias.
func (d *Dense) Params() []*Param { return []*Param{d.Weight, d.Bias} }
