package nn

import (
	"prestroid/internal/tensor"
)

// Dropout randomly zeroes activations during training with probability Rate
// and rescales survivors by 1/(1-Rate) (inverted dropout), so inference
// needs no adjustment. The paper uses 5% for M-MSCN, 50% for WCNN and 10%
// for Prestroid dense layers.
type Dropout struct {
	Rate float64
	rng  *tensor.RNG
	keep []float64
}

// NewDropout returns a dropout layer with the given drop probability.
func NewDropout(rate float64, rng *tensor.RNG) *Dropout {
	if rate < 0 || rate >= 1 {
		panic("nn: dropout rate must be in [0,1)")
	}
	return &Dropout{Rate: rate, rng: rng}
}

// Forward drops units at random when training; identity at inference.
func (d *Dropout) Forward(x *tensor.Tensor, training bool) *tensor.Tensor {
	if !training || d.Rate == 0 {
		d.keep = nil
		return x
	}
	out := x.Clone()
	scale := 1 / (1 - d.Rate)
	if cap(d.keep) < len(out.Data) {
		d.keep = make([]float64, len(out.Data))
	}
	d.keep = d.keep[:len(out.Data)]
	for i := range out.Data {
		if d.rng.Float64() < d.Rate {
			d.keep[i] = 0
			out.Data[i] = 0
		} else {
			d.keep[i] = scale
			out.Data[i] *= scale
		}
	}
	return out
}

// ForwardArena is the inference fast path: dropout is the identity at
// inference, so the input passes through untouched.
func (d *Dropout) ForwardArena(x *tensor.Tensor, a *tensor.Arena) *tensor.Tensor {
	return x
}

// Backward applies the same mask used in the forward pass.
func (d *Dropout) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	if d.keep == nil {
		return gradOut
	}
	g := gradOut.Clone()
	for i := range g.Data {
		g.Data[i] *= d.keep[i]
	}
	return g
}

// Release drops the mask a training Forward keeps for Backward.
func (d *Dropout) Release() { d.keep = nil }

// Params returns nil; Dropout has no trainable parameters.
func (d *Dropout) Params() []*Param { return nil }
