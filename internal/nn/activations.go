package nn

import (
	"math"

	"prestroid/internal/tensor"
)

// ReLU applies max(0, x) element-wise.
type ReLU struct {
	mask []bool
}

// NewReLU returns a ReLU activation layer.
func NewReLU() *ReLU { return &ReLU{} }

// Forward zeroes negative activations, remembering which passed through.
func (r *ReLU) Forward(x *tensor.Tensor, training bool) *tensor.Tensor {
	out := x.Clone()
	if cap(r.mask) < len(out.Data) {
		r.mask = make([]bool, len(out.Data))
	}
	r.mask = r.mask[:len(out.Data)]
	for i, v := range out.Data {
		if v > 0 {
			r.mask[i] = true
		} else {
			r.mask[i] = false
			out.Data[i] = 0
		}
	}
	return out
}

// ForwardArena is the inference fast path: max(0, x) into arena scratch,
// leaving the training mask untouched.
func (r *ReLU) ForwardArena(x *tensor.Tensor, a *tensor.Arena) *tensor.Tensor {
	out := a.Get(x.Shape...)
	for i, v := range x.Data {
		if v > 0 {
			out.Data[i] = v
		}
	}
	return out
}

// Backward passes gradients only through positive activations.
func (r *ReLU) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	g := gradOut.Clone()
	for i := range g.Data {
		if !r.mask[i] {
			g.Data[i] = 0
		}
	}
	return g
}

// Release drops the mask a training Forward keeps for Backward.
func (r *ReLU) Release() { r.mask = nil }

// Params returns nil; ReLU has no trainable parameters.
func (r *ReLU) Params() []*Param { return nil }

// Sigmoid applies 1/(1+e^-x) element-wise. The paper's final prediction
// layer uses sigmoid so the output lands in the (0,1) min-max normalised
// label space.
type Sigmoid struct {
	lastOut *tensor.Tensor
}

// NewSigmoid returns a sigmoid activation layer.
func NewSigmoid() *Sigmoid { return &Sigmoid{} }

// Forward applies the logistic function.
func (s *Sigmoid) Forward(x *tensor.Tensor, training bool) *tensor.Tensor {
	out := x.Map(func(v float64) float64 { return 1 / (1 + math.Exp(-v)) })
	s.lastOut = out
	return out
}

// ForwardArena is the inference fast path: the logistic function into arena
// scratch, without caching the output for backward.
func (s *Sigmoid) ForwardArena(x *tensor.Tensor, a *tensor.Arena) *tensor.Tensor {
	out := a.Get(x.Shape...)
	for i, v := range x.Data {
		out.Data[i] = 1 / (1 + math.Exp(-v))
	}
	return out
}

// Backward multiplies by σ(x)(1-σ(x)).
func (s *Sigmoid) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	g := gradOut.Clone()
	for i := range g.Data {
		y := s.lastOut.Data[i]
		g.Data[i] *= y * (1 - y)
	}
	return g
}

// Release drops the output a training Forward keeps for Backward.
func (s *Sigmoid) Release() { s.lastOut = nil }

// Params returns nil; Sigmoid has no trainable parameters.
func (s *Sigmoid) Params() []*Param { return nil }
