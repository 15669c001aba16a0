// Package nn is a small neural-network engine with manual layer-wise
// backpropagation. It provides the building blocks required by the paper's
// models — dense layers, ReLU/sigmoid activations, dropout, batch
// normalisation, token embeddings, 1-D convolution (for the WCNN baseline) —
// together with Huber/MSE losses and the ADAM optimizer the paper trains
// with. It replaces TensorFlow in the reproduction: same mathematics, pure
// Go, CPU execution, exact per-batch tensor-size accounting.
//
// A model lays its parameters out in one Slab, and Adam steps the slab by
// ranges, so a training step can update each range on whichever core just
// finished its gradient.
package nn

import (
	"fmt"

	"prestroid/internal/tensor"
)

// Param is a trainable parameter: a weight tensor paired with its gradient
// accumulator. Optimizers update W from G after each batch. In a model both
// are views of the model's Slab (see NewSlab); a Param on its own owns them.
type Param struct {
	Name string
	W    *tensor.Tensor
	G    *tensor.Tensor
}

// NewParam allocates a parameter and its zeroed gradient with the same shape.
func NewParam(name string, shape ...int) *Param {
	return &Param{Name: name, W: tensor.New(shape...), G: tensor.New(shape...)}
}

// Count returns the number of scalar parameters.
func (p *Param) Count() int { return p.W.Size() }

// Layer is a differentiable transform. Forward consumes the layer input and
// must cache whatever Backward needs; Backward consumes dL/dOutput and
// returns dL/dInput, accumulating parameter gradients into Params().
type Layer interface {
	Forward(x *tensor.Tensor, training bool) *tensor.Tensor
	Backward(gradOut *tensor.Tensor) *tensor.Tensor
	Params() []*Param
}

// Sequential chains layers, feeding each layer's output into the next.
type Sequential struct {
	Layers []Layer
}

// NewSequential returns a container over the given layers.
func NewSequential(layers ...Layer) *Sequential {
	return &Sequential{Layers: layers}
}

// Add appends a layer.
func (s *Sequential) Add(l Layer) { s.Layers = append(s.Layers, l) }

// Forward runs all layers in order.
func (s *Sequential) Forward(x *tensor.Tensor, training bool) *tensor.Tensor {
	for _, l := range s.Layers {
		x = l.Forward(x, training)
	}
	return x
}

// Backward runs all layers in reverse order.
func (s *Sequential) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	for i := len(s.Layers) - 1; i >= 0; i-- {
		gradOut = s.Layers[i].Backward(gradOut)
	}
	return gradOut
}

// Params returns the concatenated parameters of all layers.
func (s *Sequential) Params() []*Param {
	var ps []*Param
	for _, l := range s.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// ParamCount returns the total number of trainable scalars in ps. The paper
// compares models by this figure (e.g. WCNN-100 has 363,301 parameters).
func ParamCount(ps []*Param) int {
	n := 0
	for _, p := range ps {
		n += p.Count()
	}
	return n
}

// ZeroGrads resets every gradient in ps.
func ZeroGrads(ps []*Param) {
	for _, p := range ps {
		p.G.Zero()
	}
}

// CheckShape panics with a descriptive message when a tensor does not have
// the expected dimensionality; layers use it to fail fast on wiring errors.
func CheckShape(x *tensor.Tensor, dims int, who string) {
	if x.Dims() != dims {
		panic(fmt.Sprintf("nn: %s expects %d-d input, got shape %v", who, dims, x.Shape))
	}
}

// ArenaForwarder is implemented by layers whose inference pass can write
// into arena-backed scratch tensors instead of heap allocations. The output
// must be numerically byte-identical to Forward(x, false); training caches
// are not touched.
type ArenaForwarder interface {
	ForwardArena(x *tensor.Tensor, a *tensor.Arena) *tensor.Tensor
}

// ForwardInference runs layers in order using the arena fast path where a
// layer offers one, falling back to the regular inference Forward otherwise.
// Outputs may alias arena memory and are only valid until the arena resets.
func ForwardInference(layers []Layer, x *tensor.Tensor, a *tensor.Arena) *tensor.Tensor {
	for _, l := range layers {
		if af, ok := l.(ArenaForwarder); ok {
			x = af.ForwardArena(x, a)
		} else {
			x = l.Forward(x, false)
		}
	}
	return x
}

// Releaser is implemented by layers that keep buffers from one training
// step to the next. Release drops them; the layer's next training Forward
// and Backward make them anew, with the same bits.
type Releaser interface {
	Release()
}

// Stateful is implemented by layers carrying non-trainable state that must
// be persisted and synchronised alongside the weights (batch-norm running
// statistics).
type Stateful interface {
	State() []*tensor.Tensor
}

// CollectState gathers the state tensors of every stateful layer in order.
func CollectState(layers []Layer) []*tensor.Tensor {
	var out []*tensor.Tensor
	for _, l := range layers {
		if s, ok := l.(Stateful); ok {
			out = append(out, s.State()...)
		}
	}
	return out
}
