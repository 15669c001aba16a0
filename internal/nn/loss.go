package nn

import (
	"math"

	"prestroid/internal/tensor"
)

// MSELoss is the mean squared error ½(p-t)² averaged over the batch. The
// paper reports evaluation scores as MSE in minutes².
type MSELoss struct{}

// Value returns mean((p-t)²).
func (MSELoss) Value(pred, target *tensor.Tensor) float64 {
	n := pred.Size()
	s := 0.0
	for i := 0; i < n; i++ {
		d := pred.Data[i] - target.Data[i]
		s += d * d
	}
	return s / float64(n)
}

// Grad returns 2(p-t)/n.
func (MSELoss) Grad(pred, target *tensor.Tensor) *tensor.Tensor {
	n := pred.Size()
	g := tensor.New(pred.Shape...)
	for i := 0; i < n; i++ {
		g.Data[i] = 2 * (pred.Data[i] - target.Data[i]) / float64(n)
	}
	return g
}

// HuberLoss is the smooth L1 loss with threshold Delta: quadratic within
// |p-t| <= Delta, linear beyond. All deep models in the paper are optimised
// with Huber loss (δ = 1, the TensorFlow default).
type HuberLoss struct {
	Delta float64
}

// NewHuberLoss returns a Huber loss with δ=1 when delta <= 0.
func NewHuberLoss(delta float64) HuberLoss {
	if delta <= 0 {
		delta = 1
	}
	return HuberLoss{Delta: delta}
}

// Value returns the mean Huber loss.
func (h HuberLoss) Value(pred, target *tensor.Tensor) float64 {
	n := pred.Size()
	s := 0.0
	for i := 0; i < n; i++ {
		d := pred.Data[i] - target.Data[i]
		a := math.Abs(d)
		if a <= h.Delta {
			s += 0.5 * d * d
		} else {
			s += h.Delta * (a - 0.5*h.Delta)
		}
	}
	return s / float64(n)
}

// Grad returns the per-element Huber gradient divided by batch size.
func (h HuberLoss) Grad(pred, target *tensor.Tensor) *tensor.Tensor {
	n := pred.Size()
	g := tensor.New(pred.Shape...)
	for i := 0; i < n; i++ {
		d := pred.Data[i] - target.Data[i]
		switch {
		case d > h.Delta:
			g.Data[i] = h.Delta / float64(n)
		case d < -h.Delta:
			g.Data[i] = -h.Delta / float64(n)
		default:
			g.Data[i] = d / float64(n)
		}
	}
	return g
}
