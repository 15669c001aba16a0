package nn

import (
	"math"

	"prestroid/internal/tensor"
)

// BatchNorm normalises each feature column over the batch, then applies a
// learned affine transform (gamma, beta). Running statistics accumulated
// during training are used at inference. The paper places batch norm between
// Prestroid's dense layers (§5.2).
type BatchNorm struct {
	Gamma *Param
	Beta  *Param

	Momentum float64
	Eps      float64

	RunningMean *tensor.Tensor
	RunningVar  *tensor.Tensor

	// cached for backward
	xHat    *tensor.Tensor
	stdInv  []float64
	lastDim int
}

// NewBatchNorm returns a batch-norm layer over the given feature width.
func NewBatchNorm(features int) *BatchNorm {
	bn := &BatchNorm{
		Gamma:       NewParam("bn.gamma", features),
		Beta:        NewParam("bn.beta", features),
		Momentum:    0.9,
		Eps:         1e-5,
		RunningMean: tensor.New(features),
		RunningVar:  tensor.New(features),
	}
	bn.Gamma.W.Fill(1)
	bn.RunningVar.Fill(1)
	return bn
}

// Forward normalises per feature: training uses batch statistics and updates
// the running averages; inference uses the running averages.
func (bn *BatchNorm) Forward(x *tensor.Tensor, training bool) *tensor.Tensor {
	CheckShape(x, 2, "BatchNorm")
	m, n := x.Shape[0], x.Shape[1]
	bn.lastDim = n
	out := tensor.New(m, n)

	if !training {
		for j := 0; j < n; j++ {
			mu := bn.RunningMean.Data[j]
			sd := math.Sqrt(bn.RunningVar.Data[j] + bn.Eps)
			g, b := bn.Gamma.W.Data[j], bn.Beta.W.Data[j]
			for i := 0; i < m; i++ {
				out.Data[i*n+j] = g*(x.Data[i*n+j]-mu)/sd + b
			}
		}
		return out
	}

	bn.xHat = tensor.New(m, n)
	if cap(bn.stdInv) < n {
		bn.stdInv = make([]float64, n)
	}
	bn.stdInv = bn.stdInv[:n]
	for j := 0; j < n; j++ {
		mu := 0.0
		for i := 0; i < m; i++ {
			mu += x.Data[i*n+j]
		}
		mu /= float64(m)
		va := 0.0
		for i := 0; i < m; i++ {
			d := x.Data[i*n+j] - mu
			va += d * d
		}
		va /= float64(m)
		inv := 1 / math.Sqrt(va+bn.Eps)
		bn.stdInv[j] = inv
		g, b := bn.Gamma.W.Data[j], bn.Beta.W.Data[j]
		for i := 0; i < m; i++ {
			xh := (x.Data[i*n+j] - mu) * inv
			bn.xHat.Data[i*n+j] = xh
			out.Data[i*n+j] = g*xh + b
		}
		bn.RunningMean.Data[j] = bn.Momentum*bn.RunningMean.Data[j] + (1-bn.Momentum)*mu
		bn.RunningVar.Data[j] = bn.Momentum*bn.RunningVar.Data[j] + (1-bn.Momentum)*va
	}
	return out
}

// ForwardArena is the inference fast path: the running-statistics branch of
// Forward, element for element, writing into arena scratch.
func (bn *BatchNorm) ForwardArena(x *tensor.Tensor, a *tensor.Arena) *tensor.Tensor {
	CheckShape(x, 2, "BatchNorm")
	m, n := x.Shape[0], x.Shape[1]
	out := a.Get(m, n)
	for j := 0; j < n; j++ {
		mu := bn.RunningMean.Data[j]
		sd := math.Sqrt(bn.RunningVar.Data[j] + bn.Eps)
		g, b := bn.Gamma.W.Data[j], bn.Beta.W.Data[j]
		for i := 0; i < m; i++ {
			out.Data[i*n+j] = g*(x.Data[i*n+j]-mu)/sd + b
		}
	}
	return out
}

// Backward implements the standard batch-norm gradient.
func (bn *BatchNorm) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	m, n := gradOut.Shape[0], gradOut.Shape[1]
	gx := tensor.New(m, n)
	for j := 0; j < n; j++ {
		sumG, sumGX := 0.0, 0.0
		for i := 0; i < m; i++ {
			g := gradOut.Data[i*n+j]
			sumG += g
			sumGX += g * bn.xHat.Data[i*n+j]
		}
		bn.Beta.G.Data[j] += sumG
		bn.Gamma.G.Data[j] += sumGX
		gamma := bn.Gamma.W.Data[j]
		inv := bn.stdInv[j]
		fm := float64(m)
		for i := 0; i < m; i++ {
			g := gradOut.Data[i*n+j]
			xh := bn.xHat.Data[i*n+j]
			gx.Data[i*n+j] = gamma * inv / fm * (fm*g - sumG - xh*sumGX)
		}
	}
	return gx
}

// Release drops the normalised input and inverse deviations a training
// Forward keeps for Backward.
func (bn *BatchNorm) Release() { bn.xHat, bn.stdInv = nil, nil }

// Params returns gamma and beta.
func (bn *BatchNorm) Params() []*Param { return []*Param{bn.Gamma, bn.Beta} }

// State exposes the running statistics for persistence and replica sync.
func (bn *BatchNorm) State() []*tensor.Tensor {
	return []*tensor.Tensor{bn.RunningMean, bn.RunningVar}
}
