package nn

import (
	"math"

	"prestroid/internal/tensor"
)

// Adam implements the ADAM optimizer (Kingma & Ba), the optimizer used for
// every deep model in the paper (learning rates 1e-3 or 1e-4 depending on
// model and dataset).
type Adam struct {
	LR     float64
	Beta1  float64
	Beta2  float64
	Eps    float64
	t      int
	moment map[*Param]*adamState
}

type adamState struct {
	m, v *tensor.Tensor
}

// NewAdam returns an ADAM optimizer with the standard β₁=0.9, β₂=0.999,
// ε=1e-8 defaults.
func NewAdam(lr float64) *Adam {
	return &Adam{
		LR:     lr,
		Beta1:  0.9,
		Beta2:  0.999,
		Eps:    1e-8,
		moment: make(map[*Param]*adamState),
	}
}

// Step applies bias-corrected adaptive moment updates and clears gradients.
func (a *Adam) Step(params []*Param) {
	a.t++
	c1 := 1 - math.Pow(a.Beta1, float64(a.t))
	c2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for _, p := range params {
		st, ok := a.moment[p]
		if !ok {
			st = &adamState{m: tensor.New(p.W.Shape...), v: tensor.New(p.W.Shape...)}
			a.moment[p] = st
		}
		for i := range p.W.Data {
			g := p.G.Data[i]
			st.m.Data[i] = a.Beta1*st.m.Data[i] + (1-a.Beta1)*g
			st.v.Data[i] = a.Beta2*st.v.Data[i] + (1-a.Beta2)*g*g
			mHat := st.m.Data[i] / c1
			vHat := st.v.Data[i] / c2
			p.W.Data[i] -= a.LR * mHat / (math.Sqrt(vHat) + a.Eps)
		}
		p.ZeroGrad()
	}
}
