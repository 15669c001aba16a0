package nn

import "math"

// Adam implements the ADAM optimizer (Kingma & Ba), the optimizer used for
// every deep model in the paper (learning rates 1e-3 or 1e-4 depending on
// model and dataset). It steps a Slab: its first and second moments are two
// more slabs laid out like the weights, so one step is one element-wise pass
// that can be cut into ranges anywhere. Begin fixes the step's bias
// corrections and Update applies the step to one range; every element gets
// the same operations whichever range, and whichever goroutine, it falls in,
// so how a step is cut never moves a bit.
type Adam struct {
	LR    float64
	Beta1 float64
	Beta2 float64
	Eps   float64
	t     int

	slab   *Slab     // the slab m and v belong to
	m, v   []float64 // first and second moments, laid out like slab.W
	c1, c2 float64   // the step's bias corrections, 1-β₁ᵗ and 1-β₂ᵗ
}

// NewAdam returns an ADAM optimizer with the standard β₁=0.9, β₂=0.999,
// ε=1e-8 defaults.
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
}

// Begin starts a step over s and must precede the step's Update calls. It
// panics when a parameter of s has been detached from it. The moments start
// at zero the first time s is stepped, and start again at zero if the
// optimizer is moved to another slab.
func (a *Adam) Begin(s *Slab) {
	s.check()
	if a.slab != s {
		a.slab = s
		a.m, a.v = make([]float64, len(s.W)), make([]float64, len(s.W))
	}
	a.t++
	a.c1 = 1 - math.Pow(a.Beta1, float64(a.t))
	a.c2 = 1 - math.Pow(a.Beta2, float64(a.t))
}

// Update applies the step Begin started to the slab's elements [lo, hi) and
// clears their gradients. Disjoint ranges may be updated concurrently. Every
// product is rounded on its own (the float64 conversions), so no
// architecture fuses it into a multiply-add and the bits are the same on
// all of them.
func (a *Adam) Update(lo, hi int) {
	s := a.slab
	w, g, m, v := s.W[lo:hi], s.G[lo:hi], a.m[lo:hi], a.v[lo:hi]
	b1, b2 := a.Beta1, a.Beta2
	for i, gi := range g {
		mi := float64(b1*m[i]) + float64((1-b1)*gi)
		vi := float64(b2*v[i]) + float64(float64((1-b2)*gi)*gi)
		m[i], v[i] = mi, vi
		w[i] -= float64(a.LR*(mi/a.c1)) / (math.Sqrt(vi/a.c2) + a.Eps)
	}
	clear(g)
}

// Step is one whole step over s: Begin, then Update over the whole slab as
// one range.
func (a *Adam) Step(s *Slab) {
	a.Begin(s)
	a.Update(0, len(s.W))
}
