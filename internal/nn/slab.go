package nn

import "fmt"

// Slab lays a model's trainable parameters end to end: W holds every
// weight and G every gradient, and each Param's W.Data and G.Data are views
// of its own range of them, in list order. An optimizer therefore steps any
// range of the slab without knowing which parameters it crosses, a whole
// model's weights copy as one slice, and clearing the gradients is one
// clear per range.
type Slab struct {
	Params []*Param
	W, G   []float64
	off    []int // Params[i] owns [off[i], off[i+1])
}

// NewSlab moves ps into one slab: each parameter's current weights are copied
// into its range, and its W.Data and G.Data are pointed at the range, so the
// parameters keep their values and their gradients start at +0. A parameter
// may belong to one slab only, and whoever replaces its W.Data or G.Data
// afterwards detaches it: the next Adam.Begin over the slab panics.
func NewSlab(ps []*Param) *Slab {
	s := &Slab{Params: ps, off: make([]int, len(ps)+1)}
	for i, p := range ps {
		s.off[i+1] = s.off[i] + len(p.W.Data)
	}
	n := s.off[len(ps)]
	s.W, s.G = make([]float64, n), make([]float64, n)
	for i, p := range ps {
		w := s.W[s.off[i]:s.off[i+1]:s.off[i+1]]
		copy(w, p.W.Data)
		p.W.Data, p.G.Data = w, s.G[s.off[i]:s.off[i+1]:s.off[i+1]]
	}
	return s
}

// Offset returns the slab index of Params[i]'s first element.
func (s *Slab) Offset(i int) int { return s.off[i] }

// check panics when some parameter's W or G is no longer a view of its
// range: stepping the slab would then train a copy nothing reads.
func (s *Slab) check() {
	for i, p := range s.Params {
		lo, hi := s.off[i], s.off[i+1]
		if len(p.W.Data) != hi-lo || len(p.G.Data) != hi-lo ||
			(hi > lo && (&p.W.Data[0] != &s.W[lo] || &p.G.Data[0] != &s.G[lo])) {
			panic(fmt.Sprintf("nn: parameter %d (%s) is detached from its slab", i, p.Name))
		}
	}
}
