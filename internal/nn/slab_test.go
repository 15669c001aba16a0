package nn

import (
	"math"
	"sort"
	"strings"
	"testing"

	"prestroid/internal/tensor"
)

// slabOf builds a slab over params of the given shapes, filled from seed: the
// same seed gives the same weights.
func slabOf(seed uint64, shapes ...[]int) *Slab {
	rng := tensor.NewRNG(seed)
	var ps []*Param
	for _, sh := range shapes {
		p := NewParam("p", sh...)
		rng.FillNorm(p.W, 0, 1)
		ps = append(ps, p)
	}
	return NewSlab(ps)
}

// Adam cut into ranges at random points, the ranges stepped in a shuffled
// order, must leave the weights of one whole-slab Step bit for bit, with
// every gradient cleared to +0, step after step.
func TestAdamRangesMatchWholeSlab(t *testing.T) {
	shapes := [][]int{{7, 5}, {5}, {1}, {13, 3}, {64}}
	whole, cut := slabOf(1, shapes...), slabOf(1, shapes...)
	a, b := NewAdam(0.01), NewAdam(0.01)
	rng := tensor.NewRNG(2)
	n := len(whole.W)
	for step := 0; step < 6; step++ {
		g := tensor.New(n)
		rng.FillNorm(g, 0, 1)
		g.Data[step] = 0 // a zero gradient moves the moments too
		copy(whole.G, g.Data)
		copy(cut.G, g.Data)
		a.Step(whole)

		cuts := []int{0, n}
		for i := 0; i < 1+step; i++ {
			cuts = append(cuts, rng.Intn(n+1))
		}
		sort.Ints(cuts)
		b.Begin(cut)
		for _, i := range rng.Perm(len(cuts) - 1) {
			b.Update(cuts[i], cuts[i+1])
		}
		for i := range whole.W {
			if math.Float64bits(whole.W[i]) != math.Float64bits(cut.W[i]) {
				t.Fatalf("step %d: W[%d] = %v cut at %v, %v whole", step, i, cut.W[i], cuts, whole.W[i])
			}
			if math.Float64bits(cut.G[i]) != 0 || math.Float64bits(whole.G[i]) != 0 {
				t.Fatalf("step %d: G[%d] left at %v / %v, want +0", step, i, cut.G[i], whole.G[i])
			}
		}
	}
}

// The parameters of a slab are views of it, and keep their values.
func TestSlabParamsAreViews(t *testing.T) {
	p, q := NewParam("p", 2, 3), NewParam("q", 4)
	p.W.Data[5], q.W.Data[0] = 7, 9
	s := NewSlab([]*Param{p, q})
	if len(s.W) != 10 || s.Offset(1) != 6 || s.W[5] != 7 || s.W[6] != 9 {
		t.Fatalf("slab W %v, offset of q %d", s.W, s.Offset(1))
	}
	s.W[9], s.G[1] = 3, 4
	if q.W.Data[3] != 3 || p.G.Data[1] != 4 {
		t.Fatal("params do not view the slab")
	}
}

// A parameter whose W (or G) was replaced after the slab was laid out would
// train a copy nothing reads: Begin must refuse it.
func TestAdamPanicsOnDetachedParam(t *testing.T) {
	for _, detach := range []func(p *Param){
		func(p *Param) { p.W.Data = append([]float64(nil), p.W.Data...) },
		func(p *Param) { p.G = tensor.New(p.G.Shape...) },
	} {
		s := slabOf(3, []int{2, 2}, []int{3})
		detach(s.Params[1])
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(r.(string), "detached") {
					t.Fatalf("Begin over a detached param: recovered %v, want a detached panic", r)
				}
			}()
			NewAdam(0.1).Begin(s)
		}()
	}
}
