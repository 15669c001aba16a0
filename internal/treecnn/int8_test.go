package treecnn

import (
	"math"
	"testing"

	"prestroid/internal/tensor"
)

// completeTree builds an n-node complete binary tree (node i's children at
// 2i+1, 2i+2) with random features, every node voting.
func completeTree(n, featDim int, rng *tensor.RNG) *Tree {
	t := &Tree{
		Feats: tensor.New(n, featDim),
		Left:  make([]int, n),
		Right: make([]int, n),
		Votes: make([]float64, n),
	}
	for i := 0; i < n; i++ {
		t.Left[i] = -1
		t.Right[i] = -1
		if l := 2*i + 1; l < n {
			t.Left[i] = l
		}
		if r := 2*i + 2; r < n {
			t.Right[i] = r
		}
		t.Votes[i] = 1
	}
	rng.FillNorm(t.Feats, 0, 1)
	return t
}

func TestForwardInferenceInt8TracksFloat(t *testing.T) {
	rng := tensor.NewRNG(41)
	net := NewNetwork(12, []int{16, 16}, rng)
	if werr := net.PackInt8(); werr <= 0 || werr > 0.05 {
		t.Fatalf("weight round-trip error %v outside plausible range", werr)
	}
	a := tensor.NewArena(0)
	for seed := 0; seed < 4; seed++ {
		tree := completeTree(9+seed*4, 12, rng)
		if seed == 2 {
			tree.Votes[0], tree.Votes[3] = 0, 0 // vote-masked pooling path
		}
		want := net.ForwardInference(tree, a)
		got, aerr := net.ForwardInferenceInt8(tree, a)
		if aerr <= 0 {
			t.Fatalf("seed %d: no activation quantisation error reported", seed)
		}
		for i := range want.Data {
			e := math.Abs(got.Data[i] - want.Data[i])
			// Rough per-element tolerance: two conv layers of int8 error over
			// unit-normal features stay well under this for these widths.
			if e > 0.05*(1+math.Abs(want.Data[i])) {
				t.Fatalf("seed %d: pooled dim %d: int8 %v vs float %v (err %v)", seed, i, got.Data[i], want.Data[i], e)
			}
		}
		a.Reset()
	}
}

// TestForwardInferenceInt8AbsentChildren pins the gather-free child handling:
// a node with one or zero children must only accumulate the terms that exist.
func TestForwardInferenceInt8AbsentChildren(t *testing.T) {
	rng := tensor.NewRNG(43)
	net := NewNetwork(6, []int{8}, rng)
	net.PackInt8()
	a := tensor.NewArena(0)
	// Left-only chain: node 0 → left 1 → left 2; no right children anywhere.
	tree := &Tree{
		Feats: tensor.New(3, 6),
		Left:  []int{1, 2, -1},
		Right: []int{-1, -1, -1},
		Votes: []float64{1, 1, 1},
	}
	rng.FillNorm(tree.Feats, 0, 1)
	want := net.ForwardInference(tree, a)
	got, _ := net.ForwardInferenceInt8(tree, a)
	for i := range want.Data {
		if e := math.Abs(got.Data[i] - want.Data[i]); e > 0.05*(1+math.Abs(want.Data[i])) {
			t.Fatalf("dim %d: int8 %v vs float %v", i, got.Data[i], want.Data[i])
		}
	}
	a.Reset()
}

func TestForwardInferenceInt8ZeroAllocsSteadyState(t *testing.T) {
	rng := tensor.NewRNG(47)
	net := NewNetwork(8, []int{16, 16}, rng)
	net.PackInt8()
	tree := completeTree(15, 8, rng)
	a := tensor.NewArena(0)
	// Warm the arena (float slab and int8 slab both grow on first use).
	net.ForwardInferenceInt8(tree, a)
	a.Reset()
	net.ForwardInferenceInt8(tree, a)
	a.Reset()
	allocs := testing.AllocsPerRun(100, func() {
		net.ForwardInferenceInt8(tree, a)
		a.Reset()
	})
	if allocs != 0 {
		t.Fatalf("quantised conv forward allocates: %v allocs/op", allocs)
	}
}

// TestPackInt8Refreshes pins the repack contract: after a weight change the
// packed kernel is stale until PackInt8 runs again, at which point the
// quantised output follows the new weights.
func TestPackInt8Refreshes(t *testing.T) {
	rng := tensor.NewRNG(53)
	net := NewNetwork(5, []int{7}, rng)
	net.PackInt8()
	tree := completeTree(7, 5, rng)
	a := tensor.NewArena(0)
	before, _ := net.ForwardInferenceInt8(tree, a)
	beforeCopy := append([]float64(nil), before.Data...)
	a.Reset()

	for i := range net.Layers[0].Wt.W.Data {
		net.Layers[0].Wt.W.Data[i] *= 2
	}
	net.PackInt8()
	after, _ := net.ForwardInferenceInt8(tree, a)
	same := true
	for i := range after.Data {
		if after.Data[i] != beforeCopy[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("repacked kernel produced identical output after doubling Wt")
	}
	want := net.ForwardInference(tree, a)
	for i := range want.Data {
		if e := math.Abs(after.Data[i] - want.Data[i]); e > 0.05*(1+math.Abs(want.Data[i])) {
			t.Fatalf("dim %d after repack: int8 %v vs float %v", i, after.Data[i], want.Data[i])
		}
	}
	a.Reset()
}
