package nn

import (
	"math"
	"testing"

	"prestroid/internal/tensor"
)

// assertSameBits requires the two tensors to be bit-for-bit identical —
// the arena inference path's correctness bar.
func assertSameBits(t *testing.T, got, want *tensor.Tensor, who string) {
	t.Helper()
	if got.Size() != want.Size() {
		t.Fatalf("%s: size %v vs %v", who, got.Shape, want.Shape)
	}
	for i := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("%s: element %d differs: %v vs %v", who, i, got.Data[i], want.Data[i])
		}
	}
}

func TestForwardArenaMatchesForward(t *testing.T) {
	rng := tensor.NewRNG(21)
	x := tensor.New(3, 6)
	rng.FillNorm(x, 0, 2)

	bn := NewBatchNorm(6)
	// Give batch norm non-trivial running statistics.
	warm := tensor.New(5, 6)
	rng.FillNorm(warm, 1, 3)
	bn.Forward(warm, true)

	layers := []Layer{
		NewDense(6, 4, rng),
		NewReLU(),
		NewSigmoid(),
		NewDropout(0.5, rng),
	}
	// Exercise each layer alone and the batch-norm over the raw input.
	a := tensor.NewArena(0)
	for _, l := range layers {
		want := l.Forward(x, false)
		got := l.(ArenaForwarder).ForwardArena(x, a)
		assertSameBits(t, got, want, "layer")
		a.Reset()
	}
	want := bn.Forward(x, false)
	got := bn.ForwardArena(x, a)
	assertSameBits(t, got, want, "batchnorm")
	a.Reset()
}

func TestForwardInferenceMatchesSequential(t *testing.T) {
	rng := tensor.NewRNG(22)
	layers := []Layer{
		NewDense(5, 8, rng),
		NewBatchNorm(8),
		NewReLU(),
		NewDropout(0.1, rng),
		NewDense(8, 1, rng),
		NewSigmoid(),
	}
	x := tensor.New(4, 5)
	rng.FillNorm(x, 0, 1)

	want := x
	for _, l := range layers {
		want = l.Forward(want, false)
	}
	a := tensor.NewArena(0)
	got := ForwardInference(layers, x, a)
	assertSameBits(t, got, want, "stack")

	// Steady state: after warm-up the arena stack must not allocate.
	a.Reset()
	ForwardInference(layers, x, a)
	a.Reset()
	allocs := testing.AllocsPerRun(50, func() {
		ForwardInference(layers, x, a)
		a.Reset()
	})
	if allocs != 0 {
		t.Fatalf("arena inference stack allocates: %v allocs/op", allocs)
	}
}
