package nn

import (
	"math"
	"testing"

	"prestroid/internal/tensor"
)

// TestReleaseDropsStepBuffers runs a dense head — Dense, BatchNorm, ReLU,
// Dropout, Dense, Sigmoid — for a training step, releases every layer, checks
// each held buffer is gone, and runs a second step: its output, input
// gradient and parameter gradients equal a never-released twin's bit for bit.
func TestReleaseDropsStepBuffers(t *testing.T) {
	head := func() *Sequential {
		rng := tensor.NewRNG(31)
		return NewSequential(
			NewDense(6, 5, rng), NewBatchNorm(5), NewReLU(), NewDropout(0.3, rng),
			NewDense(5, 1, rng), NewSigmoid(),
		)
	}
	released, twin := head(), head()
	rng := tensor.NewRNG(32)
	step := func(net *Sequential, x *tensor.Tensor) (out, gx *tensor.Tensor) {
		out = net.Forward(x, true)
		g := tensor.New(out.Shape...)
		g.Fill(1)
		return out, net.Backward(g)
	}
	for s := 0; s < 2; s++ {
		x := tensor.New(4, 6)
		rng.FillNorm(x, 0, 1)
		out, gx := step(released, x)
		wantOut, wantGx := step(twin, x)
		same := func(what string, a, b *tensor.Tensor) {
			for i := range a.Data {
				if math.Float64bits(a.Data[i]) != math.Float64bits(b.Data[i]) {
					t.Fatalf("step %d: %s[%d] = %v after Release, %v without", s, what, i, a.Data[i], b.Data[i])
				}
			}
		}
		same("output", out, wantOut)
		same("input gradient", gx, wantGx)
		for i, p := range released.Params() {
			same(p.Name+" gradient", p.G, twin.Params()[i].G)
		}
		for _, l := range released.Layers {
			l.(Releaser).Release()
		}
	}
	for _, l := range released.Layers {
		held := false
		switch l := l.(type) {
		case *Dense:
			held = l.lastInput != nil || l.xT != nil || l.wT != nil || l.dx != nil
		case *BatchNorm:
			held = l.xHat != nil || l.stdInv != nil
		case *ReLU:
			held = l.mask != nil
		case *Dropout:
			held = l.keep != nil
		case *Sigmoid:
			held = l.lastOut != nil
		}
		if held {
			t.Fatalf("%T still holds a training buffer after Release", l)
		}
	}
}
