package nn

import (
	"math"
	"testing"

	"prestroid/internal/tensor"
)

// numGrad estimates dLoss/dx[i] by central differences through an arbitrary
// forward function. Used to validate every layer's analytic backward pass.
func numGrad(f func(x *tensor.Tensor) float64, x *tensor.Tensor, i int) float64 {
	const h = 1e-5
	orig := x.Data[i]
	x.Data[i] = orig + h
	up := f(x)
	x.Data[i] = orig - h
	down := f(x)
	x.Data[i] = orig
	return (up - down) / (2 * h)
}

func sumForward(l Layer) func(*tensor.Tensor) float64 {
	return func(x *tensor.Tensor) float64 {
		return l.Forward(x, true).Sum()
	}
}

// checkInputGrad verifies the analytic input gradient of layer l against a
// numeric estimate, for a loss equal to the sum of the layer's outputs.
func checkInputGrad(t *testing.T, l Layer, x *tensor.Tensor, tol float64) {
	t.Helper()
	out := l.Forward(x, true)
	ones := tensor.New(out.Shape...)
	ones.Fill(1)
	gx := l.Backward(ones)
	for i := range x.Data {
		want := numGrad(sumForward(l), x, i)
		if math.Abs(gx.Data[i]-want) > tol {
			t.Fatalf("input grad[%d] = %v, numeric %v", i, gx.Data[i], want)
		}
	}
}

// checkParamGrad verifies the analytic parameter gradients of layer l.
func checkParamGrad(t *testing.T, l Layer, x *tensor.Tensor, tol float64) {
	t.Helper()
	ZeroGrads(l.Params())
	out := l.Forward(x, true)
	ones := tensor.New(out.Shape...)
	ones.Fill(1)
	l.Backward(ones)
	for _, p := range l.Params() {
		for i := range p.W.Data {
			f := func(_ *tensor.Tensor) float64 {
				return l.Forward(x, true).Sum()
			}
			want := numGrad(func(*tensor.Tensor) float64 { return f(nil) }, p.W, i)
			if math.Abs(p.G.Data[i]-want) > tol {
				t.Fatalf("%s grad[%d] = %v, numeric %v", p.Name, i, p.G.Data[i], want)
			}
		}
	}
}

func TestDenseForwardKnown(t *testing.T) {
	rng := tensor.NewRNG(1)
	d := NewDense(2, 2, rng)
	d.Weight.W.Data = []float64{1, 2, 3, 4}
	d.Bias.W.Data = []float64{0.5, -0.5}
	x := tensor.FromSlice([]float64{1, 1}, 1, 2)
	out := d.Forward(x, false)
	want := tensor.FromSlice([]float64{4.5, 5.5}, 1, 2)
	if !tensor.Equal(out, want, 1e-12) {
		t.Fatalf("Dense forward = %v, want %v", out, want)
	}
}

func TestDenseGradients(t *testing.T) {
	rng := tensor.NewRNG(2)
	d := NewDense(3, 4, rng)
	x := tensor.New(2, 3)
	rng.FillNorm(x, 0, 1)
	checkInputGrad(t, d, x, 1e-6)
	checkParamGrad(t, d, x, 1e-6)
}

func TestReLUGradients(t *testing.T) {
	rng := tensor.NewRNG(3)
	x := tensor.New(2, 5)
	rng.FillNorm(x, 0, 1)
	checkInputGrad(t, NewReLU(), x, 1e-6)
}

func TestSigmoidGradients(t *testing.T) {
	rng := tensor.NewRNG(4)
	x := tensor.New(2, 5)
	rng.FillNorm(x, 0, 1)
	checkInputGrad(t, NewSigmoid(), x, 1e-6)
}

func TestSigmoidRange(t *testing.T) {
	x := tensor.FromSlice([]float64{-100, 0, 100}, 1, 3)
	out := NewSigmoid().Forward(x, false)
	if out.Data[0] > 1e-10 || math.Abs(out.Data[1]-0.5) > 1e-12 || out.Data[2] < 1-1e-10 {
		t.Fatalf("Sigmoid = %v", out)
	}
}

func TestDropoutInference(t *testing.T) {
	rng := tensor.NewRNG(6)
	d := NewDropout(0.5, rng)
	x := tensor.FromSlice([]float64{1, 2, 3, 4}, 1, 4)
	out := d.Forward(x, false)
	if !tensor.Equal(out, x, 0) {
		t.Fatal("Dropout must be identity at inference")
	}
}

func TestDropoutTrainingScaling(t *testing.T) {
	rng := tensor.NewRNG(7)
	d := NewDropout(0.5, rng)
	x := tensor.New(1, 10000)
	x.Fill(1)
	out := d.Forward(x, true)
	// Surviving elements are scaled by 2; expected mean stays ~1.
	if math.Abs(out.Mean()-1) > 0.05 {
		t.Fatalf("Dropout inverted scaling broken: mean %v", out.Mean())
	}
	zeros := 0
	for _, v := range out.Data {
		if v == 0 {
			zeros++
		} else if math.Abs(v-2) > 1e-12 {
			t.Fatalf("survivor not scaled: %v", v)
		}
	}
	frac := float64(zeros) / 10000
	if frac < 0.45 || frac > 0.55 {
		t.Fatalf("drop fraction = %v, want ~0.5", frac)
	}
}

func TestDropoutBackwardUsesSameMask(t *testing.T) {
	rng := tensor.NewRNG(8)
	d := NewDropout(0.3, rng)
	x := tensor.New(1, 100)
	x.Fill(1)
	out := d.Forward(x, true)
	g := tensor.New(1, 100)
	g.Fill(1)
	gx := d.Backward(g)
	for i := range out.Data {
		if (out.Data[i] == 0) != (gx.Data[i] == 0) {
			t.Fatal("backward mask differs from forward mask")
		}
	}
}

func TestBatchNormNormalises(t *testing.T) {
	bn := NewBatchNorm(3)
	rng := tensor.NewRNG(9)
	x := tensor.New(64, 3)
	rng.FillNorm(x, 5, 3) // mean 5, std 3 per feature
	out := bn.Forward(x, true)
	for j := 0; j < 3; j++ {
		mu, va := 0.0, 0.0
		for i := 0; i < 64; i++ {
			mu += out.Data[i*3+j]
		}
		mu /= 64
		for i := 0; i < 64; i++ {
			d := out.Data[i*3+j] - mu
			va += d * d
		}
		va /= 64
		if math.Abs(mu) > 1e-8 || math.Abs(va-1) > 1e-3 {
			t.Fatalf("feature %d not normalised: mean %v var %v", j, mu, va)
		}
	}
}

func TestBatchNormGradients(t *testing.T) {
	bn := NewBatchNorm(3)
	rng := tensor.NewRNG(10)
	x := tensor.New(4, 3)
	rng.FillNorm(x, 0, 1)
	// Non-trivial gamma/beta.
	bn.Gamma.W.Data = []float64{1.5, 0.5, 2}
	bn.Beta.W.Data = []float64{0.1, -0.2, 0.3}
	// Weighted-sum loss so per-element gradients differ.
	weights := tensor.New(4, 3)
	rng.FillNorm(weights, 0, 1)
	loss := func(xx *tensor.Tensor) float64 {
		out := bn.Forward(xx, true)
		s := 0.0
		for i := range out.Data {
			s += out.Data[i] * weights.Data[i]
		}
		return s
	}
	ZeroGrads(bn.Params())
	bn.Forward(x, true)
	gx := bn.Backward(weights)
	for i := range x.Data {
		want := numGrad(loss, x, i)
		if math.Abs(gx.Data[i]-want) > 1e-5 {
			t.Fatalf("bn input grad[%d] = %v, numeric %v", i, gx.Data[i], want)
		}
	}
}

func TestBatchNormInferenceUsesRunningStats(t *testing.T) {
	bn := NewBatchNorm(2)
	rng := tensor.NewRNG(11)
	// Train for several batches so running stats converge.
	for i := 0; i < 200; i++ {
		x := tensor.New(32, 2)
		rng.FillNorm(x, 10, 2)
		bn.Forward(x, true)
	}
	x := tensor.New(4, 2)
	x.Fill(10) // exactly the running mean
	out := bn.Forward(x, false)
	for _, v := range out.Data {
		if math.Abs(v) > 0.2 {
			t.Fatalf("inference output %v, want ~0 at running mean", v)
		}
	}
}

func TestEmbeddingLookupAndGrad(t *testing.T) {
	rng := tensor.NewRNG(12)
	e := NewEmbedding(10, 4, rng)
	ids := [][]int{{1, 2}, {2, 3}}
	out := e.ForwardIDs(ids)
	if out.Shape[0] != 2 || out.Shape[1] != 2 || out.Shape[2] != 4 {
		t.Fatalf("embedding shape %v", out.Shape)
	}
	// Row 2 appears twice; its gradient should be the sum of both positions.
	g := tensor.New(2, 2, 4)
	g.Fill(1)
	ZeroGrads(e.Params())
	e.BackwardIDs(g)
	for i := 0; i < 4; i++ {
		if e.Weight.G.Data[2*4+i] != 2 {
			t.Fatalf("shared row grad = %v, want 2", e.Weight.G.Data[2*4+i])
		}
		if e.Weight.G.Data[1*4+i] != 1 {
			t.Fatalf("single row grad = %v, want 1", e.Weight.G.Data[1*4+i])
		}
		if e.Weight.G.Data[0] != 0 {
			t.Fatalf("untouched row grad = %v, want 0", e.Weight.G.Data[0])
		}
	}
}

func TestConv1DForwardKnown(t *testing.T) {
	rng := tensor.NewRNG(13)
	c := NewConv1D(2, 1, 1, rng)
	c.Weight.W.Data = []float64{1, -1} // difference filter
	c.Bias.W.Data = []float64{0}
	x := tensor.FromSlice([]float64{1, 3, 6, 10}, 1, 4, 1)
	out := c.Forward(x, false)
	want := tensor.FromSlice([]float64{-2, -3, -4}, 1, 3, 1)
	if !tensor.Equal(out, want, 1e-12) {
		t.Fatalf("conv = %v, want %v", out, want)
	}
}

func TestConv1DGradients(t *testing.T) {
	rng := tensor.NewRNG(14)
	c := NewConv1D(3, 2, 4, rng)
	x := tensor.New(2, 6, 2)
	rng.FillNorm(x, 0, 1)
	checkInputGrad(t, c, x, 1e-5)
	checkParamGrad(t, c, x, 1e-5)
}

func TestGlobalMaxPoolForwardBackward(t *testing.T) {
	p := NewGlobalMaxPool1D()
	x := tensor.FromSlice([]float64{
		1, 5,
		9, 2,
		3, 7,
	}, 1, 3, 2)
	out := p.Forward(x, true)
	want := tensor.FromSlice([]float64{9, 7}, 1, 2)
	if !tensor.Equal(out, want, 0) {
		t.Fatalf("maxpool = %v, want %v", out, want)
	}
	g := tensor.FromSlice([]float64{10, 20}, 1, 2)
	gx := p.Backward(g)
	wantG := tensor.FromSlice([]float64{
		0, 0,
		10, 0,
		0, 20,
	}, 1, 3, 2)
	if !tensor.Equal(gx, wantG, 0) {
		t.Fatalf("maxpool grad = %v, want %v", gx, wantG)
	}
}

func TestSequentialComposition(t *testing.T) {
	rng := tensor.NewRNG(15)
	net := NewSequential(
		NewDense(4, 8, rng),
		NewReLU(),
		NewDense(8, 1, rng),
		NewSigmoid(),
	)
	x := tensor.New(3, 4)
	rng.FillNorm(x, 0, 1)
	out := net.Forward(x, true)
	if out.Shape[0] != 3 || out.Shape[1] != 1 {
		t.Fatalf("sequential output shape %v", out.Shape)
	}
	for _, v := range out.Data {
		if v <= 0 || v >= 1 {
			t.Fatalf("sigmoid output out of range: %v", v)
		}
	}
	if got := ParamCount(net.Params()); got != 4*8+8+8*1+1 {
		t.Fatalf("ParamCount = %d", got)
	}
}

func TestHuberQuadraticAndLinearRegimes(t *testing.T) {
	l := NewHuberLoss(1)
	p := tensor.FromSlice([]float64{0.5}, 1, 1)
	y := tensor.FromSlice([]float64{0}, 1, 1)
	if got := l.Value(p, y); math.Abs(got-0.125) > 1e-12 {
		t.Fatalf("quadratic Huber = %v, want 0.125", got)
	}
	p2 := tensor.FromSlice([]float64{3}, 1, 1)
	if got := l.Value(p2, y); math.Abs(got-2.5) > 1e-12 { // 1*(3-0.5)
		t.Fatalf("linear Huber = %v, want 2.5", got)
	}
	// Gradient clipping at ±delta.
	g := l.Grad(p2, y)
	if g.Data[0] != 1 {
		t.Fatalf("linear Huber grad = %v, want 1", g.Data[0])
	}
	g2 := l.Grad(tensor.FromSlice([]float64{-3}, 1, 1), y)
	if g2.Data[0] != -1 {
		t.Fatalf("neg linear Huber grad = %v, want -1", g2.Data[0])
	}
}

func TestHuberGradMatchesNumeric(t *testing.T) {
	l := NewHuberLoss(1)
	rng := tensor.NewRNG(16)
	p := tensor.New(8, 1)
	y := tensor.New(8, 1)
	rng.FillNorm(p, 0, 2)
	rng.FillNorm(y, 0, 2)
	g := l.Grad(p, y)
	for i := range p.Data {
		want := numGrad(func(x *tensor.Tensor) float64 { return l.Value(x, y) }, p, i)
		if math.Abs(g.Data[i]-want) > 1e-6 {
			t.Fatalf("huber grad[%d] = %v, numeric %v", i, g.Data[i], want)
		}
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	// Minimise (w-3)² with ADAM; should converge near 3.
	p := NewParam("w", 1)
	p.W.Data[0] = -5
	opt, slab := NewAdam(0.1), NewSlab([]*Param{p})
	for i := 0; i < 500; i++ {
		p.G.Data[0] = 2 * (p.W.Data[0] - 3)
		opt.Step(slab)
	}
	if math.Abs(p.W.Data[0]-3) > 0.01 {
		t.Fatalf("Adam converged to %v, want 3", p.W.Data[0])
	}
}

func TestTrainingRegressionEndToEnd(t *testing.T) {
	// Learn y = sigmoid(2x₀ - x₁): a sanity check that Forward/Backward/Adam
	// wiring trains a small net below a loss threshold.
	rng := tensor.NewRNG(17)
	net := NewSequential(
		NewDense(2, 16, rng),
		NewReLU(),
		NewDense(16, 1, rng),
		NewSigmoid(),
	)
	opt, slab := NewAdam(0.01), NewSlab(net.Params())
	loss := NewHuberLoss(1)
	var final float64
	for epoch := 0; epoch < 400; epoch++ {
		x := tensor.New(32, 2)
		rng.FillNorm(x, 0, 1)
		y := tensor.New(32, 1)
		for i := 0; i < 32; i++ {
			z := 2*x.Data[i*2] - x.Data[i*2+1]
			y.Data[i] = 1 / (1 + math.Exp(-z))
		}
		pred := net.Forward(x, true)
		final = loss.Value(pred, y)
		net.Backward(loss.Grad(pred, y))
		opt.Step(slab)
	}
	if final > 0.001 {
		t.Fatalf("end-to-end training did not converge: loss %v", final)
	}
}
