package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewShapeAndSize(t *testing.T) {
	x := New(3, 4, 5)
	if x.Size() != 60 {
		t.Fatalf("Size = %d, want 60", x.Size())
	}
	if x.Bytes() != 480 {
		t.Fatalf("Bytes = %d, want 480", x.Bytes())
	}
	if x.Dims() != 3 || x.Dim(1) != 4 {
		t.Fatalf("bad dims: %v", x.Shape)
	}
}

func TestFromSliceAliases(t *testing.T) {
	d := []float64{1, 2, 3, 4}
	x := FromSlice(d, 2, 2)
	d[0] = 9
	if x.Data[0] != 9 {
		t.Fatal("FromSlice must alias the input slice")
	}
}

func TestFromSliceBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on mismatched shape")
		}
	}()
	FromSlice([]float64{1, 2, 3}, 2, 2)
}

func TestAtSetRoundTrip(t *testing.T) {
	x := New(2, 3)
	x.Set(7.5, 1, 2)
	if x.Data[5] != 7.5 {
		t.Fatalf("row-major offset wrong: %v", x.Data)
	}
}

func TestCloneIndependence(t *testing.T) {
	x := FromSlice([]float64{1, 2}, 2)
	y := x.Clone()
	y.Data[0] = 100
	if x.Data[0] != 1 {
		t.Fatal("Clone must deep-copy")
	}
}

func TestReshapeSharesData(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	y := x.Reshape(3, 2)
	y.Data[0] = 42
	if x.Data[0] != 42 {
		t.Fatal("Reshape must share data")
	}
	if y.Data[5] != 6 {
		t.Fatalf("reshape indexing wrong: %v", y)
	}
}

func TestElementwiseOps(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3}, 3)
	b := FromSlice([]float64{10, 20, 30}, 3)
	if got := Add(a, b); !Equal(got, FromSlice([]float64{11, 22, 33}, 3), 0) {
		t.Fatalf("Add = %v", got)
	}
	if got := Sub(b, a); !Equal(got, FromSlice([]float64{9, 18, 27}, 3), 0) {
		t.Fatalf("Sub = %v", got)
	}
}

func TestReductions(t *testing.T) {
	x := FromSlice([]float64{-1, 4, 2, -5}, 4)
	if x.Sum() != 0 {
		t.Fatalf("Sum = %v", x.Sum())
	}
	if x.Mean() != 0 {
		t.Fatalf("Mean = %v", x.Mean())
	}
	if x.Max() != 4 {
		t.Fatalf("Max = %v", x.Max())
	}
	if x.Min() != -5 {
		t.Fatalf("Min = %v", x.Min())
	}
	want := math.Sqrt(1 + 16 + 4 + 25)
	if math.Abs(x.Norm2()-want) > 1e-12 {
		t.Fatalf("Norm2 = %v, want %v", x.Norm2(), want)
	}
}

func TestEqualTable(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []struct {
		a, b float64
		eps  float64
		want bool
	}{
		{1, 1, 0, true},
		{1, 1.05, 0.1, true},
		{1, 1.5, 0.1, false},
		{0, math.Copysign(0, -1), 0, true},
		{nan, nan, 0, true},
		{nan, 1, 1e9, false},
		{1, nan, 1e9, false},
		{nan, inf, 1e9, false},
		{inf, inf, 0, true},
		{-inf, -inf, 0, true},
		{inf, -inf, inf, false},
		{inf, math.MaxFloat64, inf, false},
		{-inf, 1, 1e9, false},
	} {
		a, b := FromSlice([]float64{7, c.a}, 2), FromSlice([]float64{7, c.b}, 2)
		if got := Equal(a, b, c.eps); got != c.want {
			t.Errorf("Equal(%v, %v, eps %v) = %v, want %v", c.a, c.b, c.eps, got, c.want)
		}
	}
	if Equal(New(2, 3), New(3, 2), 0) {
		t.Error("Equal ignored the shape")
	}
}

func TestMatMulKnown(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float64{7, 8, 9, 10, 11, 12}, 3, 2)
	got := MatMul(a, b)
	want := FromSlice([]float64{58, 64, 139, 154}, 2, 2)
	if !Equal(got, want, 1e-12) {
		t.Fatalf("MatMul = %v, want %v", got, want)
	}
}

func TestMatMulTransposedVariantsAgree(t *testing.T) {
	rng := NewRNG(7)
	a := New(4, 6)
	b := New(6, 5)
	rng.FillNorm(a, 0, 1)
	rng.FillNorm(b, 0, 1)

	want := MatMul(a, b)
	// The two products a backward pass forms, xᵀ·g and g·Wᵀ, each from an
	// operand held transposed, give a·b's bits.
	at := Transpose(a) // (6,4)
	if got := MatMul(TransposeInto(New(4, 6), at), b); !Equal(got, want, 0) {
		t.Fatal("(aᵀ)ᵀ·b disagrees with a·b")
	}
	bt := Transpose(b) // (5,6)
	if got := MatMul(a, Transpose(bt)); !Equal(got, want, 0) {
		t.Fatal("a·(bᵀ)ᵀ disagrees with a·b")
	}
	// Each element is the p-ordered sum from +0.
	for i := 0; i < 4; i++ {
		for j := 0; j < 5; j++ {
			s := 0.0
			for p := 0; p < 6; p++ {
				s += float64(at.Data[p*4+i] * bt.Data[j*6+p])
			}
			if s != want.Data[i*5+j] {
				t.Fatalf("a·b[%d,%d] = %v, p-ordered sum %v", i, j, want.Data[i*5+j], s)
			}
		}
	}
}

func TestTransposeIntoChecksShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("TransposeInto accepted an untransposed out")
		}
	}()
	TransposeInto(New(2, 3), New(2, 3))
}

func TestTransposeInvolution(t *testing.T) {
	f := func(seed uint64) bool {
		rng := NewRNG(seed)
		m, n := 1+rng.Intn(8), 1+rng.Intn(8)
		a := New(m, n)
		rng.FillNorm(a, 0, 1)
		return Equal(Transpose(Transpose(a)), a, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMatMulAssociativityProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := NewRNG(seed)
		a := New(3, 4)
		b := New(4, 5)
		c := New(5, 2)
		rng.FillNorm(a, 0, 1)
		rng.FillNorm(b, 0, 1)
		rng.FillNorm(c, 0, 1)
		left := MatMul(MatMul(a, b), c)
		right := MatMul(a, MatMul(b, c))
		return Equal(left, right, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestAddRowVectorAndSumRows(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	v := FromSlice([]float64{10, 20}, 2)
	AddRowVector(a, v)
	if !Equal(a, FromSlice([]float64{11, 22, 13, 24}, 2, 2), 0) {
		t.Fatalf("AddRowVector = %v", a)
	}
	s := SumRows(a)
	if !Equal(s, FromSlice([]float64{24, 46}, 2), 0) {
		t.Fatalf("SumRows = %v", s)
	}
}

func TestDot(t *testing.T) {
	if got := Dot([]float64{1, 2, 3}, []float64{4, 5, 6}); got != 32 {
		t.Fatalf("Dot = %v, want 32", got)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must produce same stream")
		}
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestRNGNormMoments(t *testing.T) {
	r := NewRNG(3)
	n := 50000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.Norm()
		sum += v
		sumSq += v * v
	}
	mean := sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	if math.Abs(mean) > 0.05 {
		t.Fatalf("Norm mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Fatalf("Norm variance = %v, want ~1", variance)
	}
}

func TestRNGPermIsPermutation(t *testing.T) {
	r := NewRNG(9)
	p := r.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("Perm invalid at %d", v)
		}
		seen[v] = true
	}
}

func TestRNGParetoIsHeavyTailed(t *testing.T) {
	r := NewRNG(11)
	n := 20000
	over := 0
	for i := 0; i < n; i++ {
		v := r.Pareto(1.2)
		if v < 1 {
			t.Fatalf("Pareto below support: %v", v)
		}
		if v > 10 {
			over++
		}
	}
	// P(X>10) = 10^-1.2 ≈ 0.063 for Pareto(1, 1.2).
	frac := float64(over) / float64(n)
	if frac < 0.04 || frac > 0.09 {
		t.Fatalf("Pareto tail fraction = %v, want ~0.063", frac)
	}
}

func TestGlorotUniformBounds(t *testing.T) {
	r := NewRNG(5)
	w := New(64, 32)
	r.GlorotUniform(w, 64, 32)
	limit := math.Sqrt(6.0 / 96.0)
	if w.Max() > limit || w.Min() < -limit {
		t.Fatalf("Glorot out of bounds: [%v, %v] limit %v", w.Min(), w.Max(), limit)
	}
	if math.Abs(w.Mean()) > 0.02 {
		t.Fatalf("Glorot mean = %v, want ~0", w.Mean())
	}
}

func TestMatMulParallelMatchesSerial(t *testing.T) {
	// Sizes straddling the parallel threshold must agree exactly with a
	// plain triple-loop reference.
	rng := NewRNG(21)
	for _, dims := range [][3]int{{3, 4, 5}, {64, 64, 64}, {200, 150, 180}, {1, 500, 700}} {
		m, k, n := dims[0], dims[1], dims[2]
		a := New(m, k)
		b := New(k, n)
		rng.FillNorm(a, 0, 1)
		rng.FillNorm(b, 0, 1)
		got := MatMul(a, b)
		want := New(m, n)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				s := 0.0
				for p := 0; p < k; p++ {
					s += a.Data[i*k+p] * b.Data[p*n+j]
				}
				want.Data[i*n+j] = s
			}
		}
		if !Equal(got, want, 1e-9) {
			t.Fatalf("parallel MatMul mismatch at %v", dims)
		}
	}
}

// TestMatMulIntoReusesBuffer: MatMulInto clears each row before AccumRows
// adds into it, so whatever out held — NaN, ±Inf, −0 — is gone and out is
// bit for bit the fresh product, on the serial path and the sharded one.
func TestMatMulIntoReusesBuffer(t *testing.T) {
	soil := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 1e308, 123}
	for _, dims := range [][3]int{{5, 7, 9}, {80, 90, 70}} {
		m, k, n := dims[0], dims[1], dims[2]
		rng := NewRNG(22)
		a, b := New(m, k), New(k, n)
		rng.FillNorm(a, 0, 1)
		rng.FillNorm(b, 0, 1)
		out := New(m, n)
		for i := range out.Data {
			out.Data[i] = soil[i%len(soil)]
		}
		MatMulInto(out, a, b)
		want := MatMul(a, b)
		for i, v := range out.Data {
			if math.Float64bits(v) != math.Float64bits(want.Data[i]) {
				t.Fatalf("%v: out[%d] = %v, fresh product %v", dims, i, v, want.Data[i])
			}
		}
	}
}
