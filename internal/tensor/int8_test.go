package tensor

import (
	"math"
	"runtime"
	"testing"
)

// refInt8MatMul computes the dequantised product the slow, obvious way so
// the kernel has an independent oracle. q holds the bias-shifted bytes
// QuantizeRowsInto produces (qa+63), which the oracle unbiases per element.
func refInt8MatMul(q []int8, scales []float64, w *Int8Matrix, m int) *Tensor {
	out := New(m, w.Out)
	for i := 0; i < m; i++ {
		for j := 0; j < w.Out; j++ {
			acc := int32(0)
			for p := 0; p < w.In; p++ {
				acc += (int32(q[i*w.In+p]) - 63) * int32(w.Q[j*w.In+p])
			}
			// Same dequantisation order as the kernel (fused scale factor),
			// so exact-compare tests can demand bit identity.
			out.Data[i*w.Out+j] = float64(acc) * (scales[i] * w.Scale[j])
		}
	}
	return out
}

func randMat(rng *RNG, m, n, scale float64) *Tensor {
	t := New(int(m), int(n))
	for i := range t.Data {
		t.Data[i] = (rng.Float64() - 0.5) * 2 * scale
	}
	return t
}

func TestQuantizeColumnsRoundTrip(t *testing.T) {
	rng := NewRNG(7)
	w := randMat(rng, 13, 9, 3)
	// One all-zero column must survive with scale 0.
	for i := 0; i < 13; i++ {
		w.Data[i*9+4] = 0
	}
	q := QuantizeColumns(w)
	if q.In != 13 || q.Out != 9 {
		t.Fatalf("packed dims %dx%d, want 13x9", q.In, q.Out)
	}
	if q.Scale[4] != 0 {
		t.Fatalf("zero column got scale %v", q.Scale[4])
	}
	for j := 0; j < 9; j++ {
		amax := 0.0
		for i := 0; i < 13; i++ {
			if a := math.Abs(w.Data[i*9+j]); a > amax {
				amax = a
			}
		}
		for i := 0; i < 13; i++ {
			got := float64(q.Q[j*13+i]) * q.Scale[j]
			want := w.Data[i*9+j]
			// Symmetric int8: round-trip error is at most half a step.
			if e := math.Abs(got - want); e > amax/254+1e-12 {
				t.Fatalf("col %d row %d: round-trip %v vs %v (err %v, amax %v)", j, i, got, want, e, amax)
			}
			if e := math.Abs(got - want); e > q.MaxErr+1e-12 {
				t.Fatalf("MaxErr %v underreports observed error %v", q.MaxErr, e)
			}
		}
	}
}

func TestQuantizeRowsInto(t *testing.T) {
	rng := NewRNG(11)
	x := randMat(rng, 6, 17, 5)
	for p := 0; p < 17; p++ {
		x.Data[3*17+p] = 0 // one all-zero activation row
	}
	q := make([]int8, 6*17)
	scales := make([]float64, 6)
	meta := make([]int32, 12)
	maxErr := QuantizeRowsInto(q, scales, meta, x)
	if scales[3] != 0 {
		t.Fatalf("zero row got scale %v", scales[3])
	}
	worst := 0.0
	for i := 0; i < 6; i++ {
		var rs, nnz int32
		for p := 0; p < 17; p++ {
			qa := int32(q[i*17+p]) - 63
			rs += qa
			if qa != 0 {
				nnz++
			}
			got := float64(qa) * scales[i]
			if e := math.Abs(got - x.Data[i*17+p]); e > worst {
				worst = e
			}
		}
		if meta[2*i] != 128*rs || meta[2*i+1] != nnz {
			t.Fatalf("row %d meta (%d,%d), recomputed (%d,%d)", i, meta[2*i], meta[2*i+1], 128*rs, nnz)
		}
	}
	if math.Abs(worst-maxErr) > 1e-12 {
		t.Fatalf("reported maxErr %v, recomputed %v", maxErr, worst)
	}
}

func TestInt8MatMulIntoMatchesReference(t *testing.T) {
	rng := NewRNG(19)
	for _, dims := range [][3]int{{1, 8, 5}, {4, 32, 16}, {9, 33, 7}} {
		m, k, n := dims[0], dims[1], dims[2]
		w := QuantizeColumns(randMat(rng, float64(k), float64(n), 2))
		x := randMat(rng, float64(m), float64(k), 4)
		q := make([]int8, m*k)
		scales := make([]float64, m)
		meta := make([]int32, 2*m)
		QuantizeRowsInto(q, scales, meta, x)
		want := refInt8MatMul(q, scales, w, m)
		got := New(m, n)
		Int8MatMulInto(got, q, scales, meta, w)
		for i := range got.Data {
			if math.Abs(got.Data[i]-want.Data[i]) > 1e-12 {
				t.Fatalf("m=%d k=%d n=%d: elem %d = %v, want %v", m, k, n, i, got.Data[i], want.Data[i])
			}
		}
	}
}

// TestInt8MatMulSparseRowsMatchReference drives the sparse row kernel —
// wide inputs, rows that are almost entirely zero — interleaved with dense
// and all-zero rows so every pairing branch in int8Rows is crossed, and
// checks bit-identity with the dense reference. The sparse reduction
// re-derives its bias correction from the touched words, so any drift from
// the Corr form would show up as an exact-compare failure here.
func TestInt8MatMulSparseRowsMatchReference(t *testing.T) {
	rng := NewRNG(41)
	m, k, n := 11, 232, 30
	w := QuantizeColumns(randMat(rng, float64(k), float64(n), 2))
	x := New(m, k)
	for i := 0; i < m; i++ {
		switch i % 4 {
		case 0: // sparse: a handful of nonzeros, like an O-T-P encoding row
			for c := 0; c < 1+rng.Intn(3); c++ {
				x.Data[i*k+rng.Intn(k)] = (rng.Float64() - 0.5) * 4
			}
		case 1: // dense
			for p := 0; p < k; p++ {
				x.Data[i*k+p] = (rng.Float64() - 0.5) * 4
			}
		case 2: // all-zero
		default: // borderline: just past the sparse cut
			for c := 0; c < k/int8SparseCut+2; c++ {
				x.Data[i*k+rng.Intn(k)] = (rng.Float64() - 0.5) * 4
			}
		}
	}
	q := make([]int8, m*k)
	scales := make([]float64, m)
	meta := make([]int32, 2*m)
	QuantizeRowsInto(q, scales, meta, x)
	sawSparse, sawDense := false, false
	for i := 0; i < m; i++ {
		nnz := 0
		for p := 0; p < k; p++ {
			if q[i*k+p] != 63 {
				nnz++
			}
		}
		if scales[i] == 0 {
			continue
		}
		if sparseRow(nnz, k) {
			sawSparse = true
		} else {
			sawDense = true
		}
	}
	if !sawSparse || !sawDense {
		t.Fatalf("fixture degenerate: sparse=%v dense=%v rows", sawSparse, sawDense)
	}
	want := refInt8MatMul(q, scales, w, m)
	got := New(m, n)
	Int8MatMulInto(got, q, scales, meta, w)
	for i := range got.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("elem %d = %v, want %v (sparse/dense paths disagree)", i, got.Data[i], want.Data[i])
		}
	}
}

// TestInt8MatMulApproximatesFloat pins the end-to-end quantisation error of
// one dequantised GEMM against the float product: per-element error is
// bounded by the sum of activation and weight step sizes times the reduction
// depth, and in practice far below it.
func TestInt8MatMulApproximatesFloat(t *testing.T) {
	rng := NewRNG(23)
	m, k, n := 8, 64, 32
	wf := randMat(rng, float64(k), float64(n), 1)
	x := randMat(rng, float64(m), float64(k), 1)
	w := QuantizeColumns(wf)
	q := make([]int8, m*k)
	scales := make([]float64, m)
	meta := make([]int32, 2*m)
	QuantizeRowsInto(q, scales, meta, x)
	exact := MatMul(x, wf)
	got := New(m, n)
	Int8MatMulInto(got, q, scales, meta, w)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			e := math.Abs(got.Data[i*n+j] - exact.Data[i*n+j])
			// Loose analytic bound: k terms, each off by at most
			// (|x|max/254)·|w| + (|w|max/254)·|x| + cross term.
			bound := float64(k) * (scales[i] + w.Scale[j]) * 127 * (scales[i] + w.Scale[j])
			if e > bound {
				t.Fatalf("(%d,%d): int8 error %v exceeds bound %v", i, j, e, bound)
			}
			if e > 0.5 {
				t.Fatalf("(%d,%d): int8 error %v implausibly large for unit inputs", i, j, e)
			}
		}
	}
}

// TestInt8MatMulParallelDeterministic checks that fan-out across the worker
// budget cannot change results: the sharded and serial paths write
// byte-identical outputs.
func TestInt8MatMulParallelDeterministic(t *testing.T) {
	// The kernels ask for GOMAXPROCS workers; force >1 so the sharded path
	// actually engages on single-core CI hosts.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	rng := NewRNG(29)
	// Past the flop threshold so the sharded path engages.
	m, k, n := 128, 64, 64
	if m*k*n < ParallelFlopThreshold {
		t.Fatalf("test dims below parallel threshold")
	}
	wf := randMat(rng, float64(k), float64(n), 1)
	x := randMat(rng, float64(m), float64(k), 1)
	w := QuantizeColumns(wf)
	q := make([]int8, m*k)
	scales := make([]float64, m)
	meta := make([]int32, 2*m)
	QuantizeRowsInto(q, scales, meta, x)
	par := New(m, n)
	Int8MatMulInto(par, q, scales, meta, w)
	serial := New(m, n)
	int8Rows(serial, q, scales, meta, w, 0, m)
	for i := range par.Data {
		if par.Data[i] != serial.Data[i] {
			t.Fatalf("parallel and serial kernels disagree at %d: %v vs %v", i, par.Data[i], serial.Data[i])
		}
	}
}

func TestArenaGetI8(t *testing.T) {
	a := NewArena(0)
	s1 := a.GetI8(64)
	if len(s1) != 64 {
		t.Fatalf("GetI8(64) returned len %d", len(s1))
	}
	for i := range s1 {
		s1[i] = int8(i)
	}
	a.Reset() // records overflow, regrows
	s2 := a.GetI8(64)
	s3 := a.GetI8(32)
	if len(s2) != 64 || len(s3) != 32 {
		t.Fatalf("post-regrow GetI8 lengths %d, %d", len(s2), len(s3))
	}
	// After warm-up, a same-sized cycle must not allocate.
	a.Reset()
	allocs := testing.AllocsPerRun(100, func() {
		a.GetI8(64)
		a.GetI8(32)
		a.Reset()
	})
	if allocs != 0 {
		t.Fatalf("warmed GetI8 cycle allocates %v/op, want 0", allocs)
	}
}
