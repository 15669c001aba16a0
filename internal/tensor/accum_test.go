package tensor

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"
)

// refAccumSegments is AccumSegments' definition written element by element:
// segment after segment, out[j] receives the segment's own sum over its p,
// from +0, of the rounded products with x[p] ≠ 0, added once the sum is
// complete — +0 for a segment with nothing to sum.
func refAccumSegments(out, x, b []float64, ends []int) {
	n := len(out)
	start := 0
	for _, end := range ends {
		for j := range out {
			s := 0.0
			for p := start; p < end; p++ {
				if xv := x[p]; xv != 0 {
					s += float64(xv * b[p*n+j])
				}
			}
			out[j] += s
		}
		start = end
	}
}

// sameBits is equality of bit patterns, except that any NaN equals any NaN:
// which payload survives NaN+NaN depends on operand order, which the
// definition leaves open.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

// paths are AccumRows' two implementations as setSIMD selects them.
var paths = []struct {
	name string
	simd bool
}{{"simd", true}, {"go", false}}

// eachPath runs f with the assembly path on (skipped where the CPU lacks it)
// and forced off.
func eachPath(t *testing.T, f func(t *testing.T)) {
	for _, path := range paths {
		t.Run(path.name, func(t *testing.T) {
			if path.simd && !haveSIMD {
				t.Skip("no AVX2")
			}
			defer setSIMD(setSIMD(path.simd))
			f(t)
		})
	}
}

// checkAccumRows runs AccumSegments (AccumRows when ends is nil) into a
// guarded output pre-soiled with palette values, starting at palette[soil],
// and requires the bits of the soil plus each segment's reference sum, added
// in order, and untouched guards.
func checkAccumRows(t testing.TB, x, b []float64, n, soil int, ends []int) {
	t.Helper()
	const guard = 12345.678
	buf := make([]float64, n+2)
	buf[0], buf[n+1] = guard, guard
	got := buf[1 : n+1 : n+1]
	for j := range got {
		got[j] = palette[(soil+j)%len(palette)]
	}
	want := append([]float64(nil), got...)
	if ends == nil {
		AccumRows(got, x, b)
		refAccumSegments(want, x, b, []int{len(x)})
	} else {
		AccumSegments(got, x, b, ends)
		refAccumSegments(want, x, b, ends)
	}
	if buf[0] != guard || buf[n+1] != guard {
		t.Fatalf("n=%d k=%d ends=%v: wrote outside out", n, len(x), ends)
	}
	for j := range want {
		if !sameBits(got[j], want[j]) {
			t.Fatalf("n=%d k=%d ends=%v: out[%d] = %v (%#x), reference %v (%#x)", n, len(x), ends, j,
				got[j], math.Float64bits(got[j]), want[j], math.Float64bits(want[j]))
		}
	}
}

// drawEnds cuts k coefficients into up to six segments at random points,
// repeats allowed, so that segments come out empty anywhere — first, in the
// middle and trailing — and, with k past 64, run across the kernel's chunks.
func drawEnds(rng *RNG, k int) []int {
	ends := make([]int, rng.Intn(6))
	for i := range ends {
		ends[i] = rng.Intn(k + 1)
	}
	slices.Sort(ends)
	ends = append(ends, k)
	for rng.Intn(3) == 0 {
		ends = append(ends, k)
	}
	return ends
}

// Awkward values: both zeros, NaN, both infinities, subnormals, values whose
// products overflow or underflow, and plain ones.
var (
	negZero   = math.Copysign(0, -1)
	subnormal = math.SmallestNonzeroFloat64 * 3
	palette   = []float64{0, negZero, math.NaN(), math.Inf(1), math.Inf(-1), subnormal, -subnormal,
		math.MaxFloat64 / 2, 1e-300, 1, -1.5, 0.1, 3.25}
)

func TestAccumRowsMatchesReference(t *testing.T) {
	eachPath(t, func(t *testing.T) {
		rng := NewRNG(31)
		for n := 0; n <= 70; n++ {
			for _, k := range []int{0, 1, 2, 5, 17, 33, 64, 67, 130} {
				// Coefficients mix zeros of both signs with palette values;
				// the weights are mostly normal, with NaN and ±Inf rows
				// sitting under some of the zero coefficients, where they
				// must never be read.
				x := make([]float64, k)
				b := make([]float64, k*n)
				for p := range x {
					switch r := rng.Intn(4); r {
					case 0:
						x[p] = 0
					case 1:
						x[p] = negZero
					default:
						x[p] = palette[rng.Intn(len(palette))]
					}
					for j := p * n; j < (p+1)*n; j++ {
						b[j] = rng.Norm()
						switch rng.Intn(16) {
						case 0:
							b[j] = palette[rng.Intn(len(palette))]
						case 1:
							if x[p] == 0 {
								b[j] = math.NaN()
							}
						case 2:
							if x[p] == 0 {
								b[j] = math.Inf(1)
							}
						}
					}
				}
				// Whole, then cut into segments; a run of zero coefficients
				// makes some segment all-skipped.
				checkAccumRows(t, x, b, n, rng.Intn(len(palette)), nil)
				checkAccumRows(t, x, b, n, rng.Intn(len(palette)), drawEnds(rng, k))
				if k > 65 {
					// Segment ends on both sides of the first chunk's edge.
					checkAccumRows(t, x, b, n, rng.Intn(len(palette)), []int{1, 63, 64, 65, k})
				}
				if k > 3 {
					lo := rng.Intn(k - 3)
					clear(x[lo : lo+3])
					checkAccumRows(t, x, b, n, rng.Intn(len(palette)), []int{lo, lo + 3, k})
				}
			}
		}
	})
}

// TestAccumRowsZeroedOutIsTheSum holds the contract callers that want a
// plain product rely on: a row of +0 receives exactly the sum formed from +0,
// never −0 — also when every product cancels, when every product is −0, and
// when every coefficient is skipped.
func TestAccumRowsZeroedOutIsTheSum(t *testing.T) {
	cases := []struct {
		name string
		x, b []float64 // b is one value per coefficient, repeated across the row
	}{
		{"plain", []float64{1.5, -2, 0.25}, []float64{3, 0.5, -8}},
		{"cancelling", []float64{1, -1, 2, -2}, []float64{0.1, 0.1, 3.25, 3.25}},
		{"negative zero products", []float64{-1, 2, -3}, []float64{0, negZero, 0}},
		{"all skipped", []float64{0, negZero, 0}, []float64{math.NaN(), math.Inf(1), -1}},
		{"no coefficients", nil, nil},
	}
	eachPath(t, func(t *testing.T) {
		for _, c := range cases {
			for _, n := range []int{1, 3, 4, 5, 16, 32, 37, 70} {
				b := make([]float64, len(c.x)*n)
				for p, v := range c.b {
					for j := 0; j < n; j++ {
						b[p*n+j] = v
					}
				}
				want := 0.0
				for p, xv := range c.x {
					if xv != 0 {
						want += float64(xv * c.b[p])
					}
				}
				out := make([]float64, n)
				AccumRows(out, c.x, b)
				for j, v := range out {
					if math.Float64bits(v) != math.Float64bits(want) || (v == 0 && math.Signbit(v)) {
						t.Fatalf("%s, n=%d: out[%d] = %v (%#x), want the sum %v (%#x)", c.name, n, j,
							v, math.Float64bits(v), want, math.Float64bits(want))
					}
				}
			}
		}
	})
}

// TestAccumSegmentsAddsEachSegmentOnItsOwn: 1 + 2⁻⁵³ rounds back to 1, so a
// row of ones that receives k one-coefficient segments of product 2⁻⁵³ must
// stay exactly 1 wherever the segments fall against the assembly's
// 64-coefficient chunks and whatever empty segments lie between them; two
// segments summed together would make it 1 + 2⁻⁵².
func TestAccumSegmentsAddsEachSegmentOnItsOwn(t *testing.T) {
	const k = 130
	x := make([]float64, k)
	var ends, doubled []int
	for p := range x {
		x[p] = 1
		ends = append(ends, p+1)
		doubled = append(doubled, p+1, p+1)
	}
	eachPath(t, func(t *testing.T) {
		for _, n := range []int{1, 4, 16, 32, 37} {
			b := make([]float64, k*n)
			for i := range b {
				b[i] = math.Ldexp(1, -53)
			}
			for _, e := range [][]int{ends, doubled} {
				out := make([]float64, n)
				for j := range out {
					out[j] = 1
				}
				AccumSegments(out, x, b, e)
				for j, v := range out {
					if v != 1 {
						t.Fatalf("n=%d, %d segments: out[%d] = %v, want 1", n, len(e), j, v)
					}
				}
			}
		}
	})
}

func TestAccumRowsShortWeightsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AccumRows accepted 5 weights for a 2x3 product")
		}
	}()
	AccumRows(make([]float64, 3), []float64{1, 1}, make([]float64, 5))
}

// TestAccumSegmentsBadEndsPanic: segment ends must not decrease and must end
// at the last coefficient; no coefficients may come with no segments.
func TestAccumSegmentsBadEndsPanic(t *testing.T) {
	AccumSegments(make([]float64, 3), nil, nil, nil)
	for _, ends := range [][]int{nil, {1}, {3}, {2, 1, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("AccumSegments accepted ends %v for 2 coefficients", ends)
				}
			}()
			AccumSegments(make([]float64, 3), []float64{1, 1}, make([]float64, 6), ends)
		}()
	}
}

// FuzzAccumRows decodes an output width n, a coefficient count k and the
// soil offset (0–6, as the count byte's quotient), then values: a byte with
// its top bit set picks from the palette, otherwise eight bytes are one
// float64's bits (any NaN payload, any subnormal). First come k coefficients
// and their k rows of b. Bytes left after them, if any, give e more
// coefficients — so k reaches past the kernel's 64-coefficient chunks — and
// up to five segment cut points, then the e coefficients and their rows
// (values that run out read 1). The output is pre-soiled from the palette
// at the decoded offset. Both paths must reproduce the soil plus the
// reference's sums, for the coefficients whole and cut into the decoded
// segments (empty, all-skipped and trailing ones included).
func FuzzAccumRows(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{37, 3, 0x80, 0x81, 0x82, 0x83})
	f.Add([]byte{5, 2, 0x82, 0x81, 0x83, 0x84, 0x85, 0x86, 0x87, 0x88, 0x89, 0x8a, 0x8b, 0x8c})
	f.Add([]byte{36, 1, 0, 0, 0, 0, 0, 0, 0xf8, 0x7f})
	// A raw-bits NaN coefficient alone in the middle one of three segments,
	// the first and last empty.
	f.Add([]byte{5, 1, 0, 0, 0, 0, 0, 0, 0xf8, 0x7f, 0x83, 0x84, 0x80, 0x81, 0x8b, 0, 2, 0, 1})
	// No leading coefficients, soil offset 2, then 70 cut at 10, 10 and 40.
	f.Add([]byte{33, 80, 70, 3, 10, 10, 40, 0x80, 0x81, 0x8b, 0x80, 0x82})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() float64 {
			if len(data) == 0 {
				return 1
			}
			if c := data[0]; c&0x80 != 0 || len(data) < 8 {
				data = data[1:]
				return palette[int(c&0x7f)%len(palette)]
			}
			v := math.Float64frombits(binary.LittleEndian.Uint64(data))
			data = data[8:]
			return v
		}
		var n, k, soil int
		if len(data) >= 2 {
			n, k, soil = int(data[0])%71, int(data[1])%40, int(data[1])/40
			data = data[2:]
		}
		x := make([]float64, k)
		for p := range x {
			x[p] = next()
		}
		b := make([]float64, k*n)
		for j := range b {
			b[j] = next()
		}
		var ends []int
		if len(data) > 0 {
			e := int(data[0]) % 100
			cuts := 0
			if len(data) > 1 {
				cuts = int(data[1]) % 6
				data = data[1:]
			}
			data = data[1:]
			for ; cuts > 0 && len(data) > 0; cuts-- {
				ends = append(ends, int(data[0])%(k+e+1))
				data = data[1:]
			}
			for range e {
				x = append(x, next())
			}
			for range e * n {
				b = append(b, next())
			}
			k += e
		}
		slices.Sort(ends)
		ends = append(ends, k)
		for _, path := range paths {
			prev := setSIMD(path.simd)
			checkAccumRows(t, x, b, n, soil, nil)
			checkAccumRows(t, x, b, n, soil, ends)
			setSIMD(prev)
		}
	})
}

// BenchmarkAccumRows times eight output rows at the hidden layers' shape — a
// 32-wide rectified activation row, about half zero, times a 32×32 weight
// matrix — through the assembly (simd) and through Go (go).
// scripts/bench_record.sh gates simd at no less than twice as fast as go.
func BenchmarkAccumRows(b *testing.B) {
	const rows, k, n = 8, 32, 32
	rng := NewRNG(41)
	x := New(rows, k)
	rng.FillNorm(x, 0, 1)
	for i, v := range x.Data {
		if v < 0 {
			x.Data[i] = 0
		}
	}
	w := New(k, n)
	rng.FillNorm(w, 0, 1)
	out := New(rows, n)
	for _, path := range paths {
		b.Run(path.name, func(b *testing.B) {
			if path.simd && !haveSIMD {
				b.Skip("no AVX2")
			}
			defer setSIMD(setSIMD(path.simd))
			for i := 0; i < b.N; i++ {
				for r := 0; r < rows; r++ {
					AccumRows(out.Row(r), x.Row(r), w.Data)
				}
			}
		})
	}
}
