package tensor

import "fmt"

// simd selects the assembly form of AccumRows. It is decided once, at init,
// from what the CPU and OS report (haveSIMD); nothing else sets it outside
// tests.
var simd = haveSIMD

// AccumRows sets out[j] = Σ x[p]·b[p*n+j] over the p with x[p] ≠ 0, for
// n = len(out), each sum formed in p order starting from +0 — one output row
// of a row-major product x·B, and the kernel under MatMulInto and the hidden
// tree-convolution layers. b holds len(x) rows of n values. A zero x[p] (of
// either sign) is skipped, so its row of b is never read; a NaN x[p] is not
// zero and is accumulated.
//
// Every element receives the same roundings in the same order on every path:
// each product is rounded, then added, never fused into one multiply-add.
func AccumRows(out, x, b []float64) {
	if len(b) < len(x)*len(out) {
		panic(fmt.Sprintf("tensor: AccumRows wants %d×%d coefficients, got %d", len(x), len(out), len(b)))
	}
	if simd {
		accumRowsAVX2(out, x, b)
		return
	}
	accumRowsGo(out, x, b)
}

// accumRowsGo is AccumRows in Go: the reference the assembly must match bit
// for bit, and the only path where there is no assembly.
func accumRowsGo(out, x, b []float64) {
	n := len(out)
	for j := range out {
		out[j] = 0
	}
	for p, xv := range x {
		if xv == 0 {
			continue
		}
		brow := b[p*n : (p+1)*n]
		for j, bv := range brow {
			// The conversion rounds the product on its own: Go may
			// otherwise fuse a multiply and an add into one rounding.
			out[j] += float64(xv * bv)
		}
	}
}
