package tensor

import "fmt"

// simd selects the assembly form of AccumRows. It is decided once, at init,
// from what the CPU and OS report (haveSIMD); nothing else sets it outside
// tests.
var simd = haveSIMD

// AccumRows adds S[j] = Σ x[p]·b[p*n+j] over the p with x[p] ≠ 0 onto
// out[j], for n = len(out): one output row of a row-major product x·B added
// into its destination, and the kernel under MatMulInto and the hidden
// tree-convolution layers. b holds len(x) rows of n values. A zero x[p] (of
// either sign) is skipped, so its row of b is never read; a NaN x[p] is not
// zero and is accumulated.
//
// Each S[j] is formed on its own, in p order from +0, and only then added:
// out[j] becomes out[j] + S[j], one rounding. A caller that wants the plain
// product passes a row of +0 (arena and New rows already are): a sum that
// starts from +0 is never −0 under round-to-nearest, so +0 + S[j] is S[j]
// bit for bit.
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
// for bit, and the only path where there is no assembly. Like the assembly,
// it forms the sums of up to 32 columns at a time in a block that starts
// from +0, then adds the block onto out.
func accumRowsGo(out, x, b []float64) {
	n := len(out)
	for lo := 0; lo < n; lo += 32 {
		var block [32]float64
		acc := block[:min(32, n-lo)]
		for p, xv := range x {
			if xv == 0 {
				continue
			}
			brow := b[p*n+lo : p*n+lo+len(acc)]
			for j, bv := range brow {
				// The conversion rounds the product on its own: Go may
				// otherwise fuse a multiply and an add into one rounding.
				acc[j] += float64(xv * bv)
			}
		}
		for j, s := range acc {
			out[lo+j] += s
		}
	}
}
