package tensor

import "fmt"

// simd selects the assembly form of AccumSegments. It is decided once, at
// init, from what the CPU and OS report (haveSIMD); nothing else sets it
// outside tests.
var simd = haveSIMD

// AccumRows adds S[j] = Σ x[p]·b[p*n+j] over the p with x[p] ≠ 0 onto
// out[j], for n = len(out): one output row of a row-major product x·B added
// into its destination. It is AccumSegments with one segment, x whole.
func AccumRows(out, x, b []float64) {
	ends := [1]int{len(x)}
	AccumSegments(out, x, b, ends[:])
}

// AccumSegments cuts x into consecutive segments — segment s is
// x[ends[s-1]:ends[s]], the first starting at 0 — and, segment by segment in
// order, adds S_s[j] = Σ x[p]·b[p*n+j] over the segment's p with x[p] ≠ 0
// onto out[j], for n = len(out). b holds len(x) rows of n values. ends must
// be non-decreasing and end at len(x) (an empty x may have no segments). It
// is the kernel under MatMulInto and the hidden tree-convolution layers: a
// one-segment call is a row of a product added into its destination, and a
// call whose segments are the trees of a forest adds each tree's share of a
// weight gradient in tree order. A zero x[p] (of either sign) is skipped, so
// its row of b is never read; a NaN x[p] is not zero and is accumulated.
//
// Each S_s[j] is formed on its own, in p order from +0, and only then added:
// out[j] becomes (((out[j] + S_1[j]) + S_2[j]) + …), one rounding per
// segment. A sum that starts from +0 is never −0 under round-to-nearest, so
// a caller that wants the plain product passes a row of +0 (arena and New
// rows already are) and receives S bit for bit. An empty segment, or one
// whose coefficients are all skipped, adds +0: that leaves any out[j] but −0
// unchanged, so a destination that started at +0 and has only ever received
// such sums (a gradient) is unchanged by it.
//
// Every element receives the same roundings in the same order on every path:
// each product is rounded, then added, never fused into one multiply-add.
func AccumSegments(out, x, b []float64, ends []int) {
	if len(b) < len(x)*len(out) {
		panic(fmt.Sprintf("tensor: AccumSegments wants %d×%d coefficients, got %d", len(x), len(out), len(b)))
	}
	prev := 0
	for _, e := range ends {
		if e < prev {
			panic(fmt.Sprintf("tensor: AccumSegments segment ends at %d after %d", e, prev))
		}
		prev = e
	}
	if prev != len(x) {
		panic(fmt.Sprintf("tensor: AccumSegments segments end at %d, not at the %d coefficients", prev, len(x)))
	}
	if simd {
		accumSegmentsAVX2(out, x, b, ends)
		return
	}
	accumSegmentsGo(out, x, b, ends)
}

// accumSegmentsGo is AccumSegments in Go: the reference the assembly must
// match bit for bit, and the only path where there is no assembly. Like the
// assembly, it forms the sums of up to 32 columns at a time, per segment in a
// block that starts from +0, then adds the block onto out.
func accumSegmentsGo(out, x, b []float64, ends []int) {
	n := len(out)
	for lo := 0; lo < n; lo += 32 {
		w := min(32, n-lo)
		p := 0
		for _, end := range ends {
			var block [32]float64
			acc := block[:w]
			for ; p < end; p++ {
				xv := x[p]
				if xv == 0 {
					continue
				}
				for j, bv := range b[p*n+lo : p*n+lo+w] {
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
}
