package tensor

import (
	"fmt"
	"math"
)

// Int8Matrix is a weight matrix packed for symmetric int8 inference. The
// float matrix W of shape (In, Out) is quantised per *output column*:
// Scale[j] = max_i |W[i][j]| / 127, and Q holds round(W[i][j] / Scale[j]).
// Q is stored transposed — Q[j*In : (j+1)*In] is column j of W — so the
// inner product against a quantised activation row is a contiguous dot over
// both operands. An all-zero column keeps Scale[j] = 0 and its Q entries
// zero, which the kernels read as "this output column is exactly zero".
//
// MaxErr records the largest absolute round-trip error
// |W[i][j] - Q·Scale[j]| observed while packing: the weight half of the
// quantisation error bound.
//
// P is the SWAR form of Q the hot kernels actually read: column-group-major,
// each uint64 holding four *bias-shifted* weight bytes (uw = q+128 ∈ [1,255])
// in 16-bit lanes — lane d of P[g*In + p] is column 4g+d at input row p, so
// one group's reduction walks P contiguously. The kernel multiplies each
// word by a bias-shifted activation byte ua = qa+63 ∈ [0,126] (activations
// quantise to ±63 — see QuantizeRowsInto); every lane product
// ua·uw ≤ 32130 fits 15 bits, so one 64-bit multiply performs four MACs
// *and* two neighbouring products can be added lane-wise without masking
// before the even/odd extraction, halving the extraction work. The biases
// are undone after the reduction:
//
//	Σ qa·qw = Σ ua·uw − 128·Σqa − Corr[j]
//
// where Corr[j] = 63·Σ_p Q[j][p] + 63·128·In is precomputed per column at
// pack time (padded to 4·Groups entries; padding lanes of P hold 0).
// Groups = ceil(Out/4). Mostly-zero activation rows skip the dense
// reduction entirely: dotGroup4Sparse walks only the nonzero entries and
// re-derives the weight-bias correction from the words it touched, which is
// bit-identical to the Corr form (see emitGroup4Sparse).
type Int8Matrix struct {
	In, Out int
	Q       []int8
	Scale   []float64
	MaxErr  float64

	Groups int
	P      []uint64
	Corr   []int32
}

// QuantizeColumns packs a float (In, Out) matrix into an Int8Matrix with
// per-output-column scales. It allocates; callers pack once per weight swap,
// never on the predict path.
func QuantizeColumns(w *Tensor) *Int8Matrix {
	if len(w.Shape) != 2 {
		panic(fmt.Sprintf("tensor: QuantizeColumns wants a 2-d matrix, got %v", w.Shape))
	}
	k, n := w.Shape[0], w.Shape[1]
	q := &Int8Matrix{In: k, Out: n, Q: make([]int8, k*n), Scale: make([]float64, n)}
	for j := 0; j < n; j++ {
		amax := 0.0
		for i := 0; i < k; i++ {
			if a := math.Abs(w.Data[i*n+j]); a > amax {
				amax = a
			}
		}
		if amax == 0 {
			continue // Scale[j] stays 0, column stays all-zero
		}
		s := amax / 127
		inv := 127 / amax
		q.Scale[j] = s
		col := q.Q[j*k : (j+1)*k]
		for i := 0; i < k; i++ {
			v := w.Data[i*n+j]
			qv := int8(math.Round(v * inv))
			col[i] = qv
			if e := math.Abs(v - float64(qv)*s); e > q.MaxErr {
				q.MaxErr = e
			}
		}
	}
	q.packSWAR()
	return q
}

// swarMaxIn bounds In so the 32-bit SWAR accumulator lanes cannot overflow
// (each lane gathers at most In products of 126·255 = 32130, and
// 2^31/32130 ≈ 66k) and the int32 column corrections stay exact
// (16065·In < 2^31).
const swarMaxIn = 1 << 15

// packSWAR builds the bias-shifted column-group-major packed form and the
// per-column bias corrections from Q.
func (q *Int8Matrix) packSWAR() {
	if q.In > swarMaxIn {
		panic(fmt.Sprintf("tensor: int8 input dim %d exceeds SWAR accumulator range", q.In))
	}
	k, n := q.In, q.Out
	g := (n + 3) / 4
	q.Groups = g
	q.P = make([]uint64, g*k)
	q.Corr = make([]int32, 4*g)
	for j := 0; j < n; j++ {
		col := q.Q[j*k : (j+1)*k]
		shift := uint(j%4) * 16
		grp := q.P[(j/4)*k : (j/4+1)*k]
		colSum := int32(0)
		for p := 0; p < k; p++ {
			colSum += int32(col[p])
			uw := uint64(uint8(int16(col[p]) + 128))
			grp[p] |= uw << shift
		}
		q.Corr[j] = 63*colSum + 63*128*int32(k)
	}
}

// swarMask selects the even 16-bit lanes of a SWAR product so they can be
// accumulated in 32-bit slots without cross-lane carries.
const swarMask = 0x0000ffff0000ffff

// swarMaskVar is swarMask in a package variable: the hot loops read it from
// a register instead of rematerialising the 10-byte immediate at every use,
// which the compiler otherwise does four times per unrolled iteration.
var swarMaskVar uint64 = swarMask

// dotGroup4 reduces one packed column group against a bias-shifted
// activation row: it returns the four unsigned biased column sums
// Σ_p ua[p]·uw[col][p] for the group's columns, with even lanes (columns
// 4g, 4g+2) in the 32-bit halves of e and odd lanes (4g+1, 4g+3) in o.
// len(pw) must equal len(ub). Lane products fit 15 bits, so neighbouring
// words add lane-wise before the masked even/odd extraction — one
// extraction pass per two words, eight MACs.
func dotGroup4(pw []uint64, ub []int8) (e, o uint64) {
	n := len(ub)
	pw = pw[:n] // one bounds check, then every indexed load below is provably in range
	mask := swarMaskVar
	var e0, o0, e1, o1 uint64
	p := 0
	for ; p < n-3; p += 4 {
		t0 := uint64(uint8(ub[p]))*pw[p] + uint64(uint8(ub[p+1]))*pw[p+1]
		t1 := uint64(uint8(ub[p+2]))*pw[p+2] + uint64(uint8(ub[p+3]))*pw[p+3]
		e0 += t0 & mask
		o0 += (t0 >> 16) & mask
		e1 += t1 & mask
		o1 += (t1 >> 16) & mask
	}
	for ; p < n; p++ {
		m := uint64(uint8(ub[p])) * pw[p]
		e0 += m & mask
		o0 += (m >> 16) & mask
	}
	return e0 + e1, o0 + o1
}

// dotGroup4Sparse reduces one packed column group against only the nonzero
// entries of a bias-shifted activation row, listed in idx. Alongside the
// biased sums e/o it accumulates the masked lane sums se/so of the weight
// words it touched, which emitGroup4Sparse needs to undo the weight bias:
// skipped entries carry ua = 63 exactly, so
//
//	Σ_all ua·uw = Σ_nz ua·uw + 63·(Σ_all uw − Σ_nz uw)
//
// and the full-row correction collapses to Σ qa·qw = e − 63·se − 128·Σqa
// per lane — the per-column Corr table cancels, keeping the sparse path
// bit-identical to the dense one. Worth it when the row is mostly zeros:
// tree-node feature encodings run at ~0.4% density, so the widest layer's
// reduction shrinks from In words to a handful.
func dotGroup4Sparse(pw []uint64, ub []int8, idx []uint16) (e, o, se, so uint64) {
	mask := swarMaskVar
	for _, p := range idx {
		w := pw[p]
		t := uint64(uint8(ub[p])) * w
		e += t & mask
		o += (t >> 16) & mask
		se += w & mask
		so += (w >> 16) & mask
	}
	return
}

// dotGroup4x2 is dotGroup4 over two activation rows at once: each packed
// weight word is loaded once and multiplied by both rows' bytes, halving
// weight traffic — the term that grows at paper-scale widths, where one
// matrix's packed form overflows L1. len(pw), len(ub1) must equal len(ub0).
func dotGroup4x2(pw []uint64, ub0, ub1 []int8) (e0, o0, e1, o1 uint64) {
	n := len(ub0)
	pw = pw[:n]
	ub1 = ub1[:n]
	mask := swarMaskVar
	p := 0
	for ; p < n-1; p += 2 {
		w0 := pw[p]
		w1 := pw[p+1]
		t0 := uint64(uint8(ub0[p]))*w0 + uint64(uint8(ub0[p+1]))*w1
		t1 := uint64(uint8(ub1[p]))*w0 + uint64(uint8(ub1[p+1]))*w1
		e0 += t0 & mask
		o0 += (t0 >> 16) & mask
		e1 += t1 & mask
		o1 += (t1 >> 16) & mask
	}
	if p < n {
		w0 := pw[p]
		m0 := uint64(uint8(ub0[p])) * w0
		m1 := uint64(uint8(ub1[p])) * w0
		e0 += m0 & mask
		o0 += (m0 >> 16) & mask
		e1 += m1 & mask
		o1 += (m1 >> 16) & mask
	}
	return
}

// QuantizeRowsInto quantises each row of the float activations x (m, k)
// symmetrically to ±63 with one scale per row: scales[i] = max_p |x[i][p]|
// / 63 and the row's bytes hold the *bias-shifted* values qa+63 ∈ [0,126]
// the SWAR kernels consume directly (an exact zero stores 63). An all-zero
// row keeps scale 0. Activations take 7 bits rather than 8 so the kernels
// can add two lane products without masking (126·255·2 < 2^16); weights
// keep the full ±127 range, so the combined step size grows by only the
// activation half.
//
// meta carries two int32s per row the kernels would otherwise re-derive
// per GEMM: meta[2i] = 128·Σqa (the activation-bias correction) and
// meta[2i+1] = the count of nonzero qa (the sparsity probe that picks the
// kernel per row). Quantising once and shifting in place is what lets one
// operand feed several GEMMs — the tree kernels reduce every row up to
// three times (parent, left, right) — without re-scanning it each time.
//
// It writes every element of q[:m*k], scales[:m] and meta[:2m] and returns
// the largest absolute round-trip error observed — the activation half of
// the quantisation error bound. No allocation: all three are caller
// scratch (typically arena-backed).
func QuantizeRowsInto(q []int8, scales []float64, meta []int32, x *Tensor) float64 {
	if len(x.Shape) != 2 {
		panic(fmt.Sprintf("tensor: QuantizeRowsInto wants a 2-d matrix, got %v", x.Shape))
	}
	m, k := x.Shape[0], x.Shape[1]
	if len(q) < m*k || len(scales) < m || len(meta) < 2*m {
		panic("tensor: QuantizeRowsInto scratch shorter than activations")
	}
	maxErr := 0.0
	for i := 0; i < m; i++ {
		row := x.Data[i*k : (i+1)*k]
		amax := 0.0
		for _, v := range row {
			if a := math.Abs(v); a > amax {
				amax = a
			}
		}
		qrow := q[i*k : (i+1)*k]
		if amax == 0 {
			scales[i] = 0
			meta[2*i], meta[2*i+1] = 0, 0
			for p := range qrow {
				qrow[p] = 63
			}
			continue
		}
		s := amax / 63
		inv := 63 / amax
		scales[i] = s
		var rs, nnz int32
		for p, v := range row {
			// Exact zeros round-trip exactly and dominate tree-node
			// encodings, so they skip the round and error bookkeeping.
			if v == 0 {
				qrow[p] = 63
				continue
			}
			qv := int32(math.Round(v * inv))
			qrow[p] = int8(qv + 63)
			rs += qv
			if qv != 0 {
				nnz++
			}
			if e := math.Abs(v - float64(qv)*s); e > maxErr {
				maxErr = e
			}
		}
		meta[2*i] = 128 * rs
		meta[2*i+1] = nnz
	}
	return maxErr
}

// Int8MatMulInto computes out = dequant(q · Wᵀ) for row-quantised
// activations of logical shape (m, w.In) — the bias-shifted bytes, scales
// and per-row meta produced by QuantizeRowsInto — against a column-quantised
// weight matrix w. Each output element accumulates in int32 and dequantises
// with the fused factor scales[i]*w.Scale[j]. Large products run as blocks
// of rows through Each exactly like MatMulInto.
func Int8MatMulInto(out *Tensor, q []int8, scales []float64, meta []int32, w *Int8Matrix) {
	m, n := out.Shape[0], out.Shape[1]
	k := w.In
	if n != w.Out {
		panic(fmt.Sprintf("tensor: Int8MatMulInto out width %d, weights yield %d", n, w.Out))
	}
	if len(q) < m*k || len(scales) < m || len(meta) < 2*m {
		panic("tensor: Int8MatMulInto activations shorter than out rows")
	}
	if m*k*n < parallelFlopThreshold {
		int8Rows(out, q, scales, meta, w, 0, m)
		return
	}
	eachRowBlock(m, func(lo, hi int) { int8Rows(out, q, scales, meta, w, lo, hi) })
}

// int8IdxBuf is the per-row capacity of the stack-resident nonzero-index
// scratch of the sparse kernel.
const int8IdxBuf = 512

// int8SparseCut picks the kernel per row: the sparse reduction costs about
// int8SparseCut× more per touched element than the dense one, so a row goes
// sparse only when nnz·int8SparseCut < In (and its index list fits the
// scratch).
const int8SparseCut = 5

// sparseRow reports whether a row with the given nonzero count should take
// the sparse kernel.
func sparseRow(nnz, k int) bool {
	return nnz <= int8IdxBuf && nnz*int8SparseCut < k
}

// emitGroup4 turns one group's biased lane sums into output columns
// j..j+3 (clipped to the matrix width): it undoes the weight bias via
// Corr and the activation bias via bc, then dequantises. Biased lane sums
// are < 2^31, so the int32 narrowings are exact; subtracting Corr before
// the activation-bias term keeps every intermediate inside int32 range.
func emitGroup4(orow []float64, w *Int8Matrix, j int, e, o uint64, bc int32, sa float64) {
	sv := [4]int32{
		int32(uint32(e)) - w.Corr[j] - bc,
		int32(uint32(o)) - w.Corr[j+1] - bc,
		int32(uint32(e>>32)) - w.Corr[j+2] - bc,
		int32(uint32(o>>32)) - w.Corr[j+3] - bc,
	}
	dequantGroup4(orow, w, j, &sv, sa)
}

// emitGroup4Sparse is the emitGroup4 counterpart for dotGroup4Sparse: the
// weight bias is undone with the touched-word lane sums (63·se) instead of
// the full-column Corr table, which cancels exactly for the entries the
// sparse reduction skipped. 63·se stays within each 32-bit lane: se lanes
// are at most 255·int8IdxBuf.
func emitGroup4Sparse(orow []float64, w *Int8Matrix, j int, e, o, se, so uint64, bc int32, sa float64) {
	eb := 63 * se
	ob := 63 * so
	sv := [4]int32{
		int32(uint32(e)) - int32(uint32(eb)) - bc,
		int32(uint32(o)) - int32(uint32(ob)) - bc,
		int32(uint32(e>>32)) - int32(uint32(eb>>32)) - bc,
		int32(uint32(o>>32)) - int32(uint32(ob>>32)) - bc,
	}
	dequantGroup4(orow, w, j, &sv, sa)
}

// dequantGroup4 dequantises one group's exact int32 column sums, clipped to
// the matrix width.
func dequantGroup4(orow []float64, w *Int8Matrix, j int, sv *[4]int32, sa float64) {
	lim := min(len(orow)-j, 4)
	for d := 0; d < lim; d++ {
		orow[j+d] = float64(sv[d]) * (sa * w.Scale[j+d])
	}
}

// int8Rows computes output rows [lo, hi) of Int8MatMulInto through the
// SWAR kernel. Activation rows arrive bias-shifted with their correction
// and nonzero count precomputed (QuantizeRowsInto), so the kernel reads
// them straight out of q: mostly-zero rows gather their nonzero indices
// and reduce only those entries, dense rows are taken in pairs so each
// packed weight word is loaded once for two reductions, and a
// lane-extraction pass undoes the biases and dequantises. Sparse and dense
// reductions produce the same exact int32 sums, so kernel choice never
// changes output bits.
func int8Rows(out *Tensor, q []int8, scales []float64, meta []int32, w *Int8Matrix, lo, hi int) {
	k, n, g := w.In, w.Out, w.Groups
	var ibuf [int8IdxBuf]uint16
	for i := lo; i < hi; {
		orow := out.Data[i*n : (i+1)*n]
		sa := scales[i]
		if sa == 0 {
			// All-zero activation row: the dot is exactly zero everywhere.
			clear(orow)
			i++
			continue
		}
		ub0 := q[i*k : (i+1)*k]
		bc0 := meta[2*i]
		if nnz := int(meta[2*i+1]); sparseRow(nnz, k) {
			c := 0
			for p := 0; p < k && c < nnz; p++ {
				if ub0[p] != 63 {
					ibuf[c] = uint16(p)
					c++
				}
			}
			idx := ibuf[:c]
			for gi := 0; gi < g; gi++ {
				e, o, se, so := dotGroup4Sparse(w.P[gi*k:(gi+1)*k], ub0, idx)
				emitGroup4Sparse(orow, w, gi*4, e, o, se, so, bc0, sa)
			}
			i++
			continue
		}
		if i+1 < hi && scales[i+1] != 0 && !sparseRow(int(meta[2*i+3]), k) {
			// Paired path: two dense rows share each weight load.
			orow1 := out.Data[(i+1)*n : (i+2)*n]
			ub1 := q[(i+1)*k : (i+2)*k]
			bc1 := meta[2*i+2]
			sb := scales[i+1]
			for gi := 0; gi < g; gi++ {
				e0, o0, e1, o1 := dotGroup4x2(w.P[gi*k:(gi+1)*k], ub0, ub1)
				emitGroup4(orow, w, gi*4, e0, o0, bc0, sa)
				emitGroup4(orow1, w, gi*4, e1, o1, bc1, sb)
			}
			i += 2
			continue
		}
		for gi := 0; gi < g; gi++ {
			e, o := dotGroup4(w.P[gi*k:(gi+1)*k], ub0)
			emitGroup4(orow, w, gi*4, e, o, bc0, sa)
		}
		i++
	}
}
