package tensor

import "fmt"

// parallelFlopThreshold is the m*k*n product above which MatMulInto shards
// rows across goroutines. Small products stay serial: goroutine dispatch
// costs more than the multiply.
const parallelFlopThreshold = 1 << 18

// MatMul returns a × b for 2-D tensors of shapes (m,k) and (k,n).
func MatMul(a, b *Tensor) *Tensor {
	out := New(a.Shape[0], b.Shape[1])
	MatMulInto(out, a, b)
	return out
}

// MatMulInto computes out = a × b, reusing out's buffer. out must have shape
// (a.rows, b.cols). Each output row is cleared and then receives one
// AccumRows call (i-k-j order, zero entries of a skipped); large products
// run as blocks of rows through Each (each output row is written by exactly
// one worker, so no synchronisation is needed).
func MatMulInto(out, a, b *Tensor) { matMul(out, a, b, true) }

// MatMulAddInto computes out += a × b: MatMulInto without the clearing, so
// each element becomes its old value plus the product's sum, formed on its
// own from +0.
func MatMulAddInto(out, a, b *Tensor) { matMul(out, a, b, false) }

// matMul is MatMulInto (set) and MatMulAddInto (!set).
func matMul(out, a, b *Tensor, set bool) {
	if len(a.Shape) != 2 || len(b.Shape) != 2 {
		panic(fmt.Sprintf("tensor: MatMul wants 2-d operands, got %v x %v", a.Shape, b.Shape))
	}
	m, k := a.Shape[0], a.Shape[1]
	k2, n := b.Shape[0], b.Shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMul inner dim mismatch %v x %v", a.Shape, b.Shape))
	}
	if out.Shape[0] != m || out.Shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulInto out shape %v, want [%d %d]", out.Shape, m, n))
	}
	if m*k*n < parallelFlopThreshold {
		matMulRows(out, a, b, 0, m, set)
		return
	}
	eachRowBlock(m, func(lo, hi int) { matMulRows(out, a, b, lo, hi, set) })
}

// matMulRows computes output rows [lo, hi), one AccumRows call each, into
// rows it first clears when set.
func matMulRows(out, a, b *Tensor, lo, hi int, set bool) {
	k, n := a.Shape[1], b.Shape[1]
	for i := lo; i < hi; i++ {
		row := out.Data[i*n : (i+1)*n]
		if set {
			clear(row)
		}
		AccumRows(row, a.Data[i*k:(i+1)*k], b.Data)
	}
}

// Transpose returns the transpose of a 2-D tensor.
func Transpose(a *Tensor) *Tensor {
	if len(a.Shape) != 2 {
		panic(fmt.Sprintf("tensor: Transpose on %d-d tensor", len(a.Shape)))
	}
	return TransposeInto(New(a.Shape[1], a.Shape[0]), a)
}

// TransposeInto writes the transpose of the (m,n) tensor a into out, which
// must have shape (n,m), and returns out. A product with a transposed operand
// is a transpose and then MatMulInto or AccumRows: that is how every
// backward pass forms xᵀ·g and g·Wᵀ.
func TransposeInto(out, a *Tensor) *Tensor {
	m, n := a.Shape[0], a.Shape[1]
	if len(out.Shape) != 2 || out.Shape[0] != n || out.Shape[1] != m {
		panic(fmt.Sprintf("tensor: TransposeInto out shape %v, want [%d %d]", out.Shape, n, m))
	}
	for i := 0; i < m; i++ {
		for j, v := range a.Data[i*n : (i+1)*n] {
			out.Data[j*m+i] = v
		}
	}
	return out
}

// AddRowVector adds vector v (length n) to every row of a 2-D tensor (m,n).
func AddRowVector(a, v *Tensor) *Tensor {
	m, n := a.Shape[0], a.Shape[1]
	if v.Size() != n {
		panic(fmt.Sprintf("tensor: AddRowVector dim mismatch %v + %v", a.Shape, v.Shape))
	}
	for i := 0; i < m; i++ {
		row := a.Data[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			row[j] += v.Data[j]
		}
	}
	return a
}

// SumRows returns the column-wise sum of a 2-D tensor: out[j] = Σ_i a[i][j].
func SumRows(a *Tensor) *Tensor {
	m, n := a.Shape[0], a.Shape[1]
	out := New(n)
	for i := 0; i < m; i++ {
		row := a.Data[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			out.Data[j] += row[j]
		}
	}
	return out
}

// Dot returns the dot product of two equal-length 1-D views.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("tensor: Dot length mismatch %d vs %d", len(a), len(b)))
	}
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}
