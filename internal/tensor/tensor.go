// Package tensor implements dense numeric tensors and the linear-algebra
// kernels used by the neural-network engine. Tensors are row-major float64
// buffers with an explicit shape; all operations are deterministic and
// allocation behaviour is documented so that per-batch memory footprints can
// be accounted exactly (the paper's Fig 6 metric).
//
// One kernel carries the float products: AccumSegments cuts the coefficients
// x into consecutive segments and, segment by segment, adds
// Σ_{p in the segment, x[p] ≠ 0} x[p]·B[p,j] onto out[j], each sum formed in
// p order from +0 before it is added; an empty segment adds +0. AccumRows is
// its one-segment case. It is every output row of MatMulInto and
// MatMulAddInto (the dense head, forward and backward) and every product of
// the hidden tree-convolution layers: forward and input gradient, each added
// straight into its destination row, and the weight gradient of a whole
// training forest, one call per weight row with the trees as segments. A
// product with a transposed operand is a TransposeInto and then AccumRows;
// there is no transposed-operand kernel.
// Its Go form is the reference and the only path off amd64; on amd64 an AVX2
// assembly form is chosen once at init, by CPUID and XGETBV, when the CPU has
// AVX2 and the OS saves the YMM registers — there is no flag, variable or
// setting. The assembly finds the live coefficients from a bitmask built 64
// at a time and walks it by lowest set bit, where the Go form tests each
// coefficient.
// The assembly multiplies (VMULPD) and then adds (VADDPD): a fused
// multiply-add rounds once where the Go form rounds twice, so it would change
// the bits of every trained weight. Both forms therefore give the same bits
// (any NaN aside, whose payload the operand order picks).
// TestAccumRowsMatchesReference and FuzzAccumRows check that on both paths,
// whole and cut into segments, against an element-by-element reference; go
// test -fuzz=FuzzAccumRows ./internal/tensor runs the fuzzer.
package tensor

import (
	"fmt"
	"math"
	"strings"
)

// Tensor is a dense row-major n-dimensional array of float64.
//
// The zero value is an empty tensor. Tensors returned by New are fully
// initialised; Data aliases the underlying buffer, so callers that need an
// independent copy must use Clone.
type Tensor struct {
	Shape []int
	Data  []float64
}

// New returns a zero-filled tensor of the given shape.
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension %d in shape %v", d, shape))
		}
		n *= d
	}
	s := make([]int, len(shape))
	copy(s, shape)
	return &Tensor{Shape: s, Data: make([]float64, n)}
}

// FromSlice wraps data in a tensor of the given shape. The slice is aliased,
// not copied. It panics if the element count does not match the shape.
func FromSlice(data []float64, shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(data) {
		panic(fmt.Sprintf("tensor: shape %v wants %d elements, got %d", shape, n, len(data)))
	}
	s := make([]int, len(shape))
	copy(s, shape)
	return &Tensor{Shape: s, Data: data}
}

// Size returns the total number of elements.
func (t *Tensor) Size() int {
	n := 1
	for _, d := range t.Shape {
		n *= d
	}
	return n
}

// Bytes returns the in-memory size of the tensor payload in bytes
// (8 bytes per float64). Used for per-batch footprint accounting.
func (t *Tensor) Bytes() int { return 8 * t.Size() }

// Dims returns the number of dimensions.
func (t *Tensor) Dims() int { return len(t.Shape) }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.Shape[i] }

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	c := New(t.Shape...)
	copy(c.Data, t.Data)
	return c
}

// Reshape returns a view with a new shape sharing the same data.
// It panics if the element counts differ.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != t.Size() {
		panic(fmt.Sprintf("tensor: cannot reshape %v to %v", t.Shape, shape))
	}
	s := make([]int, len(shape))
	copy(s, shape)
	return &Tensor{Shape: s, Data: t.Data}
}

// Set writes the element at the given multi-index.
func (t *Tensor) Set(v float64, idx ...int) {
	t.Data[t.offset(idx)] = v
}

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.Shape) {
		panic(fmt.Sprintf("tensor: index %v does not match shape %v", idx, t.Shape))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.Shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of bounds for shape %v", idx, t.Shape))
		}
		off = off*t.Shape[i] + x
	}
	return off
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float64) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// Zero sets every element to 0.
func (t *Tensor) Zero() { t.Fill(0) }

// Apply replaces each element x with f(x) in place and returns t.
func (t *Tensor) Apply(f func(float64) float64) *Tensor {
	for i, x := range t.Data {
		t.Data[i] = f(x)
	}
	return t
}

// Map returns a new tensor whose elements are f applied to t's elements.
func (t *Tensor) Map(f func(float64) float64) *Tensor {
	c := New(t.Shape...)
	for i, x := range t.Data {
		c.Data[i] = f(x)
	}
	return c
}

// AddInPlace adds o element-wise into t. Shapes must match exactly.
func (t *Tensor) AddInPlace(o *Tensor) *Tensor {
	if t.Size() != o.Size() {
		panic(fmt.Sprintf("tensor: add size mismatch %v vs %v", t.Shape, o.Shape))
	}
	for i := range t.Data {
		t.Data[i] += o.Data[i]
	}
	return t
}

// SubInPlace subtracts o element-wise from t.
func (t *Tensor) SubInPlace(o *Tensor) *Tensor {
	if t.Size() != o.Size() {
		panic(fmt.Sprintf("tensor: sub size mismatch %v vs %v", t.Shape, o.Shape))
	}
	for i := range t.Data {
		t.Data[i] -= o.Data[i]
	}
	return t
}

// Add returns t + o as a new tensor.
func Add(t, o *Tensor) *Tensor { return t.Clone().AddInPlace(o) }

// Sub returns t - o as a new tensor.
func Sub(t, o *Tensor) *Tensor { return t.Clone().SubInPlace(o) }

// Sum returns the sum of all elements.
func (t *Tensor) Sum() float64 {
	s := 0.0
	for _, x := range t.Data {
		s += x
	}
	return s
}

// Mean returns the arithmetic mean of all elements (0 for empty tensors).
func (t *Tensor) Mean() float64 {
	if t.Size() == 0 {
		return 0
	}
	return t.Sum() / float64(t.Size())
}

// Max returns the maximum element. It panics on an empty tensor.
func (t *Tensor) Max() float64 {
	if t.Size() == 0 {
		panic("tensor: Max of empty tensor")
	}
	m := t.Data[0]
	for _, x := range t.Data[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Min returns the minimum element. It panics on an empty tensor.
func (t *Tensor) Min() float64 {
	if t.Size() == 0 {
		panic("tensor: Min of empty tensor")
	}
	m := t.Data[0]
	for _, x := range t.Data[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Norm2 returns the L2 norm of the flattened tensor.
func (t *Tensor) Norm2() float64 {
	s := 0.0
	for _, x := range t.Data {
		s += x * x
	}
	return math.Sqrt(s)
}

// Row returns row i of a 2-D tensor as an aliased slice.
func (t *Tensor) Row(i int) []float64 {
	if len(t.Shape) != 2 {
		// A constant message keeps Row cheap enough to inline.
		panic("tensor: Row on a tensor that is not 2-d")
	}
	cols := t.Shape[1]
	return t.Data[i*cols : (i+1)*cols]
}

// String renders small tensors fully and large ones by shape summary.
func (t *Tensor) String() string {
	if t.Size() > 64 {
		return fmt.Sprintf("Tensor%v{%d elems, |x|=%.4g}", t.Shape, t.Size(), t.Norm2())
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Tensor%v[", t.Shape)
	for i, x := range t.Data {
		if i > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%.4g", x)
	}
	b.WriteString("]")
	return b.String()
}

// Equal reports whether two tensors have identical shape and elements within
// tolerance eps. A NaN equals only a NaN, and an infinity only the infinity
// of the same sign.
func Equal(a, b *Tensor, eps float64) bool {
	if len(a.Shape) != len(b.Shape) {
		return false
	}
	for i := range a.Shape {
		if a.Shape[i] != b.Shape[i] {
			return false
		}
	}
	for i, x := range a.Data {
		y := b.Data[i]
		if x == y || x != x && y != y {
			continue
		}
		if math.IsInf(x, 0) || math.IsInf(y, 0) || !(math.Abs(x-y) <= eps) {
			return false
		}
	}
	return true
}
