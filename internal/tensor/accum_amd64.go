package tensor

// haveSIMD reports whether this CPU runs accumSegmentsAVX2: it has AVX2 and
// the OS saves the YMM registers across context switches.
var haveSIMD = hasAVX2()

// accumSegmentsAVX2 is AccumSegments in AVX2 assembly (accum_amd64.s). It
// does no bounds checks: b must hold len(x)*len(out) values and ends must be
// valid.
//
//go:noescape
func accumSegmentsAVX2(out, x, b []float64, ends []int)

// cpuid executes CPUID for a leaf and sub-leaf.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register XCR0.
func xgetbv() (eax, edx uint32)

func hasAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	// XCR0 bits 1 and 2: the OS saves the SSE and the upper YMM state.
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}
