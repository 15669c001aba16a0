//go:build !amd64

package tensor

// There is no assembly form of AccumSegments here: accumSegmentsGo is the
// only path.
const haveSIMD = false

func accumSegmentsAVX2(out, x, b []float64, ends []int) {
	panic("tensor: no assembly AccumSegments on this architecture")
}
