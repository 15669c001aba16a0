//go:build !amd64

package tensor

// There is no assembly form of AccumRows here: accumRowsGo is the only path.
const haveSIMD = false

func accumRowsAVX2(out, x, b []float64) {
	panic("tensor: no assembly AccumRows on this architecture")
}
