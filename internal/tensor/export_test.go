package tensor

// Test hooks for Each's helper budget (see workers.go).

// ResetHelperPeak clears the recorded helper-goroutine high-water mark.
func ResetHelperPeak() {
	helperPeak.Store(0)
}

// HelperPeak reports the highest number of helper goroutines observed in
// flight at once since the last ResetHelperPeak.
func HelperPeak() int64 { return helperPeak.Load() }

// LiveHelpers reports how many helpers are claimed from the budget now.
func LiveHelpers() int64 { return helpers.Load() }

// setSIMD turns AccumRows' assembly path on (where the CPU has it) or off
// and returns the previous setting, for tests that run both paths.
func setSIMD(on bool) bool {
	prev := simd
	simd = on && haveSIMD
	return prev
}

// ParallelFlopThreshold exposes the m*k*n product above which the kernels
// fan out, so tests can size operands just past it.
const ParallelFlopThreshold = parallelFlopThreshold
