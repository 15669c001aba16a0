package tensor

import (
	"runtime"
	"sync"
	"testing"
)

// TestEachRunsEveryItemOnce checks Each's contract at every GOMAXPROCS,
// including one set after the package initialised: every item runs exactly
// once, on a worker index below GOMAXPROCS, and under GOMAXPROCS 1 everything
// runs on the caller with no helper ever claimed.
func TestEachRunsEveryItemOnce(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for _, n := range []int{0, 1, 3, 1000} {
			ResetHelperPeak()
			runs := make([]int, n)
			ws := make([]int, n)
			Each(n, func(i, w int) {
				runs[i]++
				ws[i] = w
			})
			for i := range runs {
				if runs[i] != 1 {
					t.Fatalf("GOMAXPROCS %d, n %d: item %d ran %d times", procs, n, i, runs[i])
				}
				if ws[i] < 0 || ws[i] >= procs || (procs == 1 && ws[i] != 0) {
					t.Fatalf("GOMAXPROCS %d, n %d: item %d ran on worker %d", procs, n, i, ws[i])
				}
			}
			if procs == 1 && HelperPeak() != 0 {
				t.Fatalf("GOMAXPROCS 1, n %d: %d helpers claimed", n, HelperPeak())
			}
			if live := LiveHelpers(); live != 0 {
				t.Fatalf("GOMAXPROCS %d, n %d: %d helpers still claimed after Each returned", procs, n, live)
			}
		}
	}
}

// TestEachReleasesHelpersOnPanic pins that a panic on the calling goroutine
// gives its helpers back: a lost release would leave every later kernel
// serial once a panic had been recovered.
func TestEachReleasesHelpersOnPanic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	ResetHelperPeak()
	callerIn := make(chan struct{})
	func() {
		defer func() {
			if r := recover(); r != "caller's item" {
				t.Fatalf("recovered %v, want the caller's panic", r)
			}
		}()
		Each(2, func(i, w int) {
			if w == 0 {
				close(callerIn)
				panic("caller's item")
			}
			// The helper's item waits for the caller's, so the caller
			// always has an item to panic in.
			<-callerIn
		})
	}()
	if HelperPeak() == 0 {
		t.Fatal("no helper claimed; the release on panic went untested")
	}
	if live := LiveHelpers(); live != 0 {
		t.Fatalf("%d helpers still claimed after the panic was recovered", live)
	}
	ResetHelperPeak()
	Each(2, func(i, w int) {})
	if HelperPeak() != 1 {
		t.Fatalf("Each after a recovered panic claimed %d helpers, want 1", HelperPeak())
	}
}

// TestMatMulWorkerBudgetCeiling pins the oversubscription fix: many
// concurrent large kernels, half of them nested inside Each items the way a
// training step runs them, may between them never have more helper
// goroutines in flight than the budget grants.
func TestMatMulWorkerBudgetCeiling(t *testing.T) {
	// The budget follows GOMAXPROCS: budget-1 helpers between all callers.
	const budget = 3
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(budget))
	ResetHelperPeak()

	rng := NewRNG(31)
	m, k, n := 256, 64, 64 // m*k*n = 2^20, past the threshold
	a := randMat(rng, float64(m), float64(k), 1)
	b := randMat(rng, float64(k), float64(n), 1)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			outs := []*Tensor{New(m, n), New(m, n), New(m, n)}
			for iter := 0; iter < 6; iter++ {
				if g%2 == 0 {
					MatMulInto(outs[0], a, b)
				} else {
					Each(len(outs), func(i, _ int) { MatMulInto(outs[i], a, b) })
				}
			}
		}(g)
	}
	wg.Wait()
	if peak := HelperPeak(); peak > budget-1 {
		t.Fatalf("observed %d concurrent helper goroutines, budget allows %d", peak, budget-1)
	}
	// The budget must actually be exercised, or the ceiling is vacuous.
	if peak := HelperPeak(); peak == 0 {
		t.Fatalf("no helper goroutines observed; kernels stayed serial and the ceiling test is vacuous")
	}
}
