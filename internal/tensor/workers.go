package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Every parallel loop in the program — the kernels' row blocks, a training
// step's fan-outs over traces and gradient tasks, a serving model call's trees —
// runs through Each, and every Each draws its helper goroutines from one
// process-wide budget: GOMAXPROCS-1 live helpers, counted by helpers and read
// on every claim, so the budget follows GOMAXPROCS when it changes. The
// caller of Each is always a worker and holds no share of the budget, so
// progress never waits on it: a lone loop on an idle host gets every core,
// concurrent loops (concurrent model calls, or a kernel inside a training item)
// divide the budget and degrade toward serial instead of oversubscribing.
var (
	helpers    atomic.Int64 // live helpers across all Each calls
	helperPeak atomic.Int64 // helpers' high-water mark, for tests
)

// Each runs work(i, w) for every i in [0, n) and returns when all are done.
// w is the index of the worker that took item i: 0 is the calling goroutine,
// and the helpers the budget grants without blocking, at most
// min(n, GOMAXPROCS)-1, are 1, 2, ..., so w < GOMAXPROCS. Workers take items
// one at a time from a shared counter, which balances uneven items. work
// must be safe to run concurrently for distinct items; which worker runs an
// item varies from call to call, so a caller that wants the same bits at
// any worker count fixes what each item writes. If work panics on the
// calling goroutine, Each waits for its helpers and returns them to the
// budget before the panic goes on.
func Each(n int, work func(i, w int)) {
	procs := runtime.GOMAXPROCS(0)
	got := claimHelpers(min(n, procs)-1, int64(procs-1))
	if got == 0 {
		for i := 0; i < n; i++ {
			work(i, 0)
		}
		return
	}
	var next atomic.Int64
	run := func(w int) {
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			work(i, w)
		}
	}
	var wg sync.WaitGroup
	wg.Add(got)
	defer func() {
		wg.Wait()
		helpers.Add(-int64(got))
	}()
	for w := 1; w <= got; w++ {
		go func() {
			defer wg.Done()
			run(w)
		}()
	}
	// Yield once: the helper last spawned sits in this P's runnext slot,
	// which an idle P steals only after a timed back-off (usleep(3), which
	// Linux timer slack stretches to tens of µs). Yielding runs it here at
	// once and leaves the caller on the global run queue, where an idle P
	// takes it without waiting.
	runtime.Gosched()
	run(0)
}

// claimHelpers takes up to want helpers from the budget of limit live ones
// without blocking and reports how many it got.
func claimHelpers(want int, limit int64) int {
	for want > 0 {
		live := helpers.Load()
		got := min(int64(want), limit-live)
		if got <= 0 {
			return 0
		}
		if helpers.CompareAndSwap(live, live+got) {
			for p := helperPeak.Load(); live+got > p; p = helperPeak.Load() {
				if helperPeak.CompareAndSwap(p, live+got) {
					break
				}
			}
			return int(got)
		}
	}
	return 0
}

// eachRowBlock runs fn over [0, m) cut into up to GOMAXPROCS contiguous
// blocks through Each, so every row is written by exactly one goroutine.
func eachRowBlock(m int, fn func(lo, hi int)) {
	parts := min(m, runtime.GOMAXPROCS(0))
	Each(parts, func(i, _ int) { fn(i*m/parts, (i+1)*m/parts) })
}
