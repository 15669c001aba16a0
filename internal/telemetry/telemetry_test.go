package telemetry

import (
	"math"
	"sync"
	"testing"
)

// TestEWMASeedAndSentinel pins the zero-value contract admission control
// relies on: 0 means "no samples", the first observation seeds the average
// exactly, and non-positive or NaN observations never disturb the sentinel.
func TestEWMASeedAndSentinel(t *testing.T) {
	var e EWMA
	if got := e.Load(); got != 0 {
		t.Fatalf("zero-value EWMA reads %v, want 0", got)
	}
	e.Observe(0)
	e.Observe(-5)
	e.Observe(math.NaN())
	if got := e.Load(); got != 0 {
		t.Fatalf("invalid observations moved the sentinel to %v", got)
	}
	e.Observe(250)
	if got := e.Load(); got != 250 {
		t.Fatalf("first sample = %v, want exact seed 250", got)
	}
}

// TestEWMAConverges checks the average tracks a step change: after enough
// constant observations the estimate lands on the new level, and a single
// outlier only moves it by the alpha fraction.
func TestEWMAConverges(t *testing.T) {
	var e EWMA
	for i := 0; i < 100; i++ {
		e.Observe(1000)
	}
	if got := e.Load(); math.Abs(got-1000) > 1e-9 {
		t.Fatalf("steady-state average = %v, want 1000", got)
	}
	e.Observe(11000) // one 10× outlier
	want := 1000 + ewmaAlpha*(11000-1000)
	if got := e.Load(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("after outlier average = %v, want %v", got, want)
	}
	for i := 0; i < 200; i++ {
		e.Observe(500)
	}
	if got := e.Load(); math.Abs(got-500) > 1 {
		t.Fatalf("average did not track step change: %v, want ~500", got)
	}
}

// TestEWMAConcurrent hammers Observe from many goroutines with values in a
// fixed band; the average must stay inside the band (lock-free lost updates
// are acceptable, escaping the observed range is not) and the race detector
// must stay quiet.
func TestEWMAConcurrent(t *testing.T) {
	var e EWMA
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10000; i++ {
				e.Observe(float64(100 + (w+i)%100))
			}
		}(w)
	}
	wg.Wait()
	if got := e.Load(); got < 100 || got > 199 {
		t.Fatalf("concurrent average %v escaped the observed band [100,199]", got)
	}
}

// TestEstWaitMicros checks the admission estimate is queue depth times the
// EWMA service time over the replica count, with 0 as the no-evidence
// cold-engine answer and while a replica is free.
func TestEstWaitMicros(t *testing.T) {
	g := NewShardGroup()
	if got := g.EstWaitMicros(50, 1); got != 0 {
		t.Fatalf("cold estimate = %v, want 0 (no samples)", got)
	}
	g.ServiceTime.Observe(2000)
	if got := g.EstWaitMicros(5, 1); got != 10000 {
		t.Fatalf("estimate = %v, want 5×2000", got)
	}
	if got := g.EstWaitMicros(5, 2); got != 5000 {
		t.Fatalf("estimate over two replicas = %v, want 5×2000÷2", got)
	}
	if got := g.EstWaitMicros(0, 1); got != 0 {
		t.Fatalf("empty queue estimate = %v, want 0", got)
	}
	if got := g.EstWaitMicros(3, 4); got != 0 {
		t.Fatalf("estimate with a replica free = %v, want 0", got)
	}
	snap := g.Snapshot(ShardGauges{Queued: 5, Replicas: 2})
	if snap.ServiceTimeMicros != 2000 || snap.EstWaitMicros != 5000 {
		t.Fatalf("snapshot carries %v/%v, want 2000/5000", snap.ServiceTimeMicros, snap.EstWaitMicros)
	}
}

// TestTotalsShedExpiredEstWait checks the cross-shard rollup: shed/expired
// sum, est-wait takes the worst shard (the number operators alert on).
func TestTotalsShedExpiredEstWait(t *testing.T) {
	e := EngineSnapshot{Shards: []ShardSnapshot{
		{Shed: 3, Expired: 1, EstWaitMicros: 1500},
		{Shed: 2, Expired: 4, EstWaitMicros: 9000},
	}}
	tot := e.Totals()
	if tot.Shed != 5 || tot.Expired != 5 {
		t.Fatalf("totals shed/expired = %d/%d, want 5/5", tot.Shed, tot.Expired)
	}
	if tot.MaxEstWaitMicros != 9000 {
		t.Fatalf("max est-wait = %v, want worst shard 9000", tot.MaxEstWaitMicros)
	}
}
