package telemetry

import (
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"
)

func TestHistogramBucketing(t *testing.T) {
	h := NewHistogram([]int64{1, 2, 4, 8})
	for _, v := range []int64{0, 1, 2, 3, 4, 5, 8, 9, 100} {
		h.Observe(v)
	}
	s := h.Snapshot()
	// Buckets: <=1, <=2, <=4, <=8, overflow.
	want := []uint64{2, 1, 2, 2, 2}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (counts %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Count() != 9 {
		t.Fatalf("count = %d, want 9", s.Count())
	}
	if s.Sum != 0+1+2+3+4+5+8+9+100 {
		t.Fatalf("sum = %d", s.Sum)
	}
}

func TestExponentialBucketsStrictlyIncreasing(t *testing.T) {
	for _, bounds := range [][]int64{
		ExponentialBuckets(1, 1.1, 50), // rounding collisions forced at the low end
		LatencyBuckets(),
	} {
		for i := 1; i < len(bounds); i++ {
			if bounds[i] <= bounds[i-1] {
				t.Fatalf("bounds not strictly increasing at %d: %v", i, bounds)
			}
		}
	}
}

// exactQuantile is the old latencyRing percentile estimator (nearest rank
// over the exact samples), kept here as the reference the bucketed
// histogram is measured against.
func exactQuantile(samples []int64, q float64) float64 {
	sorted := append([]int64(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	return float64(sorted[idx])
}

// TestQuantileAccuracy drives a known latency distribution — a lognormal
// bulk with a heavy deterministic tail, the shape of real serving latency —
// through the bucketed histogram and checks p50/p95/p99 against the exact
// nearest-rank recorder. The error contract is one bucket width: with the
// 1.5-growth latency buckets, the estimate must land within a factor of 1.5
// of the exact quantile.
func TestQuantileAccuracy(t *testing.T) {
	h := NewHistogram(LatencyBuckets())
	rng := rand.New(rand.NewSource(7))
	samples := make([]int64, 0, 20000)
	for i := 0; i < 20000; i++ {
		// Bulk around e^6.5 ≈ 665µs; every 100th sample is a 50–250ms tail hit.
		v := int64(math.Exp(rng.NormFloat64()*0.6 + 6.5))
		if i%100 == 0 {
			v = 50_000 + int64(i)*10
		}
		if v < 1 {
			v = 1
		}
		samples = append(samples, v)
		h.Observe(v)
	}
	s := h.Snapshot()
	for _, q := range []float64{0.50, 0.95, 0.99} {
		exact := exactQuantile(samples, q)
		got := s.Quantile(q)
		if got < exact/1.5 || got > exact*1.5 {
			t.Errorf("q%.0f: bucketed %.0fµs vs exact %.0fµs — outside one bucket width",
				q*100, got, exact)
		}
	}
	if mean := s.Mean(); math.Abs(mean-float64(s.Sum)/float64(len(samples))) > 1e-9 {
		t.Fatalf("mean %.3f disagrees with exact sum/count", mean)
	}
}

func TestQuantileEdgeCases(t *testing.T) {
	h := NewHistogram([]int64{1, 2, 4, 8, 16, 32})
	if got := h.Snapshot().Quantile(0.5); got != 0 {
		t.Fatalf("empty histogram quantile = %v, want 0", got)
	}
	h.Observe(1)
	if got := h.Snapshot().Quantile(0.5); got > 1 {
		t.Fatalf("single-sample quantile = %v, want <= 1", got)
	}
	// Everything in the overflow bucket reports the last finite bound.
	h2 := NewHistogram([]int64{1, 2})
	h2.Observe(1000)
	if got := h2.Snapshot().Quantile(0.99); got != 2 {
		t.Fatalf("overflow quantile = %v, want last bound 2", got)
	}
}

func TestHistogramMerge(t *testing.T) {
	a := NewHistogram([]int64{1, 2, 4, 8, 16, 32})
	b := NewHistogram([]int64{1, 2, 4, 8, 16, 32})
	a.Observe(1)
	a.Observe(3)
	b.Observe(100)
	m := a.Snapshot().Merge(b.Snapshot())
	if m.Count() != 3 || m.Sum != 104 {
		t.Fatalf("merge count=%d sum=%d, want 3/104", m.Count(), m.Sum)
	}
	// Zero-value snapshot is the merge identity (totals fold from it).
	var zero HistogramSnapshot
	if got := zero.Merge(a.Snapshot()); got.Count() != 2 {
		t.Fatalf("identity merge count = %d, want 2", got.Count())
	}
}

// TestConcurrentObserveSnapshot is the -race hammer: many writers observing
// into one histogram and counter group while readers snapshot continuously.
// The assertions are deliberately weak (monotone, complete totals at the
// end) — the point is that the race detector sees every access pattern the
// serving hot path performs.
func TestConcurrentObserveSnapshot(t *testing.T) {
	h := NewHistogram(LatencyBuckets())
	g := NewShardGroup()
	rc := NewResponseCounters("/a", "/b")
	writers := runtime.GOMAXPROCS(0) * 2
	if writers < 4 {
		writers = 4
	}
	const perWriter = 5000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastCount uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := h.Snapshot()
				if c := s.Count(); c < lastCount {
					t.Errorf("histogram count went backwards: %d -> %d", lastCount, c)
					return
				} else {
					lastCount = c
				}
				g.Snapshot(ShardGauges{Generation: 1})
				rc.Snapshot()
			}
		}()
	}
	var ww sync.WaitGroup
	for w := 0; w < writers; w++ {
		ww.Add(1)
		go func(w int) {
			defer ww.Done()
			for i := 0; i < perWriter; i++ {
				h.Observe(int64(w*perWriter + i))
				g.Batches.Inc()
				g.Coalesced.Add(2)
				g.ServiceTime.Observe(float64(i%40 + 1))
				g.CacheHits.Inc()
				rc.Observe("/a", 200)
				rc.Observe("/b", 404)
			}
		}(w)
	}
	ww.Wait()
	close(stop)
	wg.Wait()

	total := uint64(writers * perWriter)
	if c := h.Snapshot().Count(); c != total {
		t.Fatalf("histogram lost observations: %d, want %d", c, total)
	}
	if g.Batches.Load() != int64(total) || g.Coalesced.Load() != int64(total)*2 {
		t.Fatalf("counter group lost increments: %d/%d", g.Batches.Load(), g.Coalesced.Load())
	}
	snap := rc.Snapshot()
	if snap[0].Classes[1] != int64(total) || snap[1].Classes[3] != int64(total) {
		t.Fatalf("response counters lost increments: %+v", snap)
	}
}
