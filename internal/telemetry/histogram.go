package telemetry

import "sync/atomic"

// Histogram is a lock-free fixed-bucket histogram over int64 observations.
// Bucket i counts observations v with bounds[i-1] < v <= bounds[i]; one
// extra overflow bucket catches everything past the last bound (the +Inf
// bucket of the Prometheus exposition). An observation is two atomic adds —
// one bucket count, one running sum — with no mutex, so the hot path never
// serialises behind its own instrumentation. Quantiles are estimated from
// the bucket counts at snapshot time instead of being tracked online.
type Histogram struct {
	bounds []int64         // sorted inclusive upper bounds
	counts []atomic.Uint64 // len(bounds)+1; last is overflow
	sum    atomic.Int64    // sum of all observed values
}

// NewHistogram builds a histogram over the given sorted, strictly increasing
// inclusive upper bounds.
func NewHistogram(bounds []int64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("telemetry: histogram bounds must be strictly increasing")
		}
	}
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

// Observe records one value: one bucket-count add and one sum add, both
// atomic, no lock.
func (h *Histogram) Observe(v int64) {
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if h.bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	h.counts[lo].Add(1)
	h.sum.Add(v)
}

// Snapshot copies the current bucket counts and sum. Each counter is read
// atomically but the set is not a point-in-time cut: an observation landing
// mid-snapshot may appear in the sum and not yet in a bucket (or vice
// versa). Every field is individually monotone, which is the contract
// scrapers rely on.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]uint64, len(h.counts)),
		Sum:    h.sum.Load(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// HistogramSnapshot is an immutable copy of a histogram's state. Bounds is
// shared with the live histogram and must not be mutated.
type HistogramSnapshot struct {
	Bounds []int64
	Counts []uint64 // len(Bounds)+1; last is the overflow (+Inf) bucket
	Sum    int64
}

// Count returns the total number of observations.
func (s HistogramSnapshot) Count() uint64 {
	var n uint64
	for _, c := range s.Counts {
		n += c
	}
	return n
}

// Mean returns the exact average observation (the sum is tracked exactly,
// not reconstructed from buckets), or 0 with no observations.
func (s HistogramSnapshot) Mean() float64 {
	n := s.Count()
	if n == 0 {
		return 0
	}
	return float64(s.Sum) / float64(n)
}

// Quantile estimates the q-quantile (0 < q <= 1) by locating the bucket
// holding the nearest-rank observation and interpolating linearly inside it.
// The estimate is exact at bucket boundaries and off by at most one bucket
// width elsewhere; observations in the overflow bucket report the last
// finite bound. Returns 0 with no observations.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	total := s.Count()
	if total == 0 || len(s.Bounds) == 0 {
		return 0
	}
	rank := q * float64(total)
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i, c := range s.Counts {
		prev := cum
		cum += c
		if c == 0 || float64(cum) < rank {
			continue
		}
		if i >= len(s.Bounds) {
			return float64(s.Bounds[len(s.Bounds)-1])
		}
		var lower float64
		if i > 0 {
			lower = float64(s.Bounds[i-1])
		}
		upper := float64(s.Bounds[i])
		return lower + (upper-lower)*(rank-float64(prev))/float64(c)
	}
	return float64(s.Bounds[len(s.Bounds)-1])
}

// Merge returns the bucket-wise sum of two snapshots over identical bounds;
// a zero-value snapshot merges as the identity, so totals can fold from it.
func (s HistogramSnapshot) Merge(o HistogramSnapshot) HistogramSnapshot {
	if len(s.Counts) == 0 {
		return o
	}
	if len(o.Counts) == 0 {
		return s
	}
	if len(s.Counts) != len(o.Counts) {
		panic("telemetry: merging histograms with different bucket layouts")
	}
	out := HistogramSnapshot{
		Bounds: s.Bounds,
		Counts: make([]uint64, len(s.Counts)),
		Sum:    s.Sum + o.Sum,
	}
	for i := range s.Counts {
		out.Counts[i] = s.Counts[i] + o.Counts[i]
	}
	return out
}

// ExponentialBuckets generates n strictly increasing integer upper bounds
// starting at start and growing by factor, rounding each bound and bumping
// it past its predecessor when rounding would collide.
func ExponentialBuckets(start, factor float64, n int) []int64 {
	bounds := make([]int64, n)
	v := start
	for i := range bounds {
		b := int64(v + 0.5)
		if i > 0 && b <= bounds[i-1] {
			b = bounds[i-1] + 1
		}
		bounds[i] = b
		v *= factor
	}
	return bounds
}

// LatencyBuckets returns the request-latency bucket bounds in microseconds:
// exponential from 25µs with factor 1.5, topping out around 55s. The growth
// factor bounds the relative error of bucket-derived quantiles at one bucket
// width (~50%); in practice linear interpolation lands much closer.
func LatencyBuckets() []int64 { return ExponentialBuckets(25, 1.5, 37) }
