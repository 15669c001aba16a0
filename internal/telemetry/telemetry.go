// Package telemetry is the lock-free instrumentation core of the serving
// stack. Every hot-path observation — a request latency, a cache hit, a
// model call — is a handful of atomic adds with no mutex anywhere, so
// instrumentation never contends with the traffic it measures. All state
// rolls up into one Snapshot that every presenter (the /v1/stats JSON view
// and the Prometheus /metrics exposition) derives from, so the two views can
// never drift: they are two renderings of the same numbers.
//
// The package deliberately owns no clock and no HTTP handler. Owners sample
// their gauges (busy handlers, cache entries, generation) at snapshot time and
// pass them in; presenters live with their endpoints in the serve layer.
package telemetry

import (
	"math"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. The zero value is
// ready to use. Counters are not copyable once used (they embed an atomic).
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n; n must be non-negative to keep the counter monotone.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Load returns the current count.
func (c *Counter) Load() int64 { return c.v.Load() }

// MaxGauge is a lock-free running maximum over non-negative float64
// observations. The zero value is ready to use and reads 0. It exploits the
// fact that for non-negative IEEE-754 doubles the bit patterns order the
// same way the values do, so the max can be maintained with a plain uint64
// compare-and-swap — one atomic load on the fast path when the observation
// does not raise the max. Not copyable once used.
type MaxGauge struct{ bits atomic.Uint64 }

// Observe raises the maximum to v if larger. NaN, negative and zero values
// never raise it.
func (g *MaxGauge) Observe(v float64) {
	if !(v > 0) {
		return
	}
	b := math.Float64bits(v)
	for {
		cur := g.bits.Load()
		if b <= cur {
			return
		}
		if g.bits.CompareAndSwap(cur, b) {
			return
		}
	}
}

// Load returns the maximum observed so far (0 if none).
func (g *MaxGauge) Load() float64 { return math.Float64frombits(g.bits.Load()) }

// ewmaAlpha weights each new observation of an EWMA. 0.2 reaches ~90% of a
// step change in ~10 observations — fast enough to track a service-time
// shift within ten model calls, slow enough that a single outlier call
// cannot triple the admission controller's wait estimate.
const ewmaAlpha = 0.2

// EWMA is a lock-free exponentially weighted moving average over positive
// float64 observations, maintained with the same uint64 compare-and-swap
// trick as MaxGauge. The zero value is ready to use and reads 0, which
// doubles as the "no samples yet" sentinel: consumers treat a 0 average as
// "unknown" rather than "instant". Concurrent observations may each fold
// into the same prior value; for a smoothing estimator that lost update is
// harmless noise, and the trade buys a mutex-free hot path. Not copyable
// once used.
type EWMA struct{ bits atomic.Uint64 }

// Observe folds v into the average. NaN, negative and zero observations are
// dropped so the sentinel stays unambiguous.
func (e *EWMA) Observe(v float64) {
	if !(v > 0) {
		return
	}
	for {
		cur := e.bits.Load()
		avg := math.Float64frombits(cur)
		if avg == 0 {
			avg = v // first sample seeds the average directly
		} else {
			avg += ewmaAlpha * (v - avg)
		}
		if e.bits.CompareAndSwap(cur, math.Float64bits(avg)) {
			return
		}
	}
}

// Load returns the current average (0 if nothing observed yet).
func (e *EWMA) Load() float64 { return math.Float64frombits(e.bits.Load()) }

var (
	buildOnce    sync.Once
	buildGo      string
	buildVersion string
)

// BuildInfo reports the Go toolchain version and the main module version the
// binary was built from (via runtime/debug.ReadBuildInfo). Module version is
// "unknown" when build info is unavailable (e.g. non-module builds) and
// "(devel)" for un-tagged development builds.
func BuildInfo() (goVersion, version string) {
	buildOnce.Do(func() {
		buildGo = runtime.Version()
		buildVersion = "unknown"
		if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" {
			buildVersion = bi.Main.Version
		}
	})
	return buildGo, buildVersion
}
