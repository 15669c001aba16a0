package telemetry

// ShardGroup is the per-shard counter group: one per engine shard, written
// by that shard's batcher and cache with atomic adds only. Gauges that are
// properties of other structures (queue depth, cache entries, weight
// generation) are sampled by the owner at snapshot time rather than
// mirrored on every change.
type ShardGroup struct {
	Batches        Counter // coalesced groups flushed
	Coalesced      Counter // queries served through those groups
	CacheHits      Counter
	CacheMisses    Counter
	SubtreeHits    Counter    // pooled-conv partial results served from cache
	SubtreeMisses  Counter    // sub-tree convolutions actually computed
	TemplateHits   Counter    // front-end passes replaced by a template rebind
	TemplateMisses Counter    // full lex/parse/plan/featurize passes
	Shed           Counter    // queries refused by bounded-wait admission
	Expired        Counter    // queries dropped because their deadline passed
	Panics         Counter    // flushes that panicked and failed their batch
	BatchSizes     *Histogram // deduplicated rows per flushed batch
	ServiceTime    EWMA       // per-query drain time through the batcher, microseconds
}

// NewShardGroup builds a shard group with the standard batch-size buckets.
func NewShardGroup() *ShardGroup {
	return &ShardGroup{BatchSizes: NewHistogram(BatchBuckets())}
}

// EstWaitMicros is the admission controller's wait estimate for a shard
// with `queued` jobs ahead: queue depth times the EWMA per-query service
// time. 0 means no estimate yet (cold shard) — admission treats that as
// "no evidence of overload" and admits.
func (g *ShardGroup) EstWaitMicros(queued int) float64 {
	return float64(queued) * g.ServiceTime.Load()
}

// ShardGauges carries the point-in-time gauges a shard's owner samples at
// snapshot time — state that lives in other structures (queue, caches,
// weight generation) rather than in the counter group.
type ShardGauges struct {
	Queued          int
	CacheEntries    int
	SubtreeEntries  int
	SubtreeBytes    int64
	TemplateEntries int
	TemplateBytes   int64
	Generation      int64
}

// Snapshot folds the group's counters with the gauges the owner sampled at
// call time. The caller fills in the shard index.
func (g *ShardGroup) Snapshot(gauges ShardGauges) ShardSnapshot {
	return ShardSnapshot{
		Batches:           g.Batches.Load(),
		Coalesced:         g.Coalesced.Load(),
		BatchSizes:        g.BatchSizes.Snapshot(),
		CacheHits:         g.CacheHits.Load(),
		CacheMisses:       g.CacheMisses.Load(),
		CacheEntries:      gauges.CacheEntries,
		SubtreeHits:       g.SubtreeHits.Load(),
		SubtreeMisses:     g.SubtreeMisses.Load(),
		SubtreeEntries:    gauges.SubtreeEntries,
		SubtreeBytes:      gauges.SubtreeBytes,
		TemplateHits:      g.TemplateHits.Load(),
		TemplateMisses:    g.TemplateMisses.Load(),
		TemplateEntries:   gauges.TemplateEntries,
		TemplateBytes:     gauges.TemplateBytes,
		Shed:              g.Shed.Load(),
		Expired:           g.Expired.Load(),
		Panics:            g.Panics.Load(),
		ServiceTimeMicros: g.ServiceTime.Load(),
		EstWaitMicros:     g.EstWaitMicros(gauges.Queued),
		Queued:            gauges.Queued,
		Generation:        gauges.Generation,
	}
}

// ShardSnapshot is one shard's slice of an EngineSnapshot.
type ShardSnapshot struct {
	Shard           int
	Batches         int64
	Coalesced       int64
	BatchSizes      HistogramSnapshot
	CacheHits       int64
	CacheMisses     int64
	CacheEntries    int
	SubtreeHits     int64
	SubtreeMisses   int64
	SubtreeEntries  int
	SubtreeBytes    int64
	TemplateHits    int64
	TemplateMisses  int64
	TemplateEntries int
	TemplateBytes   int64
	// Shed and Expired count admission refusals and deadline drops charged
	// to this shard, Panics the flushes that panicked; ServiceTimeMicros and
	// EstWaitMicros are the live EWMA per-query service time and the
	// queue-depth × service-time wait estimate admission control decides on
	// (0 = no samples yet).
	Shed              int64
	Expired           int64
	Panics            int64
	ServiceTimeMicros float64
	EstWaitMicros     float64
	Queued            int
	Generation        int64
}

// EngineSnapshot is the sharded engine's full telemetry state: per-shard
// groups plus the roll counters and the live model identity.
type EngineSnapshot struct {
	// Generation is the generation of the (pipeline, normaliser, weights)
	// identity the engine serves, the same on every shard.
	Generation int64
	// Reloads counts the serving identity's completed rolls (weight-only,
	// full-bundle or promotion); RejectedBundles counts reload attempts
	// refused while staging (decode or validation failure). Both belong to
	// the identity, not the engine: zero on a snapshot taken off a bare
	// engine, filled in by the registry entry.
	Reloads         int64
	RejectedBundles int64
	ModelName       string
	Params          int
	Shards          []ShardSnapshot
}

// ShardTotals is the cross-shard sum of one EngineSnapshot — derived from
// the same per-shard numbers a presenter shows next to it, so the aggregate
// and the breakdown can never disagree.
type ShardTotals struct {
	Batches         int64
	Coalesced       int64
	BatchSizes      HistogramSnapshot
	CacheHits       int64
	CacheMisses     int64
	CacheEntries    int
	SubtreeHits     int64
	SubtreeMisses   int64
	SubtreeEntries  int
	SubtreeBytes    int64
	TemplateHits    int64
	TemplateMisses  int64
	TemplateEntries int
	TemplateBytes   int64
	Shed            int64
	Expired         int64
	// MaxEstWaitMicros is the worst per-shard wait estimate — the number an
	// operator compares against -max-est-wait, since admission sheds on the
	// best candidate shard, not on a fleet average.
	MaxEstWaitMicros float64
	Queued           int
}

// Totals sums the snapshot's per-shard groups.
func (e EngineSnapshot) Totals() ShardTotals {
	var t ShardTotals
	for _, s := range e.Shards {
		t.Batches += s.Batches
		t.Coalesced += s.Coalesced
		t.BatchSizes = t.BatchSizes.Merge(s.BatchSizes)
		t.CacheHits += s.CacheHits
		t.CacheMisses += s.CacheMisses
		t.CacheEntries += s.CacheEntries
		t.SubtreeHits += s.SubtreeHits
		t.SubtreeMisses += s.SubtreeMisses
		t.SubtreeEntries += s.SubtreeEntries
		t.SubtreeBytes += s.SubtreeBytes
		t.TemplateHits += s.TemplateHits
		t.TemplateMisses += s.TemplateMisses
		t.TemplateEntries += s.TemplateEntries
		t.TemplateBytes += s.TemplateBytes
		t.Shed += s.Shed
		t.Expired += s.Expired
		if s.EstWaitMicros > t.MaxEstWaitMicros {
			t.MaxEstWaitMicros = s.EstWaitMicros
		}
		t.Queued += s.Queued
	}
	return t
}

// HTTPGroup instruments the HTTP front end: serving-request totals and
// latency (prediction traffic only — admin endpoints stay out of the
// serving counters) plus per-endpoint response-class counters covering
// every route.
type HTTPGroup struct {
	Requests  Counter    // serving requests (predict/explain)
	Errors    Counter    // serving requests answered with an error status
	Throttled Counter    // serving requests refused by per-client quotas
	Latency   *Histogram // serving-request latency in microseconds
	Responses *ResponseCounters
}

// NewHTTPGroup builds the front-end group over a fixed endpoint set.
func NewHTTPGroup(endpoints ...string) *HTTPGroup {
	return &HTTPGroup{
		Latency:   NewHistogram(LatencyBuckets()),
		Responses: NewResponseCounters(endpoints...),
	}
}

// ResponseCounters counts responses per (endpoint, status class). The
// endpoint set is fixed at construction, so observation is a read-only map
// lookup plus one atomic add — no mutex.
type ResponseCounters struct {
	endpoints []string
	index     map[string]int
	counts    [][5]Counter // [endpoint][class 1xx..5xx]
}

// NewResponseCounters builds counters for a fixed endpoint list, reported in
// the given order.
func NewResponseCounters(endpoints ...string) *ResponseCounters {
	rc := &ResponseCounters{
		endpoints: endpoints,
		index:     make(map[string]int, len(endpoints)),
		counts:    make([][5]Counter, len(endpoints)),
	}
	for i, ep := range endpoints {
		rc.index[ep] = i
	}
	return rc
}

// Observe counts one response. Unknown endpoints and out-of-range statuses
// are dropped rather than panicking a live handler.
func (rc *ResponseCounters) Observe(endpoint string, status int) {
	i, ok := rc.index[endpoint]
	if !ok {
		return
	}
	class := status/100 - 1
	if class < 0 || class >= 5 {
		return
	}
	rc.counts[i][class].Inc()
}

// EndpointResponses is one endpoint's response-class counts; Classes[0] is
// 1xx through Classes[4] = 5xx.
type EndpointResponses struct {
	Endpoint string
	Classes  [5]int64
}

// Snapshot copies the counters in registration order.
func (rc *ResponseCounters) Snapshot() []EndpointResponses {
	out := make([]EndpointResponses, len(rc.endpoints))
	for i, ep := range rc.endpoints {
		out[i].Endpoint = ep
		for c := range out[i].Classes {
			out[i].Classes[c] = rc.counts[i][c].Load()
		}
	}
	return out
}

// ModelSnapshot is one serving identity's slice of a Snapshot: its roll
// state, the live engine's full telemetry, and — while a shadow or canary
// roll is pending — the staged engine's telemetry plus any shadow deltas.
type ModelSnapshot struct {
	Name string
	// State is "live" with no roll pending, else the pending roll's mode
	// ("shadow" or "canary"); Percent is the canary keyspace share.
	Percent int
	State   string
	// Promotions and Aborts count completed staged-roll resolutions on this
	// identity over the process lifetime.
	Promotions int64
	Aborts     int64

	Engine EngineSnapshot
	// Staged is the pending bundle's engine (nil when State is "live");
	// Shadow the mirror's delta telemetry (nil unless State is "shadow").
	Staged *EngineSnapshot
	Shadow *ShadowSnapshot
}

// Snapshot is the single source every presenter consumes: one consistent
// read of process, front-end and per-model engine telemetry. /v1/stats and
// /metrics are both pure functions of this struct, which is what keeps the
// JSON and Prometheus views from drifting.
type Snapshot struct {
	UptimeSeconds float64
	GoVersion     string
	Version       string // main module version from build info
	Goroutines    int

	Requests  int64
	Errors    int64
	Throttled int64
	Latency   HistogramSnapshot // microseconds
	Responses []EndpointResponses

	// Models holds one entry per registered serving identity, the default
	// model first. A single-model deployment has exactly one entry.
	Models []ModelSnapshot
}

// Default returns the default model's snapshot (the first entry) — the
// identity whose engine the historical single-model surfaces render.
func (s Snapshot) Default() ModelSnapshot {
	if len(s.Models) == 0 {
		return ModelSnapshot{}
	}
	return s.Models[0]
}
