package telemetry

// ShardGroup is an engine's counter group, written by the handlers running
// its misses and by its caches with atomic adds only. Gauges that are
// properties of other structures (busy handlers, cache entries, weight
// generation) are sampled by the owner at snapshot time rather than
// mirrored on every change.
type ShardGroup struct {
	Batches        Counter // model calls, one row each
	Coalesced      Counter // queries those calls answered, single-flight followers included
	CacheHits      Counter
	CacheMisses    Counter
	SubtreeHits    Counter // pooled-conv partial results served from cache
	SubtreeMisses  Counter // sub-tree convolutions actually computed
	TemplateHits   Counter // front-end passes replaced by a template rebind
	TemplateMisses Counter // full lex/parse/plan/featurize passes
	Shed           Counter // queries refused by bounded-wait admission
	Expired        Counter // queries dropped because their deadline passed
	Panics         Counter // model calls that panicked and failed their query
	ServiceTime    EWMA    // per-call model round trip, wait excluded, microseconds
}

// NewShardGroup builds an empty counter group.
func NewShardGroup() *ShardGroup { return &ShardGroup{} }

// EstWaitMicros is the admission controller's wait estimate for an engine
// with `busy` handlers waiting for or holding one of its `replicas` model
// slots: 0 while fewer handlers than slots are busy, so a free slot is
// never priced as a wait, and otherwise busy times the EWMA per-call
// service time, over the slot count. 0 is also the answer with
// no samples yet (cold engine) — admission treats that as "no evidence of
// overload" and admits.
func (g *ShardGroup) EstWaitMicros(busy, replicas int) float64 {
	replicas = max(replicas, 1)
	if busy < replicas {
		return 0
	}
	return float64(busy) * g.ServiceTime.Load() / float64(replicas)
}

// ShardGauges carries the point-in-time gauges a shard's owner samples at
// snapshot time — state that lives in other structures (the engine's busy
// count, caches, weight generation) rather than in the counter group.
type ShardGauges struct {
	Queued          int // handlers waiting for or holding a model slot
	Replicas        int // model slots: calls the engine runs at once
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
		EstWaitMicros:     g.EstWaitMicros(gauges.Queued, gauges.Replicas),
		Queued:            gauges.Queued,
		Generation:        gauges.Generation,
	}
}

// ShardSnapshot is one shard's slice of an EngineSnapshot.
type ShardSnapshot struct {
	Shard           int
	Batches         int64
	Coalesced       int64
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
	// to this shard, Panics the model calls that panicked; ServiceTimeMicros
	// and EstWaitMicros are the live EWMA per-call service time and the
	// busy × service-time ÷ replicas wait estimate admission control decides
	// on (0 = no samples yet); Queued is the busy count.
	Shed              int64
	Expired           int64
	Panics            int64
	ServiceTimeMicros float64
	EstWaitMicros     float64
	Queued            int
	Generation        int64
}

// EngineSnapshot is an engine's full telemetry state: its counter group as
// the one row of Shards, plus the roll counters, the slot count and the
// live model identity.
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
	Replicas        int // model calls the engine runs at once
	Shards          []ShardSnapshot
}

// ShardTotals is the sum of one EngineSnapshot's rows — derived from the
// same numbers a presenter shows next to it, so the aggregate and the rows
// can never disagree.
type ShardTotals struct {
	Batches         int64
	Coalesced       int64
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
	// MaxEstWaitMicros is the worst row's wait estimate — the number an
	// operator compares against -max-est-wait, which admission sheds on.
	MaxEstWaitMicros float64
	Queued           int
}

// Totals sums the snapshot's rows.
func (e EngineSnapshot) Totals() ShardTotals {
	var t ShardTotals
	for _, s := range e.Shards {
		t.Batches += s.Batches
		t.Coalesced += s.Coalesced
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
