// Package api defines the typed request and response shapes of the v1 HTTP
// surface — one Go struct per endpoint payload, shared by the server
// (internal/serve), the load generator (cmd/prestroidload) and the e2e
// scripts, so the wire contract lives in exactly one place.
//
// The JSON rendered from these types is the compatibility contract: field
// names, order and omission rules are pinned by the serve package's
// backward-compat suite. In particular, a model-less PredictRequest against
// the default model must serialise byte-identically to the single-model
// daemon's historical responses, which is why optional multi-model fields
// (Model, Roll, Percent, ...) all carry omitempty and sit after the
// pre-existing fields.
//
// # Endpoints
//
//   - POST /v1/predict  — PredictRequest → PredictResponse | ErrorResponse
//   - POST /v1/explain  — PredictRequest → ExplainResponse | ErrorResponse
//   - GET  /v1/stats    — Stats
//   - GET  /v1/models   — ModelsResponse
//   - POST /v1/reload   — ReloadRequest → ReloadResponse | ErrorResponse
//   - POST /v1/models/{name}/promote — ModelActionResponse | ErrorResponse
//   - POST /v1/models/{name}/abort   — ModelActionResponse | ErrorResponse
//   - GET  /metrics     — Prometheus text exposition (not JSON)
//   - GET  /healthz     — "ok" (text/plain)
//
// Every error on every endpoint uses the one envelope in error.go.
package api

// DefaultModel is the identity a request without a model field routes to:
// the bundle the daemon was started with (the first -bundle flag, or the
// trained-in-memory model). A single-model deployment only ever has this
// identity.
const DefaultModel = "default"

// Roll states reported by /v1/models, /v1/stats and the model_state metric.
const (
	// StateLive: the model serves all traffic routed to its name; no roll in
	// flight.
	StateLive = "live"
	// StateShadow: a staged bundle mirrors a sample of the model's live
	// traffic off the hot path, serving none of it.
	StateShadow = "shadow"
	// StateCanary: a staged bundle serves a deterministic percentage of the
	// model's keyspace.
	StateCanary = "canary"
)

// Prediction is the costing result for one query: the denormalised CPU-
// minutes figure the capacity planner consumes, the model's raw normalised
// output, and the plan shape the figure was derived from.
type Prediction struct {
	CPUMinutes float64 `json:"cpu_minutes"`
	Normalized float64 `json:"normalized"`
	PlanNodes  int     `json:"plan_nodes"`
	PlanDepth  int     `json:"plan_depth"`
	Tables     int     `json:"tables"`
}

// PredictRequest is the body of POST /v1/predict and POST /v1/explain. SQL
// is required. Model selects a named predictor identity; absent or empty, it
// routes to the default model — byte-identical to the single-model daemon.
// An unknown model answers 404 with code "unknown_model".
type PredictRequest struct {
	SQL   string `json:"sql"`
	Model string `json:"model,omitempty"`
}

// KernelFloat is the serving kernel every response reports in its "kernel"
// field. The daemon has one kernel; the field stays in the wire format so
// clients that parse it keep working.
const KernelFloat = "float"

// PredictResponse is a Prediction plus the identity generation that produced
// it, so clients of a continuously retrained service can tell which bundle
// answered, and the serving kernel (always KernelFloat). Model echoes the
// identity that answered, only when the request named one; model-less
// requests keep the historical response bytes.
type PredictResponse struct {
	Prediction
	Generation int64  `json:"generation"`
	Kernel     string `json:"kernel"`
	Model      string `json:"model,omitempty"`
}

// ExplainResponse carries the plan views of POST /v1/explain.
type ExplainResponse struct {
	Plan      string   `json:"plan"`
	PlanNodes int      `json:"plan_nodes"`
	PlanDepth int      `json:"plan_depth"`
	Tables    []string `json:"tables"`
	Preds     []string `json:"predicates"`
}

// ReloadRequest is the body of POST /v1/reload: exactly one of Weights or
// Bundle, each naming an artefact written by the retraining job (`prestroidd
// -train`) and readable by the serving process.
//
// Weights rolls a weight-only bundle (feature pipeline and normaliser
// unchanged). Bundle rolls a full (pipeline, normaliser, weights) bundle.
// Either way a complete new engine is built beside the live one: with Mode
// empty it is swapped in at once, with Mode "shadow" or "canary" it is
// staged next to the live identity until promoted or aborted (full bundles
// only).
//
// Model names the identity the roll targets; empty falls back to the name
// embedded in the bundle at train time, then to the default model. Percent
// is the canary keyspace share (1..99), required for Mode "canary" and
// meaningless otherwise.
type ReloadRequest struct {
	Weights string `json:"weights,omitempty"`
	Bundle  string `json:"bundle,omitempty"`
	Model   string `json:"model,omitempty"`
	Mode    string `json:"mode,omitempty"` // "" (direct), "shadow" or "canary"
	Percent int    `json:"percent,omitempty"`
}

// ReloadResponse reports a completed roll or staging. Generation is the
// generation now serving (direct roll) or staged (shadow/canary). Mode is
// the artefact kind ("weights" or "bundle" — the historical field). Roll
// reports the deployment mode when the bundle was staged rather than swapped
// in, and Percent the canary share. Shards is the new engine's slot count
// (Config.Replicas; the name is historical).
type ReloadResponse struct {
	Generation int64   `json:"generation"`
	Shards     int     `json:"shards"`
	Mode       string  `json:"mode"`
	Millis     float64 `json:"millis"`
	Model      string  `json:"model,omitempty"`
	Roll       string  `json:"roll,omitempty"`
	Percent    int     `json:"percent,omitempty"`
}

// ModelActionResponse reports a completed POST /v1/models/{name}/promote or
// /abort. After a promote, Generation is the staged generation now serving
// live; after an abort, the live generation that keeps serving.
type ModelActionResponse struct {
	Model      string `json:"model"`
	Action     string `json:"action"` // "promote" or "abort"
	Generation int64  `json:"generation"`
}

// ModelInfo is one identity's row in GET /v1/models.
type ModelInfo struct {
	Name string `json:"name"`
	// State is "live", or "shadow"/"canary" while a staged roll is pending
	// on this identity; Percent is the canary keyspace share.
	State   string `json:"state"`
	Percent int    `json:"percent,omitempty"`
	// Generation is the live identity's generation; StagedGeneration the
	// pending bundle's (0 when no roll is staged).
	Generation       int64  `json:"generation"`
	StagedGeneration int64  `json:"staged_generation,omitempty"`
	Kernel           string `json:"kernel"` // always KernelFloat
	Replicas         int    `json:"replicas"`
	// Architecture is the model's own name (e.g. "prestroid-..."), as
	// distinct from the serving identity name it is registered under.
	Architecture string `json:"architecture"`
	Parameters   int    `json:"parameters"`
	Reloads      int64  `json:"reloads"`
	Promotions   int64  `json:"promotions"`
	Aborts       int64  `json:"aborts"`
	Default      bool   `json:"default,omitempty"`
}

// ModelsResponse is the body of GET /v1/models: every registered identity,
// default first, the rest in registration order.
type ModelsResponse struct {
	Models []ModelInfo `json:"models"`
}

// EngineStats is the engine-level slice of the stats view: the model-call,
// caching, admission and roll counters of one engine. Batches counts
// model calls, one row each, and AvgBatchSize is the queries they answered
// (single-flight followers included) per call. It appears
// twice — embedded (flattened) at the top level of Stats for the default
// model's live engine, preserving the historical field set, and embedded in
// each ModelStats section.
type EngineStats struct {
	Batches      int64   `json:"batches"`
	AvgBatchSize float64 `json:"avg_batch_size"`

	CacheHits    int64   `json:"cache_hits"`
	CacheMisses  int64   `json:"cache_misses"`
	CacheHitRate float64 `json:"cache_hit_rate"`
	CacheEntries int     `json:"cache_entries"`

	// The subtree_cache_* block covers the engine's sub-tree convolution
	// cache: hits are pooled conv outputs served without a forward pass,
	// misses are sub-tree convolutions actually computed. Entries and bytes
	// are sampled gauges.
	SubtreeHits    int64   `json:"subtree_cache_hits"`
	SubtreeMisses  int64   `json:"subtree_cache_misses"`
	SubtreeHitRate float64 `json:"subtree_cache_hit_rate"`
	SubtreeEntries int     `json:"subtree_cache_entries"`
	SubtreeBytes   int64   `json:"subtree_cache_bytes"`

	// The template_cache_* block covers the engine's template answers: hits
	// are requests answered from their template's entry, with no parse, plan,
	// encode or model; misses are template lookups that found none. Entries
	// and bytes are sampled gauges.
	TemplateHits    int64   `json:"template_cache_hits"`
	TemplateMisses  int64   `json:"template_cache_misses"`
	TemplateHitRate float64 `json:"template_cache_hit_rate"`
	TemplateEntries int     `json:"template_cache_entries"`
	TemplateBytes   int64   `json:"template_cache_bytes"`

	// Shed counts queries refused by bounded-wait admission (429), Expired
	// counts queries dropped because their deadline passed (504), and
	// MaxEstWaitMillis is the engine's wait estimate at snapshot time — the
	// number to compare against -max-est-wait, which admission sheds on.
	Shed             int64   `json:"shed"`
	Expired          int64   `json:"expired"`
	MaxEstWaitMillis float64 `json:"max_est_wait_millis"`

	// WeightGeneration is the generation the engine serves, set by the last
	// reload — weight-only or full-bundle — that completed; the counter
	// covers the full predictor identity (pipeline, normaliser, weights).
	// Reloads counts completed rolls of either kind.
	WeightGeneration int64 `json:"weight_generation"`
	Reloads          int64 `json:"reloads"`
	RejectedReloads  int64 `json:"rejected_reloads"`

	// Replicas is how many model calls the engine runs at once, all on its
	// one model; Shards holds one row, the engine-wide counters.
	Replicas int          `json:"replicas"`
	Shards   []ShardStats `json:"shards"`

	ModelName string `json:"model"`
	Params    int    `json:"parameters"`
	Kernel    string `json:"kernel"` // always KernelFloat
}

// ShardStats is the one row of the stats view's shards list: the engine's
// model-call and cache counters plus its busy handlers at snapshot time.
// Batches counts model calls, one row each; Coalesced the queries they
// answered, single-flight followers included.
type ShardStats struct {
	Shard           int     `json:"shard"`
	Batches         int64   `json:"batches"`
	Coalesced       int64   `json:"coalesced"`
	AvgBatchSize    float64 `json:"avg_batch_size"`
	CacheHits       int64   `json:"cache_hits"`
	CacheMisses     int64   `json:"cache_misses"`
	CacheEntries    int     `json:"cache_entries"`
	SubtreeHits     int64   `json:"subtree_cache_hits"`
	SubtreeMisses   int64   `json:"subtree_cache_misses"`
	SubtreeEntries  int     `json:"subtree_cache_entries"`
	SubtreeBytes    int64   `json:"subtree_cache_bytes"`
	TemplateHits    int64   `json:"template_cache_hits"`
	TemplateMisses  int64   `json:"template_cache_misses"`
	TemplateEntries int     `json:"template_cache_entries"`
	TemplateBytes   int64   `json:"template_cache_bytes"`
	Shed            int64   `json:"shed"`
	Expired         int64   `json:"expired"`
	// ServiceTimeMillis is the EWMA per-call model round trip, wait
	// excluded; Queued is the handlers waiting for or holding a model slot,
	// and EstWaitMillis is Queued × that EWMA ÷ the slot count — the
	// admission controller's live signal, sampled at snapshot time.
	ServiceTimeMillis float64 `json:"service_time_millis"`
	EstWaitMillis     float64 `json:"est_wait_millis"`
	Queued            int     `json:"queued"`
	Generation        int64   `json:"generation"`
}

// ShadowStats is the output-delta and latency-delta telemetry a shadow roll
// accumulates by mirroring a sample of live requests into the staged bundle:
// the evidence an operator promotes (or aborts) on.
type ShadowStats struct {
	// Mirrored counts live requests the staged bundle re-predicted; Dropped
	// counts mirror candidates skipped because the mirror's bounded
	// concurrency was exhausted (the mechanism that keeps shadowing off the
	// hot path); Errors counts mirrored predictions the staged bundle failed.
	Mirrored int64 `json:"mirrored"`
	Dropped  int64 `json:"dropped"`
	Errors   int64 `json:"errors"`
	// Output deltas are |staged − live| in denormalised CPU-minutes.
	DeltaMeanMinutes float64 `json:"output_delta_mean_minutes"`
	DeltaP99Minutes  float64 `json:"output_delta_p99_minutes"`
	DeltaMaxMinutes  float64 `json:"output_delta_max_minutes"`
	// Latency percentiles of the mirrored staged predictions vs the live
	// predictions they shadowed, in milliseconds.
	ShadowP50Millis float64 `json:"shadow_p50_millis"`
	ShadowP95Millis float64 `json:"shadow_p95_millis"`
	LiveP50Millis   float64 `json:"live_p50_millis"`
	LiveP95Millis   float64 `json:"live_p95_millis"`
}

// ModelStats is one identity's section under Stats.Models: roll state and
// deployment counters, the live engine's counters (flattened), and — while a
// roll is staged — the staged engine's counters and any shadow deltas.
type ModelStats struct {
	Name       string `json:"name"`
	State      string `json:"state"`
	Percent    int    `json:"percent,omitempty"`
	Promotions int64  `json:"promotions"`
	Aborts     int64  `json:"aborts"`
	EngineStats
	Staged *EngineStats `json:"staged,omitempty"`
	Shadow *ShadowStats `json:"shadow,omitempty"`
}

// Stats is the GET /v1/stats view. It is a pure rendering of one telemetry
// snapshot — the same snapshot the Prometheus /metrics exposition renders —
// so the two surfaces can never disagree on a counter. The top-level fields
// are the single-model daemon's historical surface: process and HTTP
// counters plus the default model's live engine (flattened via the embedded
// EngineStats). Models nests one section per registered identity — the
// default model's section repeats the top-level engine numbers next to its
// roll state, so dashboards can treat every identity uniformly.
type Stats struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	GoVersion     string  `json:"go_version"`
	Version       string  `json:"version"`
	Goroutines    int     `json:"go_goroutines"`

	Requests    int64   `json:"requests"`
	Errors      int64   `json:"errors"`
	Throttled   int64   `json:"throttled"`
	TotalMillis int64   `json:"total_millis"`
	AvgMillis   float64 `json:"avg_millis"`
	P50Millis   float64 `json:"p50_millis"`
	P95Millis   float64 `json:"p95_millis"`
	P99Millis   float64 `json:"p99_millis"`

	EngineStats

	Models []ModelStats `json:"models"`
}
