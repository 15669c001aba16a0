package serve

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"prestroid/internal/telemetry"
)

// DefaultReplicas is the prestroidd default slot count (Config.Replicas):
// one per core, capped at 4. A model call convolves its query's trees on the
// caller's goroutine (PredictEncoded), so a slot is one core's worth of
// CPU-bound work, and past a handful of calls at once more slots buy no
// parallelism on typical hosts. A slot costs no model memory: every call
// runs on the one model.
func DefaultReplicas() int {
	n := runtime.GOMAXPROCS(0)
	if n > 4 {
		n = 4
	}
	if n < 1 {
		n = 1
	}
	return n
}

// ShardedEngine is the inference engine: one prediction cache, one sub-tree
// cache and one template cache, a single-flight map, and one model that
// every miss runs on, at most cfg.Replicas calls at a time. The name is
// historical: the engine once split its caches and model replicas into
// hash-addressed shards.
//
// There is one way through it: the handler goroutine that takes a miss runs
// every stage itself — parse → plan (frontEnd) → encode, then the model once
// a slot is free (predict). The prediction cache, keyed by canonicalised
// SQL, is read once before any of this and written once after it; on an
// engine that answers templates the template cache is read between the two,
// by template key. Concurrent misses share one flight: keyed on the template
// key where the engine answers templates, so every first variant of a new
// template waits on one model call, and on the canonical key elsewhere (see
// predictKey).
//
// The engine never writes its model: a call reads the weights, takes its
// scratch from the model's arena pool and hands the model the engine's
// sub-tree cache as an argument (servedModel.PredictEncoded). Any number of
// engines, and Predictor.PredictSQL, may therefore share one model.
//
// A ShardedEngine is one generation of one serving identity, and immutable:
// model, pipeline, normaliser, generation and caches are fixed by
// newShardedEngineAt, and no field is written afterwards. New weights never
// reach a running engine. "Which generation answered" is therefore a
// property of which engine value a request was handed — a response can no
// more mix two generations than one pointer can be two pointers. Rolling new
// weights in means building the next engine and swapping the identity's live
// pointer; that protocol, the generation sequence and the roll counters
// belong to ModelEntry.
type ShardedEngine struct {
	// pred is the served identity: model (pred.Model, checked against the
	// contract once) encodes and predicts every miss and takes every
	// encoding back for recycling, and pred's normaliser renders answers.
	pred  *Predictor
	model servedModel
	gen   int64

	// slots holds one token per model call in flight; its capacity is the
	// slot count (Config.Replicas).
	slots chan struct{}

	// The engine's caches, each nil when disabled: finished predictions,
	// the sub-tree partial results every model call reads and fills, and
	// template answers. All three are born empty with the engine and die
	// with it. Only an engine that answers templates has a template cache:
	// its pipeline strips literal values before embedding, so every literal
	// variant of a template gets one answer. A HashedPredicates pipeline
	// encodes literals, and a predictor without a pipeline promises nothing.
	cache     *predictionCache
	convCache *subtreeCache
	tmplCache *templateCache

	// busy counts the handlers waiting for or holding a slot: the admission
	// signal (estWaitMicros) and the queue-depth gauge.
	busy atomic.Int64

	// inflight maps each flight key some handler is computing — the
	// template key on an engine that answers templates, the canonical key
	// otherwise — to that handler's flight (see join).
	flightMu sync.Mutex
	inflight map[string]*flight

	// tel is the engine's counter group: model-call and cache counters land
	// here as atomic adds, and Snapshot folds them with the sampled gauges.
	// The group is lent, not owned: a serving identity hands the group of
	// the engine a roll retires to its successor, so counters and the
	// admission EWMA carry across rolls.
	tel *telemetry.ShardGroup

	// maxEstWaitMicros is the bounded-wait admission target in microseconds
	// (Config.MaxEstWait). <= 0 means an infinite bound: admit never sheds.
	maxEstWaitMicros float64

	// name and params identify the served model on operator surfaces.
	name   string
	params int
}

// NewShardedEngine builds an engine serving pred. cfg.CacheSize,
// cfg.SubtreeCacheSize and cfg.TemplateCacheSize size its caches, and
// cfg.Replicas bounds its model calls in flight (at least one). The engine
// reads pred's model and never writes it, so the caller may go on using pred.
// It panics on a model that does not meet the serving contract
// (servedModel).
func NewShardedEngine(pred *Predictor, cfg Config) *ShardedEngine {
	return newShardedEngineAt(pred, cfg, initialGeneration, nil)
}

// initialGeneration is the generation an identity's first engine serves: the
// bundle (or in-process training run) it was built from is generation 1, and
// each roll — weight-only, full-bundle or promotion — builds its successor
// one higher, so "generation g" always names exactly one (pipeline,
// normaliser, weights) triple.
const initialGeneration = 1

// newShardedEngineAt is NewShardedEngine with an explicit generation and
// counter group: the successor a roll builds is born at its predecessor's
// generation + 1 and, when it replaces the predecessor outright, counts into
// the same group. A nil tel starts a fresh one. Nothing runs behind an
// engine, so there is nothing to stop: a retired engine keeps answering
// under its own generation for whoever still holds it.
func newShardedEngineAt(pred *Predictor, cfg Config, gen int64, tel *telemetry.ShardGroup) *ShardedEngine {
	if tel == nil {
		tel = telemetry.NewShardGroup()
	}
	se := &ShardedEngine{
		pred:             pred,
		model:            pred.mustServe(),
		gen:              gen,
		slots:            make(chan struct{}, max(1, cfg.Replicas)),
		tel:              tel,
		maxEstWaitMicros: float64(cfg.MaxEstWait.Microseconds()),
		name:             pred.Model.Name(),
		params:           pred.Model.ParamCount(),
	}
	if cfg.CacheSize > 0 {
		se.cache = newPredictionCache(cfg.CacheSize, &tel.CacheHits, &tel.CacheMisses)
	}
	if cfg.SubtreeCacheSize > 0 {
		se.convCache = newSubtreeCache(cfg.SubtreeCacheSize, &tel.SubtreeHits, &tel.SubtreeMisses)
	}
	if cfg.TemplateCacheSize > 0 && pred.Pipe != nil && !pred.Pipe.Enc.HashedPredicates {
		se.tmplCache = newTemplateCache(cfg.TemplateCacheSize, &tel.TemplateHits, &tel.TemplateMisses)
	}
	return se
}

// Generation reports the generation of the identity this engine serves (1 =
// the one its ModelEntry, or a bare NewShardedEngine, started with).
func (se *ShardedEngine) Generation() int64 { return se.gen }

// Shards reports the engine's slot count (Config.Replicas): how many model
// calls it runs at once. The name is historical.
func (se *ShardedEngine) Shards() int { return cap(se.slots) }

// Close ends the engine's service life. Nothing runs behind an engine —
// every model call runs on the goroutine that asked for it — so there is
// nothing to stop or drain, and a query arriving afterwards is answered as
// before: that is how a request that read the identity's live pointer just
// before a roll still gets its answer, under this engine's generation, after
// the roll retired it.
func (se *ShardedEngine) Close() {}

// fnv32a is 32-bit FNV-1a over s: the one hash behind the quota stripe and
// the canary bucket. hash/fnv would cost two allocations per call.
func fnv32a(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// PredictSQL is PredictSQLGenCtx with no deadline and without the
// generation tag. Identical SQL yields byte-identical predictions whatever
// the slot count and however many calls ran at once.
func (se *ShardedEngine) PredictSQL(sql string) (Prediction, error) {
	p, _, err := se.PredictSQLGenCtx(context.Background(), sql)
	return p, err
}

// Snapshot returns the engine's full telemetry state in one pass: its
// counter group as the one row of Shards, the sampled gauges (busy handlers,
// cache entries), the slot count, and the generation and model identity.
// The roll counters (Reloads, RejectedBundles) belong to the serving
// identity, not to any one engine; ModelEntry.Snapshot fills them in.
func (se *ShardedEngine) Snapshot() telemetry.EngineSnapshot {
	entries, _ := se.cache.Stats()
	subEntries, subBytes := se.convCache.Stats()
	tmplEntries, tmplBytes := se.tmplCache.Stats()
	return telemetry.EngineSnapshot{
		Generation: se.gen,
		ModelName:  se.name,
		Params:     se.params,
		Replicas:   se.Shards(),
		Shards: []telemetry.ShardSnapshot{se.tel.Snapshot(telemetry.ShardGauges{
			Queued:          int(se.busy.Load()),
			Replicas:        se.Shards(),
			CacheEntries:    entries,
			SubtreeEntries:  subEntries,
			SubtreeBytes:    subBytes,
			TemplateEntries: tmplEntries,
			TemplateBytes:   tmplBytes,
			Generation:      se.gen,
		})},
	}
}
