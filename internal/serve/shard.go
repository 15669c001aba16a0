package serve

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"prestroid/internal/logicalplan"
	"prestroid/internal/models"
	"prestroid/internal/telemetry"
)

// DefaultReplicas is the prestroidd default shard count: one per core,
// capped at 4 — each replica duplicates the model's weights, and past a
// handful of CPU-bound shards dispatch overhead outweighs the extra
// parallelism on typical hosts.
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

// forwardLimiter is the optional model knob sharing a pool of forward-
// worker slots across replicas; Prestroid implements it.
type forwardLimiter interface {
	SetForwardSemaphore(sem chan struct{})
}

// Replicas builds n serving replicas of pred. For n > 1 every replica —
// including shard 0 — wraps a fresh model clone sharing pred's pipeline and
// normaliser, so the caller's model is never mutated and stays usable on
// the serialised path after the engine closes. Each replica gets its own
// Predictor (and thus its own serialisation mutex), so N batcher goroutines
// can run their models truly concurrently; to keep N concurrent flushes
// from oversubscribing the host with N×GOMAXPROCS conv workers, the clones
// share one pool of GOMAXPROCS forward-worker slots — concurrent flushes
// divide the cores, while a single busy shard on an otherwise idle engine
// still gets all of them. When n <= 1, or the model does not implement
// models.Cloner, only pred itself is returned — the caller degrades to one
// shard.
func Replicas(pred *Predictor, n int) []*Predictor {
	cl, ok := pred.Model.(models.Cloner)
	if !ok || n <= 1 {
		return []*Predictor{pred}
	}
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	preds := make([]*Predictor, n)
	for i := range preds {
		m := cl.Clone()
		if fl, ok := m.(forwardLimiter); ok {
			fl.SetForwardSemaphore(sem)
		}
		preds[i] = &Predictor{Model: m, Pipe: pred.Pipe, Norm: pred.Norm}
	}
	return preds
}

// ShardedEngine fans inference out across N independent shards. Each shard
// is a full Engine — its own batcher goroutine, its own model replica and
// its own segment of the prediction cache — so shards share no mutable
// state and no mutex. A dispatcher hashes canonical SQL to a home shard,
// which preserves the per-shard single-flight dedup and cache locality of
// the single-engine design; when the home shard's queue is saturated, the
// query routes to the least-loaded shard instead. Rerouting is safe because
// replicas carry identical weights: every shard returns byte-identical
// predictions for identical SQL, so the only cost of a detour is a possible
// duplicate cache entry.
type ShardedEngine struct {
	shards []*Engine

	// maxEstWaitMicros is the bounded-wait admission target in microseconds
	// (Config.MaxEstWait), fixed at construction. <= 0 disables shedding:
	// dispatch then goes through pick() alone.
	maxEstWaitMicros float64

	// reloadMu serialises rolls of either kind (weight-only and
	// full-bundle): at most one bundle is ever in flight, so at any instant
	// shards carry at most two generations (the outgoing and the incoming
	// one).
	reloadMu sync.Mutex
	// generation is the full-identity generation of the last reload that
	// completed on every shard; during a roll individual shards run ahead
	// of it.
	generation atomic.Int64
	// reloads counts completed rolls of either kind; rejected counts reload
	// attempts refused before any replica was touched (decode or validation
	// failure), the signal operators alert on when a retraining job starts
	// emitting bad bundles.
	reloads  telemetry.Counter
	rejected telemetry.Counter

	// ident is the serving identity snapshot (model name + parameter
	// count) for operator surfaces. It is kept out of the shards'
	// predictor locks — /v1/stats polls must not queue behind multi-
	// millisecond model batches — and republished by every roll (only a
	// full-bundle one can change it).
	ident atomic.Pointer[modelIdent]
}

// modelIdent is the immutable identity snapshot behind ModelInfo.
type modelIdent struct {
	name   string
	params int
}

// NewShardedEngine starts one batcher per predictor (typically built with
// Replicas). cfg.CacheSize and cfg.SubtreeCacheSize are total cache budgets,
// split evenly across shards; cfg.Replicas is ignored — len(preds) decides
// the shard count.
// Callers must Close the engine to release the batcher goroutines.
func NewShardedEngine(preds []*Predictor, cfg Config) *ShardedEngine {
	return newShardedEngineAt(preds, cfg, initialGeneration)
}

// newShardedEngineAt is NewShardedEngine with an explicit starting
// generation, used when a staged shadow/canary engine must be born at the
// generation its bundle will carry on promotion.
func newShardedEngineAt(preds []*Predictor, cfg Config, gen int64) *ShardedEngine {
	if len(preds) == 0 {
		panic("serve: NewShardedEngine needs at least one predictor")
	}
	per := cfg
	if cfg.CacheSize > 0 {
		per.CacheSize = (cfg.CacheSize + len(preds) - 1) / len(preds)
	}
	if cfg.SubtreeCacheSize > 0 {
		per.SubtreeCacheSize = (cfg.SubtreeCacheSize + len(preds) - 1) / len(preds)
	}
	if cfg.TemplateCacheSize > 0 {
		per.TemplateCacheSize = (cfg.TemplateCacheSize + len(preds) - 1) / len(preds)
	}
	se := &ShardedEngine{
		shards:           make([]*Engine, len(preds)),
		maxEstWaitMicros: float64(cfg.MaxEstWait.Microseconds()),
	}
	se.generation.Store(gen)
	se.ident.Store(&modelIdent{name: preds[0].Model.Name(), params: preds[0].Model.ParamCount()})
	for i, p := range preds {
		se.shards[i] = newEngineAt(p, per, gen)
	}
	return se
}

// Shards reports the live shard count (the effective replica count).
func (se *ShardedEngine) Shards() int { return len(se.shards) }

// Kernel reports the serving kernel mode: "int8" when the shards quantise,
// "float" otherwise. Every shard is built from one Config, so the mode is
// uniform across the engine and fixed for its lifetime.
func (se *ShardedEngine) Kernel() string { return se.shards[0].Kernel() }

// Close quiesces every shard — no new dispatcher traffic is admitted
// anywhere before the first queue starts draining — then flushes and stops
// each batcher. It waits out any in-flight reload first (holding reloadMu):
// otherwise the roll's deferred endQuiesce would re-admit a closed shard to
// dispatch. Like Engine.Close it is idempotent, and queries arriving
// afterwards fall back to each shard's serialised path.
func (se *ShardedEngine) Close() {
	se.reloadMu.Lock()
	defer se.reloadMu.Unlock()
	for _, sh := range se.shards {
		sh.beginQuiesce()
	}
	for _, sh := range se.shards {
		sh.Close()
	}
}

// shardOf returns the home shard index for a canonical key: FNV-1a inlined
// over the string, since this runs on every request — including cache hits
// — and hash/fnv would cost two allocations per call.
func (se *ShardedEngine) shardOf(key string) int {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return int(h % uint32(len(se.shards)))
}

// pick resolves dispatch for a home shard: home itself, or — when its queue
// is saturated or it is quiescing for a weight swap — the least-loaded
// other shard, so one hot hash bucket cannot stall while other replicas sit
// idle. Detour candidates must carry the same weight generation as home and
// not be quiescing themselves: during a reload roll shards briefly disagree
// on weights, and rerouting across generations would let one canonical key
// bounce between old- and new-weight answers. When no candidate qualifies
// (e.g. the last un-swapped shard quiescing), home keeps its traffic — a
// quiescing shard still answers, just without new dispatcher load.
func (se *ShardedEngine) pick(home *Engine) *Engine {
	if len(se.shards) == 1 || (!home.saturated() && !home.quiescing.Load()) {
		return home
	}
	gen := home.weightGen.Load()
	best := home
	bestQueued := -1
	for _, sh := range se.shards {
		if sh == home || sh.quiescing.Load() || sh.weightGen.Load() != gen {
			continue
		}
		if q := sh.queued(); bestQueued < 0 || q < bestQueued {
			best, bestQueued = sh, q
		}
	}
	return best
}

// PredictSQL is PredictSQLGenCtx with no deadline and without the
// generation tag. The single-engine guarantee carries over: identical SQL
// yields byte-identical predictions regardless of replica count or which
// shard answered.
func (se *ShardedEngine) PredictSQL(sql string) (Prediction, error) {
	p, _, err := se.PredictSQLGenCtx(context.Background(), sql)
	return p, err
}

// ExplainSQL resolves a query to its logical plan through the home shard's
// template front end: a cached template skips lex and parse, a miss deposits
// the skeleton so explain traffic and prediction traffic warm the same
// per-shard segments. No saturation detour — planning never touches a
// batcher queue, so there is nothing to route around.
func (se *ShardedEngine) ExplainSQL(sql string) (*logicalplan.Node, error) {
	key := CanonicalSQL(sql)
	return se.shards[se.shardOf(key)].PlanOnly(sql)
}

// Snapshot returns the engine's full telemetry state in one pass: every
// shard's counter group, the roll counters and the live model identity.
// Presenters that show aggregates next to the per-shard breakdown must
// derive both from one Snapshot (see telemetry.EngineSnapshot.Totals)
// rather than snapshotting twice, or the two views drift under live
// traffic.
func (se *ShardedEngine) Snapshot() telemetry.EngineSnapshot {
	name, params := se.ModelInfo()
	es := telemetry.EngineSnapshot{
		Generation:      se.generation.Load(),
		Reloads:         se.reloads.Load(),
		RejectedBundles: se.rejected.Load(),
		ModelName:       name,
		Params:          params,
		Kernel:          se.Kernel(),
		Shards:          make([]telemetry.ShardSnapshot, len(se.shards)),
	}
	for i, sh := range se.shards {
		snap := sh.Snapshot()
		snap.Shard = i
		es.Shards[i] = snap
	}
	return es
}
