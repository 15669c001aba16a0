package serve

import (
	"context"
	"runtime"

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

// Replicas builds n serving replicas of pred. For n > 1 every replica —
// including shard 0 — wraps a fresh model clone sharing pred's pipeline and
// normaliser, so the caller's model is never mutated and stays usable on
// the serialised path after the engine closes. Each replica gets its own
// Predictor (and thus its own serialisation mutex), so N batcher goroutines
// can run their models truly concurrently. Each flush fans its traces out
// through tensor.Each, whose helpers come from one process-wide budget of
// GOMAXPROCS-1: N concurrent flushes run on their own goroutines plus at most
// that many helpers between them, while a single busy shard on an otherwise
// idle engine still gets every core. When n <= 1 only pred itself is
// returned. Like NewShardedEngine, Replicas panics on a model that does not
// meet the serving contract.
func Replicas(pred *Predictor, n int) []*Predictor {
	if n <= 1 {
		return []*Predictor{pred}
	}
	m := pred.mustServe()
	preds := make([]*Predictor, n)
	for i := range preds {
		preds[i] = &Predictor{Model: m.Clone(), Pipe: pred.Pipe, Norm: pred.Norm}
	}
	return preds
}

// ShardedEngine fans inference out across N independent shards. Each shard
// is a full Engine — its own batcher goroutine, its own model replica and
// its own segment of each cache — so shards share no model and no batcher.
// What they share is the template cache: a template lives in the segment of
// the shard its template key hashes to, and every shard reads it there (see
// lookupTemplate). A dispatcher hashes canonical SQL to a home shard, which
// owns the key's prediction-cache entry and normally computes its misses,
// preserving the per-shard single-flight dedup and cache locality of the
// single-engine design; when the home shard's queue is saturated (or, with
// MaxEstWait set, its estimated wait is past the bound), the miss is computed
// on the peer with the shortest estimated wait instead (see admit). Rerouting is safe
// because replicas carry identical weights: every shard returns
// byte-identical predictions for identical SQL, and the answer is still
// cached at home, so a detour leaves no duplicate entry behind.
//
// A ShardedEngine is one generation of one serving identity, and immutable:
// replicas, pipeline, normaliser, generation and cache segments are fixed by
// newShardedEngineAt, and no field is written afterwards (Close flips each
// shard's closed flag, nothing else). "Which generation answered" is
// therefore a property of which engine value a request was handed — a
// response can no more mix two generations than one pointer can be two
// pointers. Rolling new weights in means building the next engine and
// swapping the identity's live pointer; that protocol, the generation
// sequence and the roll counters belong to ModelEntry.
type ShardedEngine struct {
	shards []*Engine
	gen    int64

	// maxEstWaitMicros is the bounded-wait admission target in microseconds
	// (Config.MaxEstWait). <= 0 means an infinite bound: admit never sheds.
	maxEstWaitMicros float64

	// name and params identify the served model on operator surfaces.
	name   string
	params int
}

// NewShardedEngine starts one batcher per predictor (typically built with
// Replicas), which the engine owns from here on. cfg.CacheSize,
// cfg.SubtreeCacheSize and cfg.TemplateCacheSize are total cache budgets,
// split evenly across shards; cfg.Replicas is ignored — len(preds) decides
// the shard count. It panics on zero predictors, or on one whose model does
// not meet the serving contract (servedModel).
// Callers must Close the engine to release the batcher goroutines.
func NewShardedEngine(preds []*Predictor, cfg Config) *ShardedEngine {
	return newShardedEngineAt(preds, cfg, initialGeneration, nil)
}

// initialGeneration is the generation an identity's first engine serves: the
// bundle (or in-process training run) it was built from is generation 1, and
// each roll — weight-only, full-bundle or promotion — builds its successor
// one higher, so "generation g" always names exactly one (pipeline,
// normaliser, weights) triple.
const initialGeneration = 1

// newShardedEngineAt is NewShardedEngine with an explicit generation and,
// when the engine replaces a predecessor outright, that predecessor: shard i
// then counts into replaces' shard i's group (see Engine.tel). nil, or a
// shard replaces does not have, starts a fresh group.
func newShardedEngineAt(preds []*Predictor, cfg Config, gen int64, replaces *ShardedEngine) *ShardedEngine {
	if len(preds) == 0 {
		panic("serve: NewShardedEngine needs at least one predictor")
	}
	served := make([]servedModel, len(preds))
	for i, p := range preds {
		served[i] = p.mustServe()
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
		gen:              gen,
		maxEstWaitMicros: float64(cfg.MaxEstWait.Microseconds()),
		name:             preds[0].Model.Name(),
		params:           preds[0].Model.ParamCount(),
	}
	for i, p := range preds {
		var tel *telemetry.ShardGroup
		if replaces != nil && i < len(replaces.shards) {
			tel = replaces.shards[i].tel
		}
		se.shards[i] = newEngineAt(p, served[i], per, gen, tel)
	}
	// Every shard reads templates through its siblings' segments (see
	// lookupTemplate). Batchers never read shards, and handlers reach the
	// engine only after this returns.
	for _, sh := range se.shards {
		sh.shards = se.shards
	}
	return se
}

// Generation reports the generation of the identity this engine serves (1 =
// the one its ModelEntry, or a bare NewShardedEngine, started with).
func (se *ShardedEngine) Generation() int64 { return se.gen }

// Shards reports the live shard count (the effective replica count).
func (se *ShardedEngine) Shards() int { return len(se.shards) }

// Close flushes and stops every shard's batcher. Like Engine.Close it is
// idempotent, and queries arriving afterwards fall back to each shard's
// serialised path — which is how a request that read the identity's live
// pointer just before a roll still gets its answer, under this engine's
// generation, after the roll retired it.
func (se *ShardedEngine) Close() {
	for _, sh := range se.shards {
		sh.Close()
	}
}

// shardOf returns the home shard index for a canonical key.
func (se *ShardedEngine) shardOf(key string) int {
	return int(fnv32a(key) % uint32(len(se.shards)))
}

// fnv32a is 32-bit FNV-1a over s: the one hash behind the home shard, the
// quota stripe and the canary bucket. It runs on every request — cache hits
// included — and hash/fnv would cost two allocations per call.
func fnv32a(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// PredictSQL is PredictSQLGenCtx with no deadline and without the
// generation tag. The single-engine guarantee carries over: identical SQL
// yields byte-identical predictions regardless of replica count or which
// shard answered.
func (se *ShardedEngine) PredictSQL(sql string) (Prediction, error) {
	p, _, err := se.PredictSQLGenCtx(context.Background(), sql)
	return p, err
}

// Snapshot returns the engine's full telemetry state in one pass: every
// shard's counter group plus the generation and model identity. The roll
// counters (Reloads, RejectedBundles) belong to the serving identity, not to
// any one engine; ModelEntry.Snapshot fills them in. Presenters that show aggregates next to the per-shard breakdown must
// derive both from one Snapshot (see telemetry.EngineSnapshot.Totals)
// rather than snapshotting twice, or the two views drift under live
// traffic.
func (se *ShardedEngine) Snapshot() telemetry.EngineSnapshot {
	es := telemetry.EngineSnapshot{
		Generation: se.gen,
		ModelName:  se.name,
		Params:     se.params,
		Shards:     make([]telemetry.ShardSnapshot, len(se.shards)),
	}
	for i, sh := range se.shards {
		snap := sh.Snapshot()
		snap.Shard = i
		es.Shards[i] = snap
	}
	return es
}
