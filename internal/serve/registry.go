package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"prestroid/internal/api"
	"prestroid/internal/logicalplan"
	"prestroid/internal/persist"
	"prestroid/internal/telemetry"
)

// ErrRollPending is returned when an operation needs the identity's roll
// slot but a shadow or canary roll is already staged: a second stage, or a
// direct reload, which would take the generation the staged engine holds.
var ErrRollPending = errors.New("serve: a shadow/canary roll is already staged")

// ErrNoStagedRoll is returned by promote/abort when the identity has no
// shadow or canary roll pending.
var ErrNoStagedRoll = errors.New("serve: no staged roll to act on")

// Registry is the daemon's model table: one entry per named serving
// identity, each owning its own live engine, generation sequence, roll slot
// and telemetry. The first identity registered is the default — the one
// model-less requests route to, byte-identical to a single-model daemon.
type Registry struct {
	cfg Config

	mu      sync.RWMutex
	entries map[string]*ModelEntry
	order   []*ModelEntry // registration order; order[0] is the default
}

// NewRegistry builds an empty registry; every engine it creates — live and
// staged — shares cfg.
func NewRegistry(cfg Config) *Registry {
	return &Registry{cfg: cfg, entries: make(map[string]*ModelEntry)}
}

// Add registers a serving identity under name and starts its engine off
// pred (replicated per cfg.Replicas). The first identity added becomes the
// default.
func (r *Registry) Add(name string, pred *Predictor) (*ModelEntry, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.entries[name]; ok {
		return nil, fmt.Errorf("serve: model %q already registered", name)
	}
	en := &ModelEntry{
		name: name,
		cfg:  r.cfg,
		live: NewShardedEngine(Replicas(pred, r.cfg.Replicas), r.cfg),
	}
	r.entries[name] = en
	r.order = append(r.order, en)
	return en, nil
}

// Lookup resolves a request's model field: empty selects the default
// identity, anything else must be registered. nil means unknown.
func (r *Registry) Lookup(name string) *ModelEntry {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if name == "" {
		if len(r.order) == 0 {
			return nil
		}
		return r.order[0]
	}
	return r.entries[name]
}

// Default returns the default identity (the first registered).
func (r *Registry) Default() *ModelEntry { return r.Lookup("") }

// Entries returns the identities in registration order, default first.
func (r *Registry) Entries() []*ModelEntry {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*ModelEntry, len(r.order))
	copy(out, r.order)
	return out
}

// Snapshot reads every identity's telemetry in registration order — the
// Models section of the daemon-wide telemetry.Snapshot.
func (r *Registry) Snapshot() []telemetry.ModelSnapshot {
	entries := r.Entries()
	out := make([]telemetry.ModelSnapshot, len(entries))
	for i, en := range entries {
		out[i] = en.Snapshot()
	}
	return out
}

// Close shuts down every identity's live engine and any staged roll.
func (r *Registry) Close() {
	for _, en := range r.Entries() {
		en.mu.Lock()
		live, st := en.live, en.staged
		en.staged = nil
		en.mu.Unlock()
		if st != nil {
			st.eng.Close()
		}
		live.Close()
	}
}

// ModelEntry is one named serving identity, and the only mutable thing in
// the serve layer's model path: engines are immutable, so everything that
// changes when a model is redeployed changes here. It owns
//
//   - the live pointer (and the optional staged roll), the one word a roll
//     writes;
//   - the generation sequence: each engine carries its generation as a
//     constant, and every successor is built at live's + 1;
//   - the control plane (rollMu) and the roll protocol (see reload.go);
//   - the counters that outlive any one engine — reloads, rejected bundles,
//     promotions, aborts — and, by lending them from each engine to the one
//     that replaces it, the per-shard telemetry groups.
type ModelEntry struct {
	name string
	cfg  Config

	// mu guards the live/staged pointers — the predict hot path takes it as
	// a reader on every request, so writers hold it only for pointer swaps.
	mu     sync.RWMutex
	live   *ShardedEngine
	staged *stagedRoll

	// rollMu serialises the identity's control plane (reload, stage,
	// promote, abort). It is only ever try-locked: a lost race is a conflict
	// to report, never a queue to wait in.
	rollMu sync.Mutex

	// reloads counts completed rolls of any kind (a promotion is one);
	// rejected counts artefacts refused past the control-plane lock.
	reloads    telemetry.Counter
	rejected   telemetry.Counter
	promotions telemetry.Counter
	aborts     telemetry.Counter
}

// stagedRoll is a pending shadow or canary deployment: a fully-built engine
// serving the staged bundle at the generation it will carry on promotion.
type stagedRoll struct {
	mode    string // api.StateShadow or api.StateCanary
	percent int    // canary keyspace share, 1..99
	eng     *ShardedEngine

	// sem bounds shadow-mirror concurrency; tel accumulates the mirror's
	// delta evidence. Both nil unless mode is shadow.
	sem chan struct{}
	tel *telemetry.ShadowGroup
}

// Name reports the identity's registered name.
func (en *ModelEntry) Name() string { return en.name }

// Live returns the identity's current live engine. The pointer is stable
// only until the next reload or promotion — callers that hold it across one
// keep talking to the retired engine (still answering, at its old
// generation) and must re-read.
func (en *ModelEntry) Live() *ShardedEngine {
	en.mu.RLock()
	defer en.mu.RUnlock()
	return en.live
}

// roll reads the routing state once: the live engine and whatever roll is
// staged against it.
func (en *ModelEntry) roll() (*ShardedEngine, *stagedRoll) {
	en.mu.RLock()
	defer en.mu.RUnlock()
	return en.live, en.staged
}

// PredictSQLGenCtx routes one query through the identity: straight to the
// live engine when no roll is staged (the byte-identical single-model path);
// during a canary, to the staged engine for the deterministic keyspace slice
// canaryBucket selects; during a shadow, to the live engine with the result
// mirrored to the staged bundle off the hot path. The query is canonicalised
// once, here, for both the canary split and the engine's dispatch.
func (en *ModelEntry) PredictSQLGenCtx(ctx context.Context, sql string) (Prediction, int64, error) {
	key := CanonicalSQL(sql)
	eng, st := en.roll()
	if st != nil && st.mode == api.StateShadow {
		start := time.Now()
		p, g, err := eng.predictKey(ctx, sql, key)
		if err == nil {
			st.mirror(sql, p, time.Since(start))
		}
		return p, g, err
	}
	if st != nil && st.mode == api.StateCanary && canaryBucket(key) < st.percent {
		eng = st.eng
	}
	return eng.predictKey(ctx, sql, key)
}

// ExplainSQL resolves a query to its logical plan through the live engine's
// template front end: a cached template skips lex and parse, a miss deposits
// the skeleton. Plans are weight-independent, so a staged canary or shadow
// never changes the answer — explain always warms the live engine's template
// segments, the ones the bulk of prediction traffic hits. Any shard will do:
// a template lives in the segment its key hashes to whichever shard looks,
// and planning touches neither a batcher queue nor a model.
func (en *ModelEntry) ExplainSQL(sql string) (*logicalplan.Node, error) {
	live, _ := en.roll()
	return live.shards[0].PlanOnly(sql)
}

// canaryBucket maps a canonical key to a stable bucket in [0,100). The FNV
// hash is remixed through an avalanche finalizer so the split is independent
// of shardOf's modulo — without it, bucket and home shard would correlate
// and a canary percentage would drain whole shards instead of sampling the
// keyspace evenly.
func canaryBucket(key string) int {
	h := fnv32a(key)
	h ^= h >> 16
	h *= 0x7feb352d
	h ^= h >> 15
	h *= 0x846ca68b
	h ^= h >> 16
	return int(h % 100)
}

// mirror re-predicts one live request on the staged bundle, off the hot
// path: a bounded semaphore is tried without blocking — the live response
// has already been computed, and a slow staged bundle must shed mirror work,
// not queue it — and the prediction runs on its own goroutine. Deltas are
// accumulated in the roll's ShadowGroup.
func (st *stagedRoll) mirror(sql string, live Prediction, liveLat time.Duration) {
	select {
	case st.sem <- struct{}{}:
	default:
		st.tel.Dropped.Inc()
		return
	}
	go func() {
		defer func() { <-st.sem }()
		start := time.Now()
		p, err := st.eng.PredictSQL(sql)
		if err != nil {
			st.tel.Errors.Inc()
			return
		}
		st.tel.Mirrored.Inc()
		st.tel.ShadowLatency.Observe(time.Since(start).Microseconds())
		st.tel.LiveLatency.Observe(liveLat.Microseconds())
		d := math.Abs(p.CPUMinutes - live.CPUMinutes)
		st.tel.DeltaMax.Observe(d)
		st.tel.Delta.Observe(int64(d * 1e6))
	}()
}

// Stage validates a decoded full bundle and brings it up as a staged engine
// next to live — serving no traffic yet beyond what mode routes to it:
// nothing for shadow (mirrors only), a deterministic percent of the keyspace
// for canary. It is the first half of a roll: the successor is built exactly
// as a reload builds it (on its own counter groups, since it serves beside
// live rather than instead of it) and parked in the roll slot for Promote or
// Abort. Returns the staged generation, the one the identity will report once
// promoted.
func (en *ModelEntry) Stage(fb *persist.FullBundle, mode string, percent int) (int64, error) {
	live, err := en.beginRoll()
	if err != nil {
		return 0, err
	}
	defer en.rollMu.Unlock()
	eng, err := en.successor(live, stageFull(fb), nil)
	if err != nil {
		return 0, err
	}
	roll := &stagedRoll{mode: mode, percent: percent, eng: eng}
	if mode == api.StateShadow {
		roll.sem = make(chan struct{}, 2*eng.Shards())
		roll.tel = telemetry.NewShadowGroup()
	}
	en.mu.Lock()
	en.staged = roll
	en.mu.Unlock()
	return eng.gen, nil
}

// Promote is the second half of a staged roll: the staged engine is
// installed as live and the old one retired. Returns the new live
// generation, always strictly above the one it replaces.
func (en *ModelEntry) Promote() (int64, error) {
	if !en.rollMu.TryLock() {
		return 0, ErrReloadInProgress
	}
	defer en.rollMu.Unlock()
	_, st := en.roll()
	if st == nil {
		return 0, ErrNoStagedRoll
	}
	en.promotions.Inc()
	return en.install(st.eng), nil
}

// Abort discards the staged roll; the live engine never stops serving.
// Canary keys that were routed to the staged bundle fall back to live's
// generation — the one place the per-key monotone-generation guarantee is
// deliberately traded away, which is what makes abort safe to call under
// failure.
func (en *ModelEntry) Abort() error {
	if !en.rollMu.TryLock() {
		return ErrReloadInProgress
	}
	defer en.rollMu.Unlock()
	_, st := en.roll()
	if st == nil {
		return ErrNoStagedRoll
	}
	en.mu.Lock()
	en.staged = nil
	en.mu.Unlock()
	en.aborts.Inc()
	st.eng.Close()
	return nil
}

// State reports the identity's roll state (live/shadow/canary) and the
// canary percent (0 unless canary).
func (en *ModelEntry) State() (string, int) {
	_, st := en.roll()
	if st == nil {
		return api.StateLive, 0
	}
	return st.mode, st.percent
}

// Snapshot reads the identity's full telemetry: roll state and counters, the
// live engine, and — while a roll is staged — the staged engine plus any
// shadow deltas.
func (en *ModelEntry) Snapshot() telemetry.ModelSnapshot {
	live, st := en.roll()
	ms := telemetry.ModelSnapshot{
		Name:       en.name,
		State:      api.StateLive,
		Promotions: en.promotions.Load(),
		Aborts:     en.aborts.Load(),
		Engine:     live.Snapshot(),
	}
	ms.Engine.Reloads = en.reloads.Load()
	ms.Engine.RejectedBundles = en.rejected.Load()
	if st != nil {
		ms.State = st.mode
		ms.Percent = st.percent
		es := st.eng.Snapshot()
		ms.Staged = &es
		if st.tel != nil {
			sh := st.tel.Snapshot()
			ms.Shadow = &sh
		}
	}
	return ms
}
