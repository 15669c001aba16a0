package serve

import (
	"errors"
	"io"

	"prestroid/internal/models"
	"prestroid/internal/persist"
	"prestroid/internal/telemetry"
	"prestroid/internal/workload"
)

// ErrReloadInProgress is returned when a roll of any kind — reload, stage,
// promote, abort — is requested while another one holds the identity's
// control plane.
var ErrReloadInProgress = errors.New("serve: a reload is already in progress")

// stageFunc decodes and validates a retrain artefact into the predictor the
// next engine serves, reading whatever it needs off the live one (never
// writing: the live engine keeps serving, untouched, whatever stage returns).
type stageFunc func(live *ShardedEngine) (*Predictor, error)

// stageWeights stages a weight-only bundle: the next engine keeps the live
// pipeline and normaliser and takes the bundle's weights. The bundle is
// decoded and shape-validated exactly once, so the feature dimension must be
// unchanged.
func stageWeights(r io.Reader) stageFunc {
	return func(live *ShardedEngine) (*Predictor, error) {
		bundle, err := persist.DecodeBundle(r)
		if err != nil {
			return nil, err
		}
		return assemble(live.model, live.pred.Pipe, live.pred.Norm, bundle)
	}
}

// stageFull stages a complete retrained identity — feature pipeline, label
// normaliser and weights — so a retrain that grew the table universe or
// shifted the label range rolls out like any other, and a triple whose
// weights were trained against a different feature dimension fails here.
func stageFull(fb *persist.FullBundle) stageFunc {
	return func(live *ShardedEngine) (*Predictor, error) {
		return assemble(live.model, fb.Pipeline(), fb.Norm(), fb.Weights())
	}
}

// assemble builds the one model of the identity (pipe, norm, weights),
// using base only as the architecture: a fresh model of base's family is
// rebuilt off pipe, which decides its feature dimension, and the weights are
// applied to it — Apply validates every tensor before writing any, then
// writes every parameter and every state tensor. base is only read, so live
// model calls, however long, do not hold the roll up.
func assemble(base servedModel, pipe *models.Pipeline, norm workload.Normalizer, weights *persist.Bundle) (*Predictor, error) {
	m, err := base.RebuildWithPipeline(pipe)
	if err != nil {
		return nil, err
	}
	next := &Predictor{Model: m, Pipe: pipe, Norm: norm}
	if err := weights.Apply(next.mustServe()); err != nil {
		return nil, err
	}
	return next, nil
}

// The roll: every way of putting a new model behind an identity's traffic —
// weight-only reload, full-bundle reload, shadow/canary stage then promote —
// is the same four steps under rollMu. beginRoll claims the control plane,
// successor stages the artefact off to the side and builds a complete engine
// one generation up, install swaps the live pointer and drops the engine it
// replaced. Nothing is ever changed in place, so there is no instant at
// which an engine serves anything but the identity it was built with:
//
//   - a request that read the live pointer before the swap finishes on the
//     old engine and reports the old generation: an engine answers the same
//     way after it is retired as before;
//   - a request that reads it after the swap gets the new engine, whose
//     caches were born empty, and reports the new generation;
//   - so once a client has seen generation g for a key, every request it
//     starts afterwards sees >= g (the old pointer is unreachable), while
//     responses of requests already in flight may still complete out of
//     order. Abort is the one deliberate exception (see Abort).

// beginRoll claims the identity's control plane for a roll that needs the
// roll slot empty. The try-lock comes first: a roll already in flight must
// answer ErrReloadInProgress — a conflict to report, never a queue to wait
// in — whatever the artefact looks like. On success the caller holds rollMu.
func (en *ModelEntry) beginRoll() (*ShardedEngine, error) {
	if !en.rollMu.TryLock() {
		return nil, ErrReloadInProgress
	}
	live, st := en.roll()
	if st != nil {
		en.rollMu.Unlock()
		return nil, ErrRollPending
	}
	return live, nil
}

// successor stages an artefact and builds the engine that follows live:
// same Config, generation live+1, one fresh model and empty caches. tel is
// live's counter group when the successor will take its place at once, nil
// when it will serve beside live on a group of its own. A
// staging failure is a rejection — counted on the surface operators alert on
// when a retraining job starts emitting bad bundles — and by construction has
// zero serving impact. Callers hold rollMu.
func (en *ModelEntry) successor(live *ShardedEngine, stage stageFunc, tel *telemetry.ShardGroup) (*ShardedEngine, error) {
	pred, err := stage(live)
	if err != nil {
		en.rejected.Inc()
		return nil, err
	}
	return newShardedEngineAt(pred, en.cfg, live.gen+1, tel), nil
}

// install makes next the identity's live engine, clears the roll slot and
// counts the completed roll. The engine next replaces needs no stopping:
// nothing runs behind an engine, so a finished roll leaves no goroutine
// behind, and stragglers still holding it are answered. Callers hold rollMu.
// Returns the new live generation.
func (en *ModelEntry) install(next *ShardedEngine) int64 {
	en.mu.Lock()
	en.live, en.staged = next, nil
	en.mu.Unlock()
	en.reloads.Inc()
	return next.gen
}

// reload is the direct roll: stage, build the successor on the live engine's
// own counter group (it replaces live outright, so /v1/stats, /metrics and
// the admission EWMA carry on where they were) and install it.
func (en *ModelEntry) reload(stage stageFunc) (int64, error) {
	live, err := en.beginRoll()
	if err != nil {
		return 0, err
	}
	defer en.rollMu.Unlock()
	next, err := en.successor(live, stage, live.tel)
	if err != nil {
		return 0, err
	}
	return en.install(next), nil
}

// ReloadWeights rolls a retrained weight-only bundle in without stopping the
// service, keeping the live pipeline and normaliser. Refused while a shadow
// or canary roll is staged: the staged engine already holds the next
// generation. On success it returns the new generation.
func (en *ModelEntry) ReloadWeights(r io.Reader) (int64, error) {
	return en.reload(stageWeights(r))
}

// ReloadBundle rolls a decoded full bundle — pipeline, normaliser and
// weights — in without stopping the service, under the same staged-roll
// exclusion as ReloadWeights. The caller decodes (the HTTP layer reads the
// bundle's embedded model name to pick the identity first).
func (en *ModelEntry) ReloadBundle(fb *persist.FullBundle) (int64, error) {
	return en.reload(stageFull(fb))
}

// rejectBundle accounts for a full bundle that failed to decode, as the
// reload it would have been: conflict outranks rejection — a garbage artefact
// thrown at a busy identity answers ErrReloadInProgress/ErrRollPending, not
// the decode error — and past the lock the refusal is counted like any other
// staging failure.
func (en *ModelEntry) rejectBundle(decodeErr error) error {
	_, err := en.reload(func(*ShardedEngine) (*Predictor, error) { return nil, decodeErr })
	return err
}
