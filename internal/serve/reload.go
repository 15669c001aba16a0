package serve

import (
	"errors"
	"fmt"
	"io"
	"time"

	"prestroid/internal/models"
	"prestroid/internal/persist"
	"prestroid/internal/workload"
)

// initialGeneration is the generation every shard starts at: the bundle (or
// in-process training run) the engine was built from is generation 1, and
// each completed reload — weight-only or full-bundle — advances it by one.
// The counter covers the full predictor identity (pipeline, normaliser,
// weights): a full-bundle roll that replaces all three and a weight-only
// roll that replaces one share the same monotone sequence, so "generation g"
// always names exactly one (pipeline, normaliser, weights) triple.
const initialGeneration = 1

// drainTimeout bounds how long a quiescing shard waits for its queue to
// empty before the swap proceeds anyway. Correctness does not depend on the
// drain — every prediction is tagged with the generation of the weights
// that actually ran, and cache segments reject cross-generation entries —
// it only keeps the swap from adding latency to jobs already queued behind
// it. A shard that cannot drain in this window is saturated enough that
// waiting longer would stall the roll indefinitely.
const drainTimeout = 2 * time.Second

// ErrReloadInProgress is returned when a reload is requested while another
// bundle — weight-only or full — is still rolling across the shards.
var ErrReloadInProgress = errors.New("serve: a reload is already in progress")

// beginQuiesce stops the dispatcher from routing new work to this shard;
// requests already holding a reference still complete, tagged with whatever
// generation their model call actually ran under.
func (e *Engine) beginQuiesce() { e.quiescing.Store(true) }

// endQuiesce readmits the shard to dispatch.
func (e *Engine) endQuiesce() { e.quiescing.Store(false) }

// drainQueue waits until the shard's job queue is empty (the batcher keeps
// flushing throughout) or the timeout elapses, reporting whether the queue
// fully drained.
func (e *Engine) drainQueue(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for e.queued() > 0 {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(100 * time.Microsecond)
	}
	return true
}

// swapReplica runs the quiesce/drain/swap/resume protocol on one shard:
// divert new dispatcher traffic, let the batcher drain what is already
// queued between batches, then — under the predictor lock, so no model call
// can overlap — replace the shard's whole predictor identity (model replica,
// feature pipeline, label normaliser), advance its weight generation and
// invalidate its cache segments in one critical section. Any request racing
// the swap either finished its model call before the lock was taken (old
// generation; its late cache deposit is rejected by the invalidated segment)
// or runs after (new generation, admitted into the fresh segment). No
// response can mix the two.
//
// This is the only swap primitive: a weight-only reload hands in the live
// pipeline and normaliser unchanged. The shard's model pointer is therefore
// not stable for the process lifetime, which is why every consumer of e.pred
// resolves the fields under pred.mu (see flush, serialPredict, predictTrace,
// ModelInfo). The replica handed in must be exclusively the shard's: it is
// mutated by every model call from here on.
func (e *Engine) swapReplica(m models.Model, pipe *models.Pipeline, norm workload.Normalizer, gen int64) {
	e.beginQuiesce()
	defer e.endQuiesce()
	e.drainQueue(drainTimeout)
	e.pred.mu.Lock()
	defer e.pred.mu.Unlock()
	e.pred.Model = m
	e.pred.Pipe = pipe
	e.pred.Norm = norm
	e.weightGen.Store(gen)
	e.cache.Invalidate(gen)
	// Cached template featurizations were built by the outgoing identity.
	// Even when the pipeline is kept, the generation contract ("encGen == gen
	// ⟹ the entry's identity is the serving identity") is what lets flush
	// adopt cached trees without inspecting pipelines, so the segment rolls
	// with everything else.
	e.tmplCache.Invalidate(gen)
	// The shard's sub-tree cache segment outlives the replica: flush it and
	// hand it to the incoming model (clones never inherit a conv cache —
	// placement belongs to the serving layer, here).
	e.convCache.Invalidate(gen)
	if cs, ok := m.(convCacheSetter); ok && e.convCache.genLRU != nil {
		cs.SetConvCache(e.convCache)
	}
	// The kernel mode likewise outlives the replica: re-quantise the incoming
	// model (packing its int8 tables under this same critical section) and
	// point its error reporting at this shard's gauge.
	if e.quantized {
		if q, ok := m.(models.Quantizer); ok {
			e.applyQuantization(q)
		}
	}
}

// reload is the one roll every entry point funnels into. The lock comes
// first: a roll already in flight must answer ErrReloadInProgress, not
// whatever the decoder thinks of the stream. stage then decodes and validates
// the artefact into a staging predictor without touching a shard — a bad
// bundle fails there with zero serving impact — and rollLocked swaps it into
// every shard. Every failure past the lock happens before any replica is
// touched, and is counted on the rejected-bundle surface operators alert on;
// a lost race for the lock is a conflict, not a rejection.
func (se *ShardedEngine) reload(stage func() (*Predictor, error)) (int64, error) {
	if !se.reloadMu.TryLock() {
		return 0, ErrReloadInProgress
	}
	defer se.reloadMu.Unlock()
	staged, err := stage()
	if err != nil {
		se.rejected.Inc()
		return 0, err
	}
	gen, err := se.rollLocked(staged)
	if err != nil {
		se.rejected.Inc()
	}
	return gen, err
}

// Reload installs a retrained weight bundle into every live shard without
// stopping the service: a full-identity roll that keeps the live pipeline
// and normaliser. The bundle is decoded and shape-validated exactly once,
// into a staging clone of the live model (so the feature dimension must be
// unchanged), and the staging replica then rolls across the shards one at a
// time, so at every instant all but at most one shard are accepting
// dispatcher traffic, and the dispatcher's generation-matched detours keep
// every canonical key on a single generation throughout the roll. On success
// it returns the new generation, now reported by every shard.
func (se *ShardedEngine) Reload(r io.Reader) (int64, error) {
	return se.reload(func() (*Predictor, error) {
		bundle, err := persist.DecodeBundle(r)
		if err != nil {
			return nil, err
		}
		// Shard 0's identity is only stable under the roll lock, held here.
		live := se.shards[0].pred
		cl, ok := live.Model.(models.Cloner)
		if !ok {
			return nil, fmt.Errorf("serve: %T does not support cloning; cannot stage a reload", live.Model)
		}
		staging := cl.Clone()
		if err := applyWeights(bundle, staging); err != nil {
			return nil, err
		}
		return &Predictor{Model: staging, Pipe: live.Pipe, Norm: live.Norm}, nil
	})
}

// ReloadBundle installs a complete retrained predictor identity — feature
// pipeline, label normaliser and weights — into every live shard without
// stopping the service. Where Reload stages a clone of the live model,
// ReloadBundle stages a fresh model built off the bundle's own pipeline, so
// a retrain that grew the table universe or shifted the label range rolls
// out with the exact guarantees of a weight roll (the staging model's shape
// validation is the feature-dim check). On success it returns the new
// generation of the full identity.
func (se *ShardedEngine) ReloadBundle(r io.Reader) (int64, error) {
	return se.reload(func() (*Predictor, error) {
		fb, err := persist.DecodeFullBundle(r)
		if err != nil {
			return nil, err
		}
		return se.stageBundleLocked(fb)
	})
}

// ReloadBundleDecoded is ReloadBundle for a bundle the caller already
// decoded — the multi-model registry decodes once to read the bundle's
// embedded model name before resolving which identity the roll targets.
func (se *ShardedEngine) ReloadBundleDecoded(fb *persist.FullBundle) (int64, error) {
	return se.reload(func() (*Predictor, error) { return se.stageBundleLocked(fb) })
}

// applyWeights writes a decoded weight bundle into a staging model. Apply
// validates every tensor against the staging model's architecture before
// writing anything.
func applyWeights(b *persist.Bundle, staging models.Model) error {
	ws, ok := staging.(persist.WeightStore)
	if !ok {
		return fmt.Errorf("serve: %T does not expose weights; cannot stage a reload", staging)
	}
	return b.Apply(ws)
}

// stageBundleLocked builds and shape-validates a fresh predictor off a
// decoded full bundle, using shard 0's live model as the architecture base.
// The weights are applied to a model built off the bundle's own pipeline, so
// a triple whose weights were trained against a different feature dimension
// fails here. Callers must hold reloadMu — the base model pointer is only
// stable under the roll lock.
func (se *ShardedEngine) stageBundleLocked(fb *persist.FullBundle) (*Predictor, error) {
	base := se.shards[0].pred.Model
	rb, ok := base.(models.PipelineRebuilder)
	if !ok {
		return nil, fmt.Errorf("serve: %T cannot rebuild off a new pipeline; use a weight-only reload", base)
	}
	staging, err := rb.RebuildWithPipeline(fb.Pipeline())
	if err != nil {
		return nil, err
	}
	if err := applyWeights(fb.Weights(), staging); err != nil {
		return nil, err
	}
	return &Predictor{Model: staging, Pipe: fb.Pipeline(), Norm: fb.Norm()}, nil
}

// stagePredictor builds a validated predictor off a decoded full bundle
// without touching this engine's shards — the seed replica for the staged
// engine of a shadow or canary roll. A validation failure counts on this
// engine's rejected-bundle surface, exactly like an in-place reload refused
// before any replica was touched.
func (se *ShardedEngine) stagePredictor(fb *persist.FullBundle) (*Predictor, error) {
	if !se.reloadMu.TryLock() {
		return nil, ErrReloadInProgress
	}
	defer se.reloadMu.Unlock()
	staged, err := se.stageBundleLocked(fb)
	if err != nil {
		se.rejected.Inc()
	}
	return staged, err
}

// rollLocked swaps a staged identity into every shard. Every shard's replica
// is built up front so the roll itself cannot fail mid-way: shard 0 takes
// the staging model, the rest take clones (bit-identical weights, shared
// pipeline and forward-semaphore).
func (se *ShardedEngine) rollLocked(staged *Predictor) (int64, error) {
	repls := make([]models.Model, len(se.shards))
	repls[0] = staged.Model
	if len(se.shards) > 1 {
		cl, ok := staged.Model.(models.Cloner)
		if !ok {
			return 0, fmt.Errorf("serve: %T does not support cloning; cannot build %d replicas", staged.Model, len(se.shards))
		}
		for i := 1; i < len(se.shards); i++ {
			repls[i] = cl.Clone()
		}
	}
	// Snapshot the new identity before the staging model is installed
	// anywhere (after the roll it belongs to shard 0 and may only be
	// touched under that shard's lock).
	ident := &modelIdent{name: staged.Model.Name(), params: staged.Model.ParamCount()}
	gen := se.generation.Load() + 1
	for i, sh := range se.shards {
		sh.swapReplica(repls[i], staged.Pipe, staged.Norm, gen)
	}
	se.generation.Store(gen)
	se.ident.Store(ident)
	se.reloads.Inc()
	return gen, nil
}

// ModelInfo reports the live serving identity for operator surfaces like
// /v1/stats: after a full-bundle reload the replicas — and with them the
// parameter count, which follows the pipeline's feature dimension — are
// different objects than the ones the engine was built with. It reads a
// lock-free snapshot republished at roll time, so stats polls never queue
// behind an in-flight model batch on the predictor lock.
func (se *ShardedEngine) ModelInfo() (name string, params int) {
	id := se.ident.Load()
	return id.name, id.params
}

// Generation reports the full-identity generation of the last reload that
// completed on every shard (1 = the identity the engine was built with).
func (se *ShardedEngine) Generation() int64 { return se.generation.Load() }

// Reloads reports how many bundle rolls have completed.
func (se *ShardedEngine) Reloads() int64 { return se.reloads.Load() }
