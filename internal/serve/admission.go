package serve

import (
	"context"
	"fmt"
	"time"
)

// OverloadError reports a query refused by bounded-wait admission: every
// candidate shard's estimated wait exceeded the configured bound. It carries
// the numbers the refusal was decided on so the HTTP layer can answer 429
// with an honest Retry-After.
type OverloadError struct {
	// EstWaitMicros is the smallest wait estimate across the candidate
	// shards — the soonest the fleet could plausibly have served the query.
	EstWaitMicros float64
	// BoundMicros is the admission bound the estimate exceeded.
	BoundMicros float64
}

func (e *OverloadError) Error() string {
	return fmt.Sprintf("overloaded: estimated wait %.1fms exceeds bound %.1fms",
		e.EstWaitMicros/1e3, e.BoundMicros/1e3)
}

// RetryAfter is the client back-off hint: the time for the least-loaded
// candidate's backlog to drain back inside the bound, rounded up to whole
// seconds (429 Retry-After has whole-second granularity, and a hint rounded
// down sends the client back before there is room for it) and never less
// than one.
func (e *OverloadError) RetryAfter() time.Duration {
	return ceilSeconds(time.Duration((e.EstWaitMicros - e.BoundMicros) * 1e3 * float64(time.Nanosecond)))
}

// ceilSeconds rounds a Retry-After hint up to a whole number of seconds, at
// least one.
func ceilSeconds(d time.Duration) time.Duration {
	if d <= time.Second {
		return time.Second
	}
	return (d + time.Second - 1).Truncate(time.Second)
}

// ExpiredError reports a query dropped because its deadline passed before a
// model could run it — at dispatch, before planning, or while queued. The
// HTTP layer answers it with 504 Gateway Timeout.
type ExpiredError struct{}

func (e *ExpiredError) Error() string { return "request deadline expired before prediction" }

// admit resolves bounded-wait dispatch for a home shard. It is pick() with
// a wait bound layered on: detour first — a hot hash bucket must spill onto
// idle replicas before anything is refused — and shed only when every
// candidate shard (home included) estimates a wait past the bound. The
// returned minWaitMicros is the smallest estimate seen across candidates,
// which prices the Retry-After hint when shed is true.
//
// A shard with no service-time evidence yet estimates 0 and is always
// admitted: admission control needs observations to refuse work, so a cold
// engine behaves exactly like the pre-admission dispatcher until its first
// flush lands.
func (se *ShardedEngine) admit(home *Engine) (sh *Engine, minWaitMicros float64, shed bool) {
	bound := se.maxEstWaitMicros
	hw := home.estWaitMicros()
	if hw <= bound && !home.saturated() {
		return home, hw, false
	}
	// Candidates are pick()'s — every peer — minus the saturated ones, ranked
	// by wait estimate rather than raw queue depth: two equal-depth queues
	// drain at different rates once their service times diverge.
	minWaitMicros = hw
	var best *Engine
	bestWait := 0.0
	for _, s := range se.shards {
		if s == home {
			continue
		}
		w := s.estWaitMicros()
		if w < minWaitMicros {
			minWaitMicros = w
		}
		if s.saturated() {
			continue
		}
		if best == nil || w < bestWait {
			best, bestWait = s, w
		}
	}
	if best != nil && bestWait <= bound {
		return best, minWaitMicros, false
	}
	// No peer qualifies. Home keeps its traffic as long as its own estimate
	// is inside the bound: a saturated home still answers
	// today (through the serialised fallback), and bounded mode must not
	// take that away — it only adds the right to refuse unbounded waits.
	if hw <= bound {
		return home, minWaitMicros, false
	}
	return nil, minWaitMicros, true
}

// PredictSQLGenCtx canonicalises the query once, dispatches it to a shard
// and returns that shard's prediction plus the engine's generation, under a
// per-request deadline and (when MaxEstWait is set) bounded-wait admission.
// A nil ctx means no deadline, like context.Background().
//
// The generation is a constant of the engine, so the pair is truthful by
// construction: whatever path answered — a cache segment, a batcher, the
// serialised fallback of an engine a roll has since closed — ran on this
// engine's one set of weights. Per-key monotonicity across rolls is the
// caller's pointer discipline (see ModelEntry): a request started after a
// roll returned reads the successor engine.
func (se *ShardedEngine) PredictSQLGenCtx(ctx context.Context, sql string) (Prediction, int64, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	return se.predictKey(ctx, sql, CanonicalSQL(sql))
}

// predictKey is PredictSQLGenCtx with the canonical key already computed, so
// a caller that needed the key itself (the registry's canary split) does not
// canonicalise twice.
//
// Deadlines: work that is already expired is dropped here — before dispatch
// picks a batcher — and counted against the home shard; expiry deeper in the
// pipeline is handled by Engine.predictKey. Both surface as *ExpiredError.
//
// The only branch is how the shard is chosen. Unbounded (MaxEstWait <= 0),
// pick() detours around a saturated home. Bounded, only a home-cache miss
// pays the admit() check; a refusal surfaces as *OverloadError charged to the
// home shard's Shed counter.
func (se *ShardedEngine) predictKey(ctx context.Context, sql, key string) (Prediction, int64, error) {
	home := se.shards[se.shardOf(key)]
	if ctx.Err() != nil {
		home.tel.Expired.Inc()
		return Prediction{}, 0, &ExpiredError{}
	}
	bounded := se.maxEstWaitMicros > 0
	sh := home
	if !bounded {
		sh = se.pick(home)
	}
	// One look at the home segment covers both reasons to look before
	// computing. Bounded: a hit never queues, so it is served before the
	// admission decision — hot templates ride through overload for free, which
	// keeps shed-mode throughput at the unshedded peak. Detoured: a cached
	// answer is still the cheapest path — without it hot templates would be
	// recomputed on another shard exactly when the service is overloaded. Peek
	// leaves the miss for the shard that serves the query.
	if bounded || sh != home {
		if p, ok := home.cache.Peek(key); ok {
			return p, se.gen, nil
		}
	}
	if bounded {
		var minWait float64
		var shed bool
		if sh, minWait, shed = se.admit(home); shed {
			home.tel.Shed.Inc()
			return Prediction{}, 0, &OverloadError{EstWaitMicros: minWait, BoundMicros: se.maxEstWaitMicros}
		}
	}
	p, err := sh.predictKey(ctx, sql, key)
	if err != nil {
		return Prediction{}, 0, err
	}
	if sh != home {
		// Deposit the result where future lookups will hash: an entry stranded
		// only on the detour shard is unreachable once the home queue drains.
		home.cache.Put(key, p)
	}
	return p, se.gen, nil
}
