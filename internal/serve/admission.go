package serve

import (
	"context"
	"errors"
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
// model could run it — at dispatch, before planning, while it waited for the
// replica, or while it waited on an identical query's flight. The HTTP layer
// answers it with 504 Gateway Timeout.
type ExpiredError struct{}

func (e *ExpiredError) Error() string { return "request deadline expired before prediction" }

// errPanicked marks a query whose model round trip panicked (see
// Engine.predict). The HTTP layer answers it with 500 internal.
var errPanicked = errors.New("panic")

// admit is the one dispatch policy: which shard computes a query whose home
// shard's prediction cache missed. Home keeps its traffic while its estimated
// wait is inside the bound; otherwise the query detours — a hot hash bucket
// spills onto idle replicas before anything is refused — to the peer with the
// smallest estimate, if that is inside the bound; failing both, it is shed.
// Every shard of an engine carries the same weights, so any peer is a valid
// detour. The returned minWaitMicros is the smallest estimate seen across
// candidates, which prices the Retry-After hint when shed is true.
//
// MaxEstWait <= 0 makes the bound infinite: nothing is ever shed, and every
// miss runs at home.
//
// A shard with no service-time evidence yet estimates 0 and is always
// admitted: admission control needs observations to refuse work, so a cold
// engine never sheds until its first model call lands.
func (se *ShardedEngine) admit(home *Engine) (sh *Engine, minWaitMicros float64, shed bool) {
	if se.maxEstWaitMicros <= 0 {
		return home, 0, false
	}
	minWaitMicros = home.estWaitMicros()
	if minWaitMicros <= se.maxEstWaitMicros {
		return home, minWaitMicros, false
	}
	for _, s := range se.shards {
		if w := s.estWaitMicros(); s != home && w < minWaitMicros {
			sh, minWaitMicros = s, w
		}
	}
	if sh != nil && minWaitMicros <= se.maxEstWaitMicros {
		return sh, minWaitMicros, false
	}
	return nil, minWaitMicros, true
}

// PredictSQLGenCtx canonicalises the query once, dispatches it to a shard
// and returns that shard's prediction plus the engine's generation, under a
// per-request deadline and (when MaxEstWait is set) bounded-wait admission.
//
// The generation is a constant of the engine, so the pair is truthful by
// construction: whatever path answered — a cache segment, a template entry,
// the model of an engine a roll has since retired — ran on this engine's one
// set of weights. Per-key monotonicity across rolls is the caller's pointer
// discipline (see ModelEntry): a request started after a roll returned reads
// the successor engine.
func (se *ShardedEngine) PredictSQLGenCtx(ctx context.Context, sql string) (Prediction, int64, error) {
	return se.predictKey(ctx, sql, CanonicalSQL(sql))
}

// predictKey is PredictSQLGenCtx with the canonical key already computed, so
// a caller that needed the key itself (the registry's canary split) does not
// canonicalise twice. The home shard — the one the key hashes to — owns the
// key: its prediction cache is read once, here, before anything else is
// decided, and written once, here, after the answer is known. No other
// segment ever sees the key.
//
// A hit costs no model call, so it is served before the admission decision:
// hot queries ride through overload for free, which keeps shed-mode
// throughput at the unshedded peak, and a busy home's cached answers are
// never recomputed on a peer. On an engine that answers templates, a miss
// then extracts the query's template, once, and reads the template's entry
// from the segment of the shard the template key hashes to: an answered entry
// is the answer, served before admission too, with no trace or model.
// Anything else is computed on the shard admit chooses, which reuses the
// lookup. A refusal surfaces as *OverloadError charged to the home shard's
// Shed counter (and, like every miss, to its cache_misses — a detoured or
// shed query still counts its one lookup at home).
//
// An admitted miss is single-flighted on its home shard: the first runs it on
// this goroutine (Engine.miss), and identical misses arriving before its
// answer is cached wait for that answer instead of costing a model row of
// their own. A follower gives the wait up when its deadline passes, and takes
// only an answer: when the leader fails — a parse error, an expired deadline,
// a panic — the follower runs its own miss, so every error a caller sees is
// its own query's.
//
// Deadlines: work that is already expired is dropped here — before the
// lookup and before dispatch picks a shard — and counted against the home
// shard; expiry deeper in the pipeline is handled by Engine.miss. Both
// surface as *ExpiredError.
func (se *ShardedEngine) predictKey(ctx context.Context, sql, key string) (Prediction, int64, error) {
	home := se.shards[se.shardOf(key)]
	if ctx.Err() != nil {
		home.tel.Expired.Inc()
		return Prediction{}, 0, &ExpiredError{}
	}
	if p, ok := home.cache.Get(key); ok {
		return p, se.gen, nil
	}
	var t tmplLookup
	if home.answers {
		if t = home.lookupTemplate(sql); t.ent != nil && t.ent.answered {
			home.cache.Put(key, t.ent.p)
			return t.ent.p, se.gen, nil
		}
	}
	sh, minWait, shed := se.admit(home)
	if shed {
		home.tel.Shed.Inc()
		return Prediction{}, 0, &OverloadError{EstWaitMicros: minWait, BoundMicros: se.maxEstWaitMicros}
	}
	f, lead := home.join(key)
	for !lead {
		select {
		case <-f.done:
		case <-ctx.Done():
			home.tel.Expired.Inc()
			return Prediction{}, 0, &ExpiredError{}
		}
		if f.ok {
			f.by.tel.Coalesced.Inc()
			return f.p, se.gen, nil
		}
		f, lead = home.join(key)
	}
	defer home.land(key, f)
	p, err := sh.miss(ctx, sql, key, t)
	if err != nil {
		return Prediction{}, 0, err
	}
	home.cache.Put(key, p)
	f.p, f.ok, f.by = p, true, sh
	return p, se.gen, nil
}
