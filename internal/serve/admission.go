package serve

import (
	"context"
	"errors"
	"fmt"
	"time"

	"prestroid/internal/sqlparse"
)

// OverloadError reports a query refused by bounded-wait admission: the
// engine's estimated wait for a model slot exceeded the configured bound. It
// carries the numbers the refusal was decided on so the HTTP layer can
// answer 429 with an honest Retry-After.
type OverloadError struct {
	// EstWaitMicros is the wait estimate the query was refused on.
	EstWaitMicros float64
	// BoundMicros is the admission bound the estimate exceeded.
	BoundMicros float64
}

func (e *OverloadError) Error() string {
	return fmt.Sprintf("overloaded: estimated wait %.1fms exceeds bound %.1fms",
		e.EstWaitMicros/1e3, e.BoundMicros/1e3)
}

// RetryAfter is the client back-off hint: the time for the engine's backlog
// to drain back inside the bound, rounded up to whole seconds (429
// Retry-After has whole-second granularity, and a hint rounded down sends
// the client back before there is room for it) and never less than one.
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
// model could run it — on arrival, before planning, while it waited for a
// slot, or while it waited on an identical query's flight. The HTTP layer
// answers it with 504 Gateway Timeout.
type ExpiredError struct{}

func (e *ExpiredError) Error() string { return "request deadline expired before prediction" }

// errPanicked marks a query whose model round trip panicked (see
// ShardedEngine.predict). The HTTP layer answers it with 500 internal.
var errPanicked = errors.New("panic")

// admit is the one admission policy: a query the caches could not answer is
// shed when its estimated wait for a slot (estWaitMicros) is past the
// bound, and computed otherwise. The estimate prices the Retry-After hint.
//
// MaxEstWait <= 0 makes the bound infinite: nothing is ever shed.
//
// An engine with no service-time evidence yet estimates 0 and always
// admits: admission control needs observations to refuse work, so a cold
// engine never sheds until its first model call lands.
func (se *ShardedEngine) admit() (estWaitMicros float64, shed bool) {
	if se.maxEstWaitMicros <= 0 {
		return 0, false
	}
	estWaitMicros = se.estWaitMicros()
	return estWaitMicros, estWaitMicros > se.maxEstWaitMicros
}

// PredictSQLGenCtx canonicalises the query once and returns the engine's
// prediction plus its generation, under a per-request deadline and (when
// MaxEstWait is set) bounded-wait admission.
//
// The generation is a constant of the engine, so the pair is truthful by
// construction: whatever path answered — a cache, a template entry, the
// model of an engine a roll has since retired — ran on this engine's one
// set of weights. Per-key monotonicity across rolls is the caller's pointer
// discipline (see ModelEntry): a request started after a roll returned reads
// the successor engine.
func (se *ShardedEngine) PredictSQLGenCtx(ctx context.Context, sql string) (Prediction, int64, error) {
	return se.predictKey(ctx, sql, CanonicalSQL(sql))
}

// predictKey is PredictSQLGenCtx with the canonical key already computed, so
// a caller that needed the key itself (the registry's canary split) does not
// canonicalise twice. The prediction cache is read once, here, before
// anything else is decided, and written once, here, after the answer is
// known.
//
// A hit costs no model call, so it is served before the admission decision:
// hot queries ride through overload for free, which keeps shed-mode
// throughput at the unshedded peak. On an engine that answers templates, a
// miss then scans the query's template key, once, and reads its entry: an
// entry is the answer, served before admission too, with no parse, trace or
// model. Anything else goes to admit. A refusal surfaces as *OverloadError
// counted in Shed (and, like every miss, in cache_misses).
//
// An admitted miss is single-flighted: the first runs it on this goroutine
// (miss), and misses of the same flight key arriving before its answer is
// cached wait for that answer instead of costing a model call of their own.
// The flight key is the template key on an engine that answers templates —
// concurrent first variants of a new template share one model call, and each
// caller writes the answer under its own canonical key — and the canonical
// key otherwise. A query without a template key on such an engine — it
// does not lex, is empty or has a LIMIT the parser refuses — flies alone, so
// no template's flight can hand it an answer. A follower gives the wait up
// when its deadline passes, and takes only an answer: when the leader fails —
// a parse error, an expired deadline, a panic — the follower runs its own
// miss, so every error a caller sees is its own query's.
//
// Deadlines: work that is already expired is dropped here, before the
// lookup; expiry deeper in the pipeline is handled by miss. Both surface as
// *ExpiredError.
func (se *ShardedEngine) predictKey(ctx context.Context, sql, key string) (Prediction, int64, error) {
	if ctx.Err() != nil {
		se.tel.Expired.Inc()
		return Prediction{}, 0, &ExpiredError{}
	}
	if p, ok := se.cache.Get(key); ok {
		return p, se.gen, nil
	}
	fkey, tkey := key, ""
	if se.tmplCache != nil {
		var ok bool
		if tkey, ok = sqlparse.TemplateKey(sql); ok {
			if p, hit := se.tmplCache.Get(tkey); hit {
				se.cache.Put(key, p)
				return p, se.gen, nil
			}
		}
		fkey = tkey
	}
	if wait, shed := se.admit(); shed {
		se.tel.Shed.Inc()
		return Prediction{}, 0, &OverloadError{EstWaitMicros: wait, BoundMicros: se.maxEstWaitMicros}
	}
	var f *flight
	if fkey != "" {
		lead := false
		for f, lead = se.join(fkey); !lead; f, lead = se.join(fkey) {
			select {
			case <-f.done:
			case <-ctx.Done():
				se.tel.Expired.Inc()
				return Prediction{}, 0, &ExpiredError{}
			}
			if f.ok {
				se.tel.Coalesced.Inc()
				se.cache.Put(key, f.p)
				return f.p, se.gen, nil
			}
		}
		defer se.land(fkey, f)
	}
	p, err := se.miss(ctx, sql, tkey)
	if err != nil {
		return Prediction{}, 0, err
	}
	se.cache.Put(key, p)
	if f != nil {
		f.p, f.ok = p, true
	}
	return p, se.gen, nil
}
