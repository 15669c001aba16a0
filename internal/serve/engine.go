package serve

import (
	"context"
	"fmt"
	"time"

	"prestroid/internal/logicalplan"
	"prestroid/internal/workload"
)

// Config tunes the inference engine.
type Config struct {
	// CacheSize is the number of canonicalised-SQL entries the prediction
	// cache retains; 0 disables caching.
	CacheSize int
	// Replicas is the engine's slot count: how many model calls may run at
	// once, every one on the served model. Values <= 1 select one slot.
	Replicas int
	// SubtreeCacheSize is the number of pooled tree-convolution outputs the
	// engine retains, keyed by sub-tree content hash; 0 disables the cache.
	// Every model call of the engine reads and fills the one cache.
	SubtreeCacheSize int
	// TemplateCacheSize is the number of template answers the engine
	// retains, keyed by the query's literal-stripped template key; 0
	// disables it. The first prediction of a template is computed and leaves
	// its answer, plan shape included, in the entry; from then on a
	// prediction of any literal variant is answered from the entry, with no
	// parse, plan, encode or model, byte-identical to computing it. Only an
	// engine whose pipeline strips literals keeps one: a pipeline that
	// hashes predicate text (HashedPredicates) encodes literals, so its
	// engine runs with no template cache whatever this says. An entry is its
	// key and one Prediction.
	TemplateCacheSize int
	// MaxEstWait is the bounded-latency admission target: a query whose
	// estimated wait for a model slot (0 while one is free, else
	// handlers waiting for or holding one × EWMA per-call service time ÷
	// slots) exceeds it is shed instead of computed. 0 (the default) =
	// the bound is infinite: nothing is shed. admit is its one reader.
	MaxEstWait time.Duration
}

// DefaultConfig mirrors the prestroidd defaults.
func DefaultConfig() Config {
	return Config{CacheSize: 4096, Replicas: DefaultReplicas(),
		SubtreeCacheSize: 4096, TemplateCacheSize: 4096}
}

// frontEnd is the whole front end of a query: lex, parse and plan, into the
// trace an encode reads, its plan exact to the query's literals.
func frontEnd(sql string) (*workload.Trace, error) {
	plan, err := logicalplan.PlanSQL(sql)
	if err != nil {
		return nil, err
	}
	return &workload.Trace{SQL: sql, Plan: plan, Template: -1}, nil
}

// PlanOnly resolves sql to its logical plan: the full parse and plan,
// which touch neither the model nor any cache. This is the explain path's
// entry point.
func (se *ShardedEngine) PlanOnly(sql string) (*logicalplan.Node, error) {
	return logicalplan.PlanSQL(sql)
}

// miss is the engine's miss path, entered once the caches have been looked
// up and found nothing (the caller deposits the answer in the prediction
// cache): deadline check, frontEnd, one encode, predict and, when tkey is
// the query's template key, the template's answer deposited under it — all
// on the caller's goroutine.
//
// Work whose deadline has already passed is dropped before planning, and a
// deadline that passes while the query waits for a slot abandons the
// wait without reaching the model. Both drops count once on the Expired
// counter and surface as ExpiredError.
func (se *ShardedEngine) miss(ctx context.Context, sql, tkey string) (Prediction, error) {
	if ctx.Err() != nil {
		se.tel.Expired.Inc()
		return Prediction{}, &ExpiredError{}
	}
	tr, err := frontEnd(sql)
	if err != nil {
		return Prediction{}, fmt.Errorf("parse: %w", err)
	}
	y, err := se.predict(ctx, se.model.EncodeTrace(tr))
	if err != nil {
		return Prediction{}, err
	}
	p := se.pred.prediction(shapeOf(tr.Plan), y)
	if tkey != "" {
		se.tmplCache.Put(tkey, p)
	}
	return p, nil
}

// predict runs the model for one encoding once a slot is free, on the
// caller's goroutine. The caller counts as busy while it waits for a slot
// and while it holds one (estWaitMicros). A deadline that passes during the
// wait gives the wait up, so an expired request never reaches the model. The
// call reads and fills the engine's sub-tree cache; a disabled (nil) cache
// misses uncounted and drops deposits. A panic in the model is recovered
// here — it would otherwise reach net/http's handler recovery with no answer
// in the standard envelope — and the query fails with errPanicked, the
// engine counts it in Panics, and the slot is given back. Every model call
// counts one batch of one row; the service time it observes is the call
// alone, without the wait. The encoding goes back to the model that made it.
func (se *ShardedEngine) predict(ctx context.Context, enc any) (y float64, err error) {
	se.busy.Add(1)
	defer se.busy.Add(-1)
	if !se.take(ctx) {
		se.tel.Expired.Inc()
		return 0, &ExpiredError{}
	}
	defer func() { <-se.slots }()
	defer func() {
		if v := recover(); v != nil {
			se.tel.Panics.Inc()
			y, err = 0, fmt.Errorf("%w in the model: %v", errPanicked, v)
		}
	}()
	start := time.Now()
	y = se.model.PredictEncoded(enc, se.convCache)
	se.tel.ServiceTime.Observe(float64(time.Since(start).Nanoseconds()) / 1e3)
	se.tel.Batches.Inc()
	se.tel.Coalesced.Inc()
	se.model.Recycle(enc)
	return y, nil
}

// take waits for a free slot and reports whether it holds one, to give back
// by receiving from se.slots. It holds nothing and reports false when ctx
// ended first: while the caller waited or as a slot came free, so an expired
// request never reaches the model.
func (se *ShardedEngine) take(ctx context.Context) bool {
	select {
	case se.slots <- struct{}{}:
	case <-ctx.Done():
		return false
	}
	if ctx.Err() != nil {
		<-se.slots
		return false
	}
	return true
}

// flight is one handler's computation of a flight key the engine has no
// answer for, which misses of the same key arriving meanwhile wait on
// instead of running the model again. The leader fills p and ok before done
// is closed.
type flight struct {
	done chan struct{}
	p    Prediction
	ok   bool
}

// join makes the caller the leader of key's flight — lead is true, and the
// caller must land it — or returns the flight already computing key.
func (se *ShardedEngine) join(key string) (f *flight, lead bool) {
	se.flightMu.Lock()
	defer se.flightMu.Unlock()
	if f = se.inflight[key]; f != nil {
		return f, false
	}
	if se.inflight == nil {
		se.inflight = make(map[string]*flight)
	}
	f = &flight{done: make(chan struct{})}
	se.inflight[key] = f
	return f, true
}

// land ends the leader's flight: later misses of key compute afresh (or, once
// the answer is cached, do not miss), and its followers wake.
func (se *ShardedEngine) land(key string, f *flight) {
	se.flightMu.Lock()
	delete(se.inflight, key)
	se.flightMu.Unlock()
	close(f.done)
}

// estWaitMicros is the engine's live admission signal: the estimated wait
// for a slot of a query admitted now — 0 while a slot is free, else the
// handlers waiting for or holding one times the EWMA per-call service time,
// over the slot count. 0 also means the engine has no service-time
// evidence yet; either way it admits.
func (se *ShardedEngine) estWaitMicros() float64 {
	return se.tel.EstWaitMicros(int(se.busy.Load()), se.Shards())
}
