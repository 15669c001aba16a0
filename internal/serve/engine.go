package serve

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"prestroid/internal/logicalplan"
	"prestroid/internal/sqlparse"
	"prestroid/internal/telemetry"
	"prestroid/internal/workload"
)

// Config tunes the inference engine.
type Config struct {
	// CacheSize is the number of canonicalised-SQL entries the prediction
	// cache retains; 0 disables caching. A ShardedEngine splits this budget
	// evenly across its shards, so each shard owns an independent cache
	// segment with its own mutex.
	CacheSize int
	// Replicas is the number of shards a ShardedEngine builds, each owning
	// its own model replica (a Clone of the served model) and cache segment.
	// Values <= 1 select a single shard.
	Replicas int
	// SubtreeCacheSize is the total number of pooled tree-convolution
	// outputs retained across the engine, keyed by sub-tree content hash; 0
	// disables the cache. Like CacheSize, a ShardedEngine splits the budget
	// evenly so each shard's replica owns an independent segment with its own
	// mutex.
	SubtreeCacheSize int
	// TemplateCacheSize is the total number of template entries the engine
	// retains, keyed by the query's literal-stripped template; 0 disables it.
	// The first prediction of a template is computed and leaves its answer
	// and plan shape in the entry; from then on a prediction of any literal
	// variant is answered from the entry, with no parse, plan, encode or
	// model, byte-identical to computing it. An engine whose
	// pipeline hashes predicate text (HashedPredicates) never stores an
	// answer: a hit there rebinds the cached skeleton with the query's
	// literals in place of lex and parse, then plans and encodes it. Entries
	// are about a skeleton's size, a few hundred bytes. Like the other
	// budgets, a ShardedEngine splits it evenly across shards, and a template
	// lives in the segment of the shard its key hashes to.
	TemplateCacheSize int
	// MaxEstWait is the bounded-latency admission target: a query whose
	// estimated wait for a model replica (handlers waiting for or holding it
	// × EWMA per-call service time) exceeds it on every shard is shed
	// instead of computed. 0 (the default) = the bound is infinite: nothing
	// is shed and every miss runs on its home shard. The dispatcher's admit
	// is its one reader, whatever the shard count.
	MaxEstWait time.Duration
}

// DefaultConfig mirrors the prestroidd defaults.
func DefaultConfig() Config {
	return Config{CacheSize: 4096, Replicas: DefaultReplicas(),
		SubtreeCacheSize: 4096, TemplateCacheSize: 4096}
}

// Engine is one shard of the inference front end around a Predictor, and
// there is one way through it: the handler goroutine that takes a miss runs
// every stage itself — parse → plan → encode (frontEnd: a rebind of the
// template's skeleton or a full parse, then the plan, then the model's
// off-lock encode, at most once), then the model (predict: a wait for the
// replica, abandoned when the deadline passes, and one adopt → predict →
// evict round trip on it). The key's home shard owns the finished
// prediction: an LRU keyed by canonicalised SQL, read once before any of
// this and written once after it, and the single-flight of concurrent
// misses of one key (see ShardedEngine.predictKey).
//
// An Engine is immutable: the predictor (model replica, pipeline,
// normaliser), the generation and the three cache segments are fixed when
// newEngineAt returns (its shards, by newShardedEngineAt before the engine
// serves). New weights never reach a running engine — a roll builds a
// successor (see ModelEntry) — so everything an engine computes, caches or
// answers belongs to the one identity it was built with, and the replica
// lock has a single job: models are not safe for concurrent use.
type Engine struct {
	pred  *Predictor
	model servedModel // pred.Model, checked against the contract once
	gen   int64       // generation of the identity this engine serves

	// The shard's cache segments, each nil when disabled: finished
	// predictions, the sub-tree partial results installed into the replica,
	// and templates. All three are born empty with the engine and die with
	// it. shards is every shard of the ShardedEngine this one belongs to, in
	// shard order, itself included: a template lives in the template segment
	// of the shard its key hashes to (see lookupTemplate).
	cache     *predictionCache
	convCache *subtreeCache
	tmplCache *templateCache
	shards    []*Engine

	// answers reports whether the engine stores and serves template answers:
	// its pipeline strips literal values before embedding, so every literal
	// variant of a template gets one answer. A HashedPredicates pipeline
	// encodes literals, and a predictor without a pipeline promises nothing.
	// It is read once, when the engine is built.
	answers bool

	// busy counts the handlers waiting for or holding the replica: the
	// admission signal (estWaitMicros) and the queue-depth gauge.
	busy atomic.Int64

	// inflight maps each canonical key this shard is home to and some handler
	// is computing to that handler's flight (see join).
	flightMu sync.Mutex
	inflight map[string]*flight

	// tel is the shard's counter group: model-call and cache counters land
	// here as atomic adds, and Snapshot folds them with the sampled gauges.
	// The group is lent, not owned: a serving identity hands each shard's
	// group from the engine a roll retires to its successor, so counters and
	// the admission EWMA carry across rolls.
	tel *telemetry.ShardGroup
}

// newEngineAt builds the shard over pred, whose model is m and which the
// engine owns from here on, at an explicit generation and counter group: the
// successor a roll builds is born at its predecessor's generation + 1 and,
// when it replaces the predecessor outright, counts into the same group. A
// nil tel starts a fresh one. Nothing runs behind an engine, so there is
// nothing to stop: a retired engine keeps answering under its own
// generation for whoever still holds it.
func newEngineAt(pred *Predictor, m servedModel, cfg Config, gen int64, tel *telemetry.ShardGroup) *Engine {
	if tel == nil {
		tel = telemetry.NewShardGroup()
	}
	e := &Engine{
		pred:    pred,
		model:   m,
		gen:     gen,
		answers: pred.Pipe != nil && !pred.Pipe.Enc.HashedPredicates,
		tel:     tel,
	}
	if cfg.CacheSize > 0 {
		e.cache = newPredictionCache(cfg.CacheSize, &tel.CacheHits, &tel.CacheMisses)
	}
	if cfg.SubtreeCacheSize > 0 {
		e.convCache = newSubtreeCache(cfg.SubtreeCacheSize, &tel.SubtreeHits, &tel.SubtreeMisses)
		m.SetConvCache(e.convCache)
	}
	if cfg.TemplateCacheSize > 0 {
		e.tmplCache = newTemplateCache(cfg.TemplateCacheSize, &tel.TemplateHits, &tel.TemplateMisses)
	}
	e.shards = []*Engine{e}
	return e
}

// prepared is one query past the front end: its trace, which carries the
// query's own plan, exact to its literals; its encoding; the template lookup
// it went through, and the statement its plan was built from, the skeleton
// its template entry keeps.
type prepared struct {
	trace *workload.Trace
	enc   any // the model's encoding of the plan; nil for explain
	tmpl  tmplLookup
	stmt  *sqlparse.SelectStmt
}

// frontEnd is the whole front end of a query, run once on the handler's
// goroutine: a rebind of the template's skeleton or lex and parse, then plan,
// then — when encode is set (a prediction; explain stops at the plan) — the
// model's off-lock encode, at most once. t is the query's template lookup,
// made by the caller.
//
// A hit rebinds the cached skeleton with the query's literal vector
// (extracted in the same single lexer pass that produced the key) in place of
// lexing and parsing, and replans it, so explain and the encode see a plan
// byte-identical to what the full parse would have built. Errors are
// byte-identical to the uncached path's: rebind mismatches (impossible for a
// genuine template match, but handled defensively) fall through to the full
// parse, which reproduces the exact error the caller would have seen without
// a cache. The query is encoded at most once here and never again.
func (e *Engine) frontEnd(sql string, t tmplLookup, encode bool) (prepared, error) {
	fe := prepared{tmpl: t}
	var plan *logicalplan.Node
	if t.ent != nil {
		if stmt, err := t.ent.stmt.Rebind(t.lits); err == nil {
			if plan, err = logicalplan.Plan(stmt); err == nil {
				fe.stmt = t.ent.stmt
			}
		}
	}
	if fe.stmt == nil {
		var err error
		if fe.stmt, err = sqlparse.Parse(sql); err != nil {
			return prepared{}, err
		}
		if plan, err = logicalplan.Plan(fe.stmt); err != nil {
			return prepared{}, err
		}
	}
	fe.trace = &workload.Trace{SQL: sql, Plan: plan, Template: -1}
	if encode {
		fe.enc = e.model.EncodeTrace(fe.trace)
	}
	return fe, nil
}

// deposit hands the template segment what fe's lookup found it lacking: a new
// template's entry, or — when answered, p being the query's computed answer —
// the answer an unanswered entry was missing. Explain passes answered false.
func deposit(fe prepared, p Prediction, answered bool) {
	if t := fe.tmpl; t.seg != nil && (t.ent == nil || answered && !t.ent.answered) {
		t.seg.Put(t.key, &templateEntry{stmt: fe.stmt, p: p, answered: answered})
	}
}

// PlanOnly resolves sql to its logical plan through the same front end as
// prediction, minus the encode — a hit skips lex and parse — depositing a
// skeleton on a miss so explain traffic warms the cache for predictions (and
// vice versa). This is the explain path's entry point; it never touches the
// model.
func (e *Engine) PlanOnly(sql string) (*logicalplan.Node, error) {
	fe, err := e.frontEnd(sql, e.lookupTemplate(sql), false)
	if err != nil {
		return nil, err
	}
	deposit(fe, Prediction{}, false)
	return fe.trace.Plan, nil
}

// miss is the engine's miss path, entered once the key's home shard has
// looked its prediction cache up and found nothing (the caller deposits the
// answer there) and, on an engine that answers templates, once t found no
// answer: deadline check, frontEnd, predict, and the template deposit — the
// answer, on an engine that answers templates — all on the caller's
// goroutine. An engine that answers templates had its caller look the
// template up before admission; any other looks it up here, as part of the
// front end.
//
// Work whose deadline has already passed is dropped before planning, and a
// deadline that passes while the query waits for the replica abandons the
// wait without reaching the model. Both drops count once on this shard's
// Expired counter and surface as ExpiredError.
func (e *Engine) miss(ctx context.Context, sql, key string, t tmplLookup) (Prediction, error) {
	if ctx.Err() != nil {
		e.tel.Expired.Inc()
		return Prediction{}, &ExpiredError{}
	}
	if !e.answers {
		t = e.lookupTemplate(sql)
	}
	fe, err := e.frontEnd(sql, t, true)
	if err != nil {
		return Prediction{}, fmt.Errorf("parse: %w", err)
	}
	y, err := e.predict(ctx, fe.trace, fe.enc)
	if err != nil {
		return Prediction{}, err
	}
	p := e.pred.prediction(shapeOf(fe.trace.Plan), y)
	deposit(fe, p, e.answers)
	return p, nil
}

// predict runs the model on the shard's replica for one encoded trace, on the
// caller's goroutine. The caller counts as busy while it waits for the
// replica and while it holds it (estWaitMicros). A deadline that passes
// during the wait gives the wait up, so an expired request never reaches the
// model. A panic in the model is recovered here — it would otherwise reach
// net/http's handler recovery with no answer in the standard envelope — and
// the query fails with errPanicked, the shard counts it in Panics, and the
// replica is released for the next caller. Every model call counts one batch
// of one row; the service time it observes is the round trip alone, without
// the wait.
func (e *Engine) predict(ctx context.Context, tr *workload.Trace, enc any) (y float64, err error) {
	e.busy.Add(1)
	defer e.busy.Add(-1)
	if !e.pred.mu.acquire(ctx) {
		e.tel.Expired.Inc()
		return 0, &ExpiredError{}
	}
	defer e.pred.mu.Unlock()
	defer func() {
		if r := recover(); r != nil {
			e.tel.Panics.Inc()
			y, err = 0, fmt.Errorf("%w in the model: %v", errPanicked, r)
		}
	}()
	start := time.Now()
	y = e.pred.predictInto(e.model, tr, enc)
	e.tel.ServiceTime.Observe(float64(time.Since(start).Nanoseconds()) / 1e3)
	e.tel.Batches.Inc()
	e.tel.Coalesced.Inc()
	e.tel.BatchSizes.Observe(1)
	return y, nil
}

// flight is one handler's computation of a key its home shard has no answer
// for, which identical misses arriving meanwhile wait on instead of running
// the model again. The leader fills p and ok, and by with the shard whose
// model answered, before done is closed.
type flight struct {
	done chan struct{}
	p    Prediction
	ok   bool
	by   *Engine
}

// join makes the caller the leader of key's flight on this home shard —
// lead is true, and the caller must land it — or returns the flight already
// computing key.
func (e *Engine) join(key string) (f *flight, lead bool) {
	e.flightMu.Lock()
	defer e.flightMu.Unlock()
	if f = e.inflight[key]; f != nil {
		return f, false
	}
	if e.inflight == nil {
		e.inflight = make(map[string]*flight)
	}
	f = &flight{done: make(chan struct{})}
	e.inflight[key] = f
	return f, true
}

// land ends the leader's flight: later misses of key compute afresh (or, once
// the answer is cached, do not miss), and its followers wake.
func (e *Engine) land(key string, f *flight) {
	e.flightMu.Lock()
	delete(e.inflight, key)
	e.flightMu.Unlock()
	close(f.done)
}

// estWaitMicros is the shard's live admission signal: the estimated wait for
// the replica of a query admitted now, the handlers waiting for or holding it
// times the EWMA per-call service time. 0 means the shard has no
// service-time evidence yet (or nobody busy) and admits freely.
func (e *Engine) estWaitMicros() float64 { return e.tel.EstWaitMicros(int(e.busy.Load())) }

// Snapshot returns the shard's telemetry snapshot: the group's atomic
// counters plus the gauges sampled here (busy handlers, cache entries,
// generation). The shard index is 0; a ShardedEngine overwrites it with the
// dispatcher's numbering.
func (e *Engine) Snapshot() telemetry.ShardSnapshot {
	entries, _ := e.cache.Stats()
	subEntries, subBytes := e.convCache.Stats()
	tmplEntries, tmplBytes := e.tmplCache.Stats()
	return e.tel.Snapshot(telemetry.ShardGauges{
		Queued:          int(e.busy.Load()),
		CacheEntries:    entries,
		SubtreeEntries:  subEntries,
		SubtreeBytes:    subBytes,
		TemplateEntries: tmplEntries,
		TemplateBytes:   tmplBytes,
		Generation:      e.gen,
	})
}
