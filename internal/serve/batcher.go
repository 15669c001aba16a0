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

// Config tunes the batched inference engine. How long a short batch stays
// open is not configured: exactly while some handler is still in its front end
// on the way to the shard's queue (Engine.enRoute), so a hold is bounded by
// MaxBatch and by the slowest front end in flight — CPU-bound parse, plan and
// encode of a body capped at maxBodyBytes — and a batch nobody is joining
// flushes at once.
type Config struct {
	// MaxBatch caps how many coalesced queries feed one PredictInto call.
	// Values <= 1 disable coalescing: every query becomes its own batch and
	// the coalescer never holds.
	MaxBatch int
	// CacheSize is the number of canonicalised-SQL entries the prediction
	// cache retains; 0 disables caching. A ShardedEngine splits this budget
	// evenly across its shards, so each shard owns an independent cache
	// segment with its own mutex.
	CacheSize int
	// Replicas is the number of shards a ShardedEngine builds, each owning
	// its own model replica (a Clone of the served model), batcher goroutine
	// and cache segment. Values <= 1 select a single shard.
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
	// variant is answered from the entry, with no parse, plan, encode,
	// batcher or model, byte-identical to computing it. An engine whose
	// pipeline hashes predicate text (HashedPredicates) never stores an
	// answer: a hit there rebinds the cached skeleton with the query's
	// literals in place of lex and parse, then plans and encodes it. Entries
	// are about a skeleton's size, a few hundred bytes. Like the other
	// budgets, a ShardedEngine splits it evenly across shards, and a template
	// lives in the segment of the shard its key hashes to.
	TemplateCacheSize int
	// MaxEstWait is the bounded-latency admission target: a query whose
	// estimated wait (queue depth × EWMA service time) exceeds it on every
	// candidate shard is shed instead of enqueued. 0 (the default) = the
	// bound is infinite: never shed — the one dispatch policy then only
	// detours around a saturated home shard. The dispatcher's admit is its
	// one reader, whatever the shard count.
	MaxEstWait time.Duration
}

// DefaultConfig mirrors the prestroidd defaults.
func DefaultConfig() Config {
	return Config{MaxBatch: 32, CacheSize: 4096, Replicas: DefaultReplicas(),
		SubtreeCacheSize: 4096, TemplateCacheSize: 4096}
}

// predictJob is one in-flight query travelling from an HTTP handler
// goroutine to the batcher and back.
type predictJob struct {
	// ctx carries the request deadline into the queue (context.Background()
	// for a job that cannot expire). A flush drops jobs whose ctx has ended
	// before the model sees them.
	ctx   context.Context
	trace *workload.Trace
	key   string // canonical SQL, for single-flight dedup in flush
	// enc is the trace's feature encoding, built by the handler's frontEnd
	// through this engine's own pipeline, so whoever runs the model adopts it
	// unconditionally.
	enc  any
	done chan float64 // buffered; receives the normalised prediction
	// err, when set before done is sent, fails the job instead: its flush
	// panicked (see flush).
	err error
}

// Engine is the batched, concurrent inference front end around a Predictor,
// and every stage of its miss path has one owner. The handler goroutine owns
// parse → plan → encode (frontEnd: a rebind of the template's skeleton or a
// full parse, then the plan, then the model's off-lock encode, at most
// once). The batcher goroutine owns the model (flush: one adopt → predict →
// evict round trip per coalesced group of at most MaxBatch, held open only
// while enRoute says more work is on its way) — replacing the old
// predict-one-query-under-a-global-mutex path. The key's home shard owns the
// finished prediction: an LRU keyed by canonicalised SQL, read once before
// any of this and written once after it.
//
// An Engine is immutable: the predictor (model replica, pipeline,
// normaliser), the generation and the three cache segments are fixed when
// newEngineAt returns (its shards, by newShardedEngineAt before the engine
// serves), and the only field written afterwards is closed. New
// weights never reach a running engine — a roll builds a successor (see
// ModelEntry) — so everything an engine computes, caches or answers belongs
// to the one identity it was built with, and pred.mu has a single job:
// models are not safe for concurrent use.
type Engine struct {
	pred  *Predictor
	model servedModel // pred.Model, checked against the contract once
	cfg   Config
	gen   int64 // generation of the identity this engine serves

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

	jobs chan *predictJob
	quit chan struct{}
	wg   sync.WaitGroup

	// enRoute counts the handlers inside miss's frontEnd: work that will reach
	// jobs shortly, and the only thing collect holds a short batch open for.
	// wake (one slot) tells a holding collect to look again when a handler left
	// the front end without a job — an error, or a panic on its way up.
	enRoute atomic.Int64
	wake    chan struct{}

	mu     sync.RWMutex // guards closed against late submits
	closed bool

	// tel is the shard's counter group: batch and cache counters land here
	// as atomic adds, and Snapshot folds them with the sampled gauges. The
	// group is lent, not owned: a serving identity hands each shard's group
	// from the engine a roll retires to its successor, so counters and the
	// admission EWMA carry across rolls.
	tel *telemetry.ShardGroup
}

// newEngineAt starts the batcher goroutine over pred, whose model is m and
// which the engine owns from here on, at an explicit generation and counter
// group: the successor a roll builds is born at its predecessor's generation
// + 1 and, when it replaces the predecessor outright, counts into the same
// group. A nil tel starts a fresh one. Callers must Close the engine to
// release it.
func newEngineAt(pred *Predictor, m servedModel, cfg Config, gen int64, tel *telemetry.ShardGroup) *Engine {
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 1
	}
	if tel == nil {
		tel = telemetry.NewShardGroup()
	}
	e := &Engine{
		pred:    pred,
		model:   m,
		cfg:     cfg,
		gen:     gen,
		answers: pred.Pipe != nil && !pred.Pipe.Enc.HashedPredicates,
		jobs:    make(chan *predictJob, 4*cfg.MaxBatch),
		quit:    make(chan struct{}),
		wake:    make(chan struct{}, 1),
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
	e.wg.Add(1)
	go e.run()
	return e
}

// Close flushes queued work and stops the batcher: once closed is set no
// submit can enqueue, and the batcher drains whatever was already queued
// before it exits. Queries arriving after Close — stragglers that picked the
// engine up just before a roll retired it — fall back to the serialised
// predict path on the same replica, so Close never strands a request and a
// retired engine keeps answering under its own generation.
func (e *Engine) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	e.mu.Unlock()
	close(e.quit)
	e.wg.Wait()
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
// a cache. The query is encoded at most once here and never again by the
// batcher or the serialised fallback.
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
// batcher or the model.
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
// answer: deadline check, frontEnd on this goroutine, submit to the batcher,
// and the template deposit — the answer, on an engine that answers templates.
// The answer belongs to this engine's generation, whichever path produced it.
//
// The handler is counted en route for exactly the span of its frontEnd
// (arrive), and the count is lowered before the job is offered to the queue,
// never after: between the two steps the collector can then only under-count —
// flush a batch this job would have joined — whereas lowering after the offer
// would let it take the job and still hold the batch open for it.
//
// Work whose deadline has already passed is dropped before planning (and so
// before any batcher), and a deadline that expires while the job is queued
// abandons the wait without occupying a model slot. Both drops count once on
// this shard's Expired counter and surface as ExpiredError.
func (e *Engine) miss(ctx context.Context, sql, key string, t tmplLookup) (Prediction, error) {
	if ctx.Err() != nil {
		e.tel.Expired.Inc()
		return Prediction{}, &ExpiredError{}
	}
	fe, err := e.arrive(sql, t)
	if err != nil {
		return Prediction{}, fmt.Errorf("parse: %w", err)
	}
	y, err := e.submit(ctx, fe.trace, key, fe.enc)
	if err != nil {
		return Prediction{}, err
	}
	p := e.pred.prediction(shapeOf(fe.trace.Plan), y)
	deposit(fe, p, e.answers)
	return p, nil
}

// arrive is a prediction's frontEnd, counted en route while it runs. An
// engine that answers templates had its caller look the template up before
// admission; any other looks it up here, as part of the front end. Nothing
// but the count ends a hold, so the count must come down however the front
// end leaves — hence the defer: a panic (net/http recovers it and the process
// lives on) would otherwise leave the shard holding every short batch for
// ever. An exit with no job to offer, error or panic, also wakes the collector,
// after the count is lowered, so its re-check sees this handler gone.
func (e *Engine) arrive(sql string, t tmplLookup) (fe prepared, err error) {
	e.enRoute.Add(1)
	defer func() {
		e.enRoute.Add(-1)
		if fe.trace == nil {
			select {
			case e.wake <- struct{}{}:
			default:
			}
		}
	}()
	if !e.answers {
		t = e.lookupTemplate(sql)
	}
	return e.frontEnd(sql, t, true)
}

// submit hands an encoded trace to the batcher, which owns the model, and
// blocks for its prediction. The job carries ctx into the queue, and the wait
// is abandoned the moment the deadline passes — the flush that eventually
// drains the job sees its dead context and drops it before the model runs, so
// an expired request never occupies a model slot. A result that is already
// delivered when the deadline fires is still returned rather than wasted.
// When the queue is saturated or the engine is closed, submit degrades to the
// serialised single-query path (one model round trip under the predictor
// lock) instead of blocking or failing; that path adopts the same enc, so the
// overloaded shard does not encode the query again.
func (e *Engine) submit(ctx context.Context, tr *workload.Trace, key string, enc any) (float64, error) {
	e.mu.RLock()
	if !e.closed {
		job := &predictJob{ctx: ctx, trace: tr, key: key, enc: enc, done: make(chan float64, 1)}
		select {
		case e.jobs <- job:
			e.mu.RUnlock()
			select {
			case y := <-job.done:
				return y, job.err
			case <-ctx.Done():
				select {
				case y := <-job.done:
					return y, job.err
				default:
				}
				e.tel.Expired.Inc()
				return 0, &ExpiredError{}
			}
		default:
		}
	}
	e.mu.RUnlock()
	if ctx.Err() != nil {
		e.tel.Expired.Inc()
		return 0, &ExpiredError{}
	}
	return e.pred.predictTrace(e.model, tr, enc), nil
}

// saturated reports whether a non-blocking submit would fall back to the
// serialised path; the sharded dispatcher routes around a saturated home
// shard instead.
func (e *Engine) saturated() bool { return len(e.jobs) == cap(e.jobs) }

// run is the batcher loop: one goroutine owns every model call.
func (e *Engine) run() {
	defer e.wg.Done()
	for {
		select {
		case j := <-e.jobs:
			e.flush(e.collect(j))
		case <-e.quit:
			for {
				select {
				case j := <-e.jobs:
					e.flush(e.collect(j))
				default:
					return
				}
			}
		}
	}
}

// collect coalesces queued jobs behind first, up to MaxBatch. It first
// drains whatever is already queued without blocking; a batch still short is
// then held open only for work known to be on its way — room left, and a job
// queued or a handler about to queue one: while the queue is empty and no
// handler is en route there is nobody to wait for, and the batch flushes, at
// once for a lone request. The condition is re-checked on every job received
// and on every wake (a stale wake token therefore changes nothing). No clock
// bounds a hold: it ends when the batch fills, when the handlers it counts
// leave their front ends — each lowers the count on every exit, see arrive —
// or on Close, whose stragglers answer through submit's fallback and send no
// wake. Once quit is closed a hold cannot park, so run's drain collects the
// same way.
func (e *Engine) collect(first *predictJob) []*predictJob {
	batch := append(make([]*predictJob, 0, e.cfg.MaxBatch), first)
	// The batcher is the queue's only reader, so a non-empty queue never
	// blocks the receive.
	for len(batch) < e.cfg.MaxBatch && len(e.jobs) > 0 {
		batch = append(batch, <-e.jobs)
	}
	for len(batch) < e.cfg.MaxBatch && (len(e.jobs) > 0 || e.enRoute.Load() > 0) {
		select {
		case j := <-e.jobs:
			batch = append(batch, j)
		case <-e.wake:
		case <-e.quit:
			return batch
		}
	}
	return batch
}

// flush retires one coalesced batch: drop expired jobs, single-flight the
// rest, one serialised adopt → predict → evict round trip on the model, wake
// every waiting handler. There is no encode stage — each job arrives with the
// encoding its handler built. Concurrent misses of the same query — all in
// flight before the first result could reach the cache — are single-flighted:
// the model sees one row per distinct canonical key and every duplicate job
// shares its answer.
//
// A panic under flush — in the model, say — would end the batcher goroutine
// and the process with it, every model the daemon serves included. flush
// recovers it instead: every job of the batch fails with errPanicked, the
// shard counts it in Panics, and the batcher goes on to the next batch. No
// job has its answer yet when a panic can happen: the answers are sent last,
// and a send to a job's buffered done channel, which only its flush sends on,
// cannot panic.
func (e *Engine) flush(batch []*predictJob) {
	start := time.Now()
	defer func() {
		if r := recover(); r != nil {
			e.tel.Panics.Inc()
			err := fmt.Errorf("%w in flush: %v", errPanicked, r)
			for _, j := range batch {
				j.err = err
				j.done <- 0
			}
		}
	}()
	// Deadline-expired jobs are dropped here, before the single-flight dedup
	// and before the model sees a row: an expired job must neither occupy a
	// model slot nor stand in as the representative for live duplicates of
	// its key. The waiting handler has already unblocked (and counted the
	// expiry) through its context, so the skip itself is accounting-free.
	live := batch[:0]
	for _, j := range batch {
		if j.ctx.Err() == nil {
			live = append(live, j)
		}
	}
	if len(live) == 0 {
		return
	}
	batch = live
	traces := make([]*workload.Trace, 0, len(batch))
	encs := make([]any, 0, len(batch))
	rows := make([]int, len(batch))
	rowOf := make(map[string]int, len(batch))
	for i, j := range batch {
		r, ok := rowOf[j.key]
		if !ok {
			r = len(traces)
			rowOf[j.key] = r
			traces = append(traces, j.trace)
			encs = append(encs, j.enc)
		}
		rows[i] = r
	}
	// The outputs land in a batcher-owned slice: no model-owned tensor
	// escapes the lock, and the next flush may reuse the model's buffers.
	ys := make([]float64, len(traces))
	e.pred.predictInto(e.model, traces, encs, ys)

	e.tel.Batches.Inc()
	e.tel.Coalesced.Add(int64(len(batch)))
	e.tel.BatchSizes.Observe(int64(len(traces)))
	// Per-query drain time: the whole flush divided by the jobs it retired.
	// Duplicates count — they drain queue slots in the same flush — so the
	// EWMA reflects the real rate at which queued work clears, which is
	// exactly what queue-depth × service-time admission estimates need.
	e.tel.ServiceTime.Observe(float64(time.Since(start).Nanoseconds()) / 1e3 / float64(len(batch)))
	for i, j := range batch {
		j.done <- ys[rows[i]]
	}
}

// estWaitMicros is the shard's live admission signal: the estimated queue
// wait for a job enqueued now. 0 means the shard has no service-time
// evidence yet (or an empty queue) and admits freely.
func (e *Engine) estWaitMicros() float64 { return e.tel.EstWaitMicros(len(e.jobs)) }

// Snapshot returns the shard's telemetry snapshot: the group's atomic
// counters plus the gauges sampled here (queue depth, cache entries,
// generation). The shard index is 0; a ShardedEngine overwrites it with the
// dispatcher's numbering.
func (e *Engine) Snapshot() telemetry.ShardSnapshot {
	entries, _ := e.cache.Stats()
	subEntries, subBytes := e.convCache.Stats()
	tmplEntries, tmplBytes := e.tmplCache.Stats()
	return e.tel.Snapshot(telemetry.ShardGauges{
		Queued:          len(e.jobs),
		CacheEntries:    entries,
		SubtreeEntries:  subEntries,
		SubtreeBytes:    subBytes,
		TemplateEntries: tmplEntries,
		TemplateBytes:   tmplBytes,
		Generation:      e.gen,
	})
}
