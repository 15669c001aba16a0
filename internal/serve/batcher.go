package serve

import (
	"context"
	"fmt"
	"os"
	"sync"
	"time"

	"prestroid/internal/logicalplan"
	"prestroid/internal/models"
	"prestroid/internal/sqlparse"
	"prestroid/internal/telemetry"
	"prestroid/internal/workload"
)

// Config tunes the batched inference engine.
type Config struct {
	// MaxBatch caps how many coalesced queries feed one Model.Predict call.
	// Values <= 1 disable coalescing: every query becomes its own batch.
	MaxBatch int
	// MaxWait bounds how long the coalescer holds an open batch waiting for
	// it to fill before flushing what it has. 0 flushes immediately after a
	// non-blocking drain of the queue.
	MaxWait time.Duration
	// CacheSize is the number of canonicalised-SQL entries the prediction
	// cache retains; 0 disables caching. A ShardedEngine splits this budget
	// evenly across its shards, so each shard owns an independent cache
	// segment with its own mutex.
	CacheSize int
	// Replicas is the number of shards a ShardedEngine builds, each owning
	// its own model replica, batcher goroutine and cache segment. Values
	// <= 1 select a single shard. Sharding beyond one replica requires the
	// model to implement models.Cloner; otherwise the engine stays
	// single-shard.
	Replicas int
	// SubtreeCacheSize is the total number of pooled tree-convolution
	// outputs retained across the engine, keyed by sub-tree content hash; 0
	// disables the cache. Like CacheSize, a ShardedEngine splits the budget
	// evenly so each shard's replica owns an independent segment with its own
	// mutex. It only takes effect when the model consults a conv cache
	// (models implementing SetConvCache).
	SubtreeCacheSize int
	// TemplateCacheSize is the total number of prepared-template entries the
	// front-end cache retains, keyed by the query's literal-stripped template;
	// 0 disables it. A hit replaces the lex/parse/plan/featurize pipeline with
	// a literal rebind over the cached skeleton and encoding, producing
	// byte-identical predictions. Like the other budgets, a ShardedEngine
	// splits it evenly across shards.
	TemplateCacheSize int
	// MaxEstWait is the bounded-latency admission target: a query whose
	// estimated wait (queue depth × EWMA service time) exceeds it on every
	// candidate shard is shed instead of enqueued. 0 (the default) disables
	// shedding entirely — dispatch then takes the exact pre-admission path,
	// byte for byte. Only the sharded dispatcher consults it; a bare Engine
	// never sheds.
	MaxEstWait time.Duration
	// Quantize routes inference through the model's int8 kernels when the
	// model supports them (models.Quantizer). Predictions then carry a
	// bounded quantisation error instead of being byte-identical to the
	// float path; the worst error observed is exported per shard. The mode
	// is fixed for the identity's lifetime: every engine a reload or
	// promotion builds is quantised from the same Config. The
	// PRESTROID_QUANTIZE environment variable (any non-empty value but "0")
	// forces it on regardless of this field, so a test suite or CI job can
	// flip a whole deployment's kernel mode without touching call sites.
	Quantize bool
}

// envQuantize is the process-wide kernel-mode override, read once at start.
var envQuantize = func() bool {
	v := os.Getenv("PRESTROID_QUANTIZE")
	return v != "" && v != "0"
}()

// DefaultConfig mirrors the prestroidd defaults.
func DefaultConfig() Config {
	return Config{MaxBatch: 32, MaxWait: 500 * time.Microsecond, CacheSize: 4096,
		Replicas: DefaultReplicas(), SubtreeCacheSize: 4096, TemplateCacheSize: 4096}
}

// concurrentEncoder is the optional model interface that splits Prepare into
// a pure per-trace encode (safe on many goroutines) and a cache install that
// must run on the model-owning goroutine. Prestroid implements it.
type concurrentEncoder interface {
	EncodeTrace(tr *workload.Trace) any
	AdoptEncoding(tr *workload.Trace, enc any)
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
	// enc carries the trace's feature encoding when something computed it
	// ahead of the model call: the template front end submits it pre-filled
	// from its cached featurization, or the flush's concurrent encode stage
	// fills it. Either way it was produced by this engine's own pipeline, so
	// the flush adopts it unconditionally; a job without one is encoded by
	// Prepare from the trace's plan, byte-identically.
	enc  any
	done chan float64 // buffered; receives the normalised prediction
}

// Engine is the batched, concurrent inference front end around a Predictor.
// Handler goroutines parse and plan SQL concurrently, then hand their traces
// to a single batcher goroutine that coalesces everything in flight
// (bounded by MaxBatch/MaxWait), fans the feature encoding out across
// goroutines, and issues one Model.Predict per coalesced group — replacing
// the old predict-one-query-under-a-global-mutex path. An LRU keyed by
// canonicalised SQL short-circuits repeated templates entirely.
//
// An Engine is immutable: the predictor (model replica, pipeline,
// normaliser), the generation, the three cache segments and the kernel mode
// are fixed when newEngineAt returns, and the only field written afterwards
// is closed. New weights never reach a running engine — a roll builds a
// successor (see ModelEntry) — so everything an engine computes, caches or
// answers belongs to the one identity it was built with, and pred.mu has a
// single job: models are not safe for concurrent use.
type Engine struct {
	pred *Predictor
	cfg  Config
	gen  int64 // generation of the identity this engine serves

	// The shard's cache segments, each nil when disabled: finished
	// predictions, the sub-tree partial results installed into the replica
	// (nil too when the model takes no conv cache), and the prepared-template
	// front end. All three are born empty with the engine and die with it.
	cache     *predictionCache
	convCache *subtreeCache
	tmplCache *templateCache

	jobs chan *predictJob
	quit chan struct{}
	wg   sync.WaitGroup

	mu     sync.RWMutex // guards closed against late submits
	closed bool

	// tel is the shard's counter group: batch and cache counters land here
	// as atomic adds, and Snapshot folds them with the sampled gauges. The
	// group is lent, not owned: a serving identity hands each shard's group
	// from the engine a roll retires to its successor, so counters and the
	// admission EWMA carry across rolls.
	tel *telemetry.ShardGroup

	// quantized records whether this shard serves through the int8 kernels:
	// decided at construction (config or PRESTROID_QUANTIZE, and only if the
	// model supports quantisation).
	quantized bool
}

// maxGaugeSink adapts the shard's quantisation-error MaxGauge onto the
// models.QuantErrorSink interface. MaxGauge is lock-free, satisfying the
// sink's concurrency contract.
type maxGaugeSink struct{ g *telemetry.MaxGauge }

func (s maxGaugeSink) ObserveQuantError(e float64) { s.g.Observe(e) }

// NewEngine starts the batcher goroutine over pred, which the engine owns
// from here on. Callers must Close the engine to release it.
func NewEngine(pred *Predictor, cfg Config) *Engine {
	return newEngineAt(pred, cfg, initialGeneration, nil)
}

// newEngineAt is NewEngine with an explicit generation and counter group:
// the successor a roll builds is born at its predecessor's generation + 1
// and, when it replaces the predecessor outright, counts into the same
// group. A nil tel starts a fresh one.
func newEngineAt(pred *Predictor, cfg Config, gen int64, tel *telemetry.ShardGroup) *Engine {
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 1
	}
	if cfg.MaxWait < 0 {
		cfg.MaxWait = 0
	}
	if tel == nil {
		tel = telemetry.NewShardGroup()
	}
	e := &Engine{
		pred: pred,
		cfg:  cfg,
		gen:  gen,
		jobs: make(chan *predictJob, 4*cfg.MaxBatch),
		quit: make(chan struct{}),
		tel:  tel,
	}
	if cfg.CacheSize > 0 {
		e.cache = newPredictionCache(cfg.CacheSize, &tel.CacheHits, &tel.CacheMisses)
	}
	if cfg.SubtreeCacheSize > 0 {
		if cs, ok := pred.Model.(convCacheSetter); ok {
			e.convCache = newSubtreeCache(cfg.SubtreeCacheSize, &tel.SubtreeHits, &tel.SubtreeMisses)
			cs.SetConvCache(e.convCache)
		}
	}
	if cfg.TemplateCacheSize > 0 {
		// No model probe: skeleton-only entries already skip lex/parse/plan,
		// so the cache pays off even for models without rebindable encodings.
		e.tmplCache = newTemplateCache(cfg.TemplateCacheSize, &tel.TemplateHits, &tel.TemplateMisses)
	}
	if cfg.Quantize || envQuantize {
		if q, ok := pred.Model.(models.Quantizer); ok {
			q.SetQuantErrorSink(maxGaugeSink{g: &tel.QuantErr})
			q.SetQuantized(true)
			e.quantized = true
		}
	}
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

// PredictSQL parses, plans, encodes and costs one query through the cache
// and the coalescer. Identical SQL always yields byte-identical predictions:
// cache hits replay the stored result, and per-row model outputs are
// independent of batch composition.
func (e *Engine) PredictSQL(sql string) (Prediction, error) {
	return e.predictKey(context.Background(), sql, CanonicalSQL(sql))
}

// frontEnd is the result of resolving one query through the prepared-template
// cache: the logical plan (always exact — on a hit it is planned from the
// rebound statement, carrying the request's own literals), the pre-rebound
// feature encoding when the cached entry had one, and the deposit the caller
// should make on a miss.
type frontEnd struct {
	plan *logicalplan.Node
	enc  any                  // pre-rebound trees; nil when unavailable
	tkey string               // template key to deposit under; "" = no deposit
	stmt *sqlparse.SelectStmt // parsed skeleton to deposit
}

// resolveSQL turns sql into a logical plan through the template cache. On a
// hit it skips lexing and parsing entirely: the cached skeleton is rebound
// with the query's literal vector (extracted in the same single lexer pass
// that produced the key) and replanned, so every downstream consumer — the
// batcher, the serialised fallback — sees a plan
// byte-identical to what the full parse would have built. Errors are
// byte-identical to the uncached path's: extraction failures and rebind
// mismatches (impossible for a genuine template match, but handled
// defensively) fall through to the full parse, which reproduces the exact
// error the caller would have seen without a cache.
func (e *Engine) resolveSQL(sql string) (frontEnd, error) {
	if e.tmplCache == nil {
		plan, err := logicalplan.PlanSQL(sql)
		return frontEnd{plan: plan}, err
	}
	tkey, lits, ok := sqlparse.ExtractTemplate(sql)
	if !ok {
		plan, err := logicalplan.PlanSQL(sql)
		return frontEnd{plan: plan}, err
	}
	if ent, ok := e.tmplCache.Get(tkey); ok {
		if stmt, err := ent.stmt.Rebind(lits); err == nil {
			if plan, err := logicalplan.Plan(stmt); err == nil {
				fe := frontEnd{plan: plan}
				if ent.enc != nil {
					if trees, ok := ent.enc.Rebind(plan); ok {
						fe.enc = trees
					}
				} else {
					// Skeleton-only entry (explain-warmed): keep the deposit
					// fields so a prediction taking this hit enriches it with a
					// rebindable featurization — Put upgrades in place.
					fe.tkey, fe.stmt = tkey, ent.stmt
				}
				return fe, nil
			}
		}
	}
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return frontEnd{}, err
	}
	plan, err := logicalplan.Plan(stmt)
	if err != nil {
		return frontEnd{}, err
	}
	return frontEnd{plan: plan, tkey: tkey, stmt: stmt}, nil
}

// depositTemplate lands a miss's skeleton — and, when the model supports
// rebindable encodings, its featurization of the plan — in the template
// cache. It runs on the handler goroutine after the prediction returned: the
// featurization is the one-time cost that turns every later sight of the
// template into a rebind. No lock is needed: BuildTemplateEncoding reads only
// the pipeline's immutable tables.
func (e *Engine) depositTemplate(fe frontEnd) {
	if fe.tkey == "" {
		return
	}
	var te *models.TemplateEncoding
	if tm, ok := e.pred.Model.(templateEncoder); ok {
		te = tm.BuildTemplateEncoding(fe.plan)
	}
	e.tmplCache.Put(fe.tkey, &templateEntry{stmt: fe.stmt, enc: te})
}

// PlanOnly resolves sql to its logical plan through the same template front
// end as prediction — a hit skips lex and parse — depositing skeleton-only
// entries on a miss so explain traffic warms the cache for predictions (and
// vice versa). This is the explain path's entry point; it never touches the
// batcher or the model.
func (e *Engine) PlanOnly(sql string) (*logicalplan.Node, error) {
	fe, err := e.resolveSQL(sql)
	if err != nil {
		return nil, err
	}
	if fe.tkey != "" {
		e.tmplCache.Put(fe.tkey, &templateEntry{stmt: fe.stmt})
	}
	return fe.plan, nil
}

// predictKey is PredictSQL with the canonical key already computed — the
// sharded dispatcher hashes the key to pick a shard, then hands it down so
// canonicalisation runs exactly once per request — and a request deadline
// (context.Background() when there is none). The answer belongs to this
// engine's generation, whichever path produced it.
//
// Cache hits are served regardless of the deadline — they cost nothing and
// never touch a batcher. On a miss, work whose deadline has already passed
// is dropped before planning (and so before any batcher), and a deadline
// that expires while the job is queued abandons the wait without occupying a
// model slot. Both drops count once on this shard's Expired counter and
// surface as ExpiredError.
func (e *Engine) predictKey(ctx context.Context, sql, key string) (Prediction, error) {
	if p, ok := e.cache.Get(key); ok {
		return p, nil
	}
	if ctx.Err() != nil {
		e.tel.Expired.Inc()
		return Prediction{}, &ExpiredError{}
	}
	fe, err := e.resolveSQL(sql)
	if err != nil {
		return Prediction{}, fmt.Errorf("parse: %w", err)
	}
	tr := &workload.Trace{SQL: sql, Plan: fe.plan, Template: -1}
	y, err := e.submit(ctx, tr, key, fe.enc)
	if err != nil {
		return Prediction{}, err
	}
	p := e.pred.prediction(fe.plan, y)
	e.cache.Put(key, p)
	e.depositTemplate(fe)
	return p, nil
}

// submit enqueues a planned trace and blocks for its prediction. The job
// carries ctx into the queue, and the wait is abandoned the moment the
// deadline passes — the flush that eventually drains the job sees its dead
// context and drops it before the model runs, so an expired request never
// occupies a model slot. A result that is already delivered when the
// deadline fires is still returned rather than wasted. When the queue is
// saturated or the engine is closed, submit degrades to the serialised
// single-query path (one model round trip under the predictor lock) instead
// of blocking or failing. enc carries a template-cache featurization into the
// job; the serialised fallback ignores it and re-encodes from the plan,
// byte-identically.
func (e *Engine) submit(ctx context.Context, tr *workload.Trace, key string, enc any) (float64, error) {
	e.mu.RLock()
	if !e.closed {
		job := &predictJob{ctx: ctx, trace: tr, key: key, enc: enc, done: make(chan float64, 1)}
		select {
		case e.jobs <- job:
			e.mu.RUnlock()
			select {
			case y := <-job.done:
				return y, nil
			case <-ctx.Done():
				select {
				case y := <-job.done:
					return y, nil
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
	return e.pred.predictTrace(tr), nil
}

// queued reports how many jobs are waiting in the engine's queue; the
// sharded dispatcher uses it to find the least-loaded shard.
func (e *Engine) queued() int { return len(e.jobs) }

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
			e.flush(e.collect(j, true))
		case <-e.quit:
			for {
				select {
				case j := <-e.jobs:
					e.flush(e.collect(j, false))
				default:
					return
				}
			}
		}
	}
}

// collect coalesces queued jobs behind first, up to MaxBatch. It first
// drains whatever is already queued without blocking; if the batch is still
// short and wait is set, it holds the batch open for at most MaxWait.
func (e *Engine) collect(first *predictJob, wait bool) []*predictJob {
	batch := append(make([]*predictJob, 0, e.cfg.MaxBatch), first)
	for len(batch) < e.cfg.MaxBatch {
		select {
		case j := <-e.jobs:
			batch = append(batch, j)
			continue
		default:
		}
		break
	}
	if !wait || len(batch) >= e.cfg.MaxBatch || e.cfg.MaxWait <= 0 {
		return batch
	}
	timer := time.NewTimer(e.cfg.MaxWait)
	defer timer.Stop()
	for len(batch) < e.cfg.MaxBatch {
		select {
		case j := <-e.jobs:
			batch = append(batch, j)
		case <-timer.C:
			return batch
		}
	}
	return batch
}

// flush encodes a coalesced batch concurrently, runs one serialised
// Prepare/Predict/Evict round trip, and wakes every waiting handler.
// Concurrent misses of the same template — all in flight before the first
// result could reach the cache — are single-flighted: the model sees one
// row per distinct canonical key and every duplicate job shares its answer.
func (e *Engine) flush(batch []*predictJob) {
	start := time.Now()
	// Deadline-expired jobs are dropped here, before the single-flight dedup
	// and before the model sees a row: an expired job must neither occupy a
	// model slot nor stand in as the representative for live duplicates of
	// its key. The waiting handler has already unblocked (and counted the
	// expiry) through its context, so the skip itself is accounting-free.
	live := batch
	for _, j := range batch {
		if j.ctx.Err() != nil {
			live = batch[:0]
			for _, k := range batch {
				if k.ctx.Err() == nil {
					live = append(live, k)
				}
			}
			break
		}
	}
	if len(live) == 0 {
		return
	}
	batch = live
	uniq := make([]*predictJob, 0, len(batch))
	rows := make([]int, len(batch))
	rowOf := make(map[string]int, len(batch))
	for i, j := range batch {
		if r, ok := rowOf[j.key]; ok {
			rows[i] = r
			continue
		}
		rowOf[j.key] = len(uniq)
		rows[i] = len(uniq)
		uniq = append(uniq, j)
	}
	traces := make([]*workload.Trace, len(uniq))
	for i, j := range uniq {
		traces[i] = j.trace
	}
	// The encode fan-out is pure and runs outside the lock. Jobs that arrived
	// with a template-cache featurization (enc already set) skip it.
	m := e.pred.Model
	ce, canEncode := m.(concurrentEncoder)
	var fanned []*predictJob
	if canEncode {
		for _, j := range uniq {
			if j.enc == nil {
				fanned = append(fanned, j)
			}
		}
	}
	// A lone un-encoded job gains nothing from a goroutine hop; Prepare
	// handles it under the lock, as the pre-template-cache engine did.
	if len(fanned) > 1 {
		var wg sync.WaitGroup
		for _, j := range fanned {
			wg.Add(1)
			go func(j *predictJob) {
				defer wg.Done()
				j.enc = ce.EncodeTrace(j.trace)
			}(j)
		}
		wg.Wait()
	}
	e.pred.mu.Lock()
	// Every pre-computed encoding came from this engine's own pipeline —
	// fanned out above or rebound from its template segment — so all are
	// adopted; Prepare encodes whatever is left from the job's exact plan.
	if canEncode {
		for _, j := range uniq {
			if j.enc != nil {
				ce.AdoptEncoding(j.trace, j.enc)
			}
		}
	}
	m.Prepare(traces)
	// The outputs land in a batcher-owned slice either way: PredictInto
	// writes them there directly (no model-owned tensor escapes the lock,
	// and a warmed-up arena-backed model allocates nothing), and the legacy
	// path copies before the unlock for the same reason — the next flush may
	// reuse the model's output buffer.
	ys := make([]float64, len(traces))
	if ip, ok := m.(models.IntoPredictor); ok {
		ip.PredictInto(traces, ys)
	} else {
		copy(ys, m.Predict(traces).Data)
	}
	if ev, ok := m.(evicter); ok {
		ev.Evict(traces)
	}
	e.pred.mu.Unlock()

	e.tel.Batches.Inc()
	e.tel.Coalesced.Add(int64(len(batch)))
	e.tel.BatchSizes.Observe(int64(len(uniq)))
	// Per-query drain time: the whole flush (encode fan-out + model call)
	// divided by the jobs it retired. Duplicates count — they drain queue
	// slots in the same flush — so the EWMA reflects the real rate at which
	// queued work clears, which is exactly what queue-depth × service-time
	// admission estimates need.
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
		Quantized:       e.quantized,
	})
}

// kernelName renders a quantisation flag as the kernel-mode label shared by
// the stats JSON, the Prometheus exposition and predict responses.
func kernelName(quantized bool) string {
	if quantized {
		return "int8"
	}
	return "float"
}

// Kernel reports the serving kernel mode ("float" or "int8").
func (e *Engine) Kernel() string { return kernelName(e.quantized) }
