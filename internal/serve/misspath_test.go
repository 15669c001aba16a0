package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"testing"

	"prestroid/internal/models"
	"prestroid/internal/workload"
)

// countingModel is a real Prestroid that counts how many times a plan is
// recast, sampled and flattened on its behalf, whoever asks: the off-lock
// encode counts itself, and a trace that reaches the model without an adopted
// encoding counts the encode Prepare is about to run for it.
type countingModel struct {
	*models.Prestroid
	encodes atomic.Int64
	adopted map[*workload.Trace]bool // model-goroutine state, like the model's own cache
}

func (c *countingModel) EncodeTrace(tr *workload.Trace) any {
	c.encodes.Add(1)
	return c.Prestroid.EncodeTrace(tr)
}

func (c *countingModel) AdoptEncoding(tr *workload.Trace, enc any) {
	c.adopted[tr] = true
	c.Prestroid.AdoptEncoding(tr, enc)
}

func (c *countingModel) countUnadopted(traces []*workload.Trace) {
	for _, tr := range traces {
		if !c.adopted[tr] {
			c.adopted[tr] = true
			c.encodes.Add(1)
		}
	}
}

func (c *countingModel) Prepare(traces []*workload.Trace) {
	c.countUnadopted(traces)
	c.Prestroid.Prepare(traces)
}

func (c *countingModel) PredictInto(traces []*workload.Trace, dst []float64) {
	c.countUnadopted(traces)
	c.Prestroid.PredictInto(traces, dst)
}

func (c *countingModel) Evict(traces []*workload.Trace) {
	for _, tr := range traces {
		delete(c.adopted, tr)
	}
	c.Prestroid.Evict(traces)
}

func newCountingPredictor(t *testing.T) (*Predictor, *countingModel) {
	t.Helper()
	base := newTestPredictor(t)
	m := &countingModel{Prestroid: base.Model.(*models.Prestroid), adopted: map[*workload.Trace]bool{}}
	return &Predictor{Model: m, Pipe: base.Pipe, Norm: base.Norm}, m
}

// unstartedEngine is an engine without a batcher goroutine, so its queue
// holds whatever a test puts there: with queued == queueCap it is saturated
// and every submit takes the serialised fallback.
func unstartedEngine(pred *Predictor, cfg Config, queueCap, queued int, serviceMicros float64) *Engine {
	e := waitEngine(queueCap, queued, serviceMicros)
	e.pred, e.model, e.cfg, e.shards = pred, pred.mustServe(), cfg, []*Engine{e}
	e.answers = pred.Pipe != nil && !pred.Pipe.Enc.HashedPredicates
	if cfg.CacheSize > 0 {
		e.cache = newPredictionCache(cfg.CacheSize, &e.tel.CacheHits, &e.tel.CacheMisses)
	}
	if cfg.TemplateCacheSize > 0 {
		e.tmplCache = newTemplateCache(cfg.TemplateCacheSize, &e.tel.TemplateHits, &e.tel.TemplateMisses)
	}
	return e
}

// homeOf serves e alone, as a one-shard engine's home: one look at its
// prediction cache, the miss path, one deposit.
func homeOf(e *Engine) *ShardedEngine {
	return &ShardedEngine{shards: []*Engine{e}, gen: initialGeneration}
}

// TestMissPathEncodesOnce is the oracle for "one owner per stage": however a
// query travels the miss path, its plan is encoded at most once — by the
// handler's frontEnd — and never when a cache, the admission policy or the
// deadline answers instead. Every answer is bit-identical to the serialised
// reference.
func TestMissPathEncodesOnce(t *testing.T) {
	const (
		q1 = "SELECT a, b FROM t JOIN u ON t.id = u.id WHERE a > 5 AND b < 9 ORDER BY a LIMIT 3"
		q2 = "SELECT a, b FROM t JOIN u ON t.id = u.id WHERE a > 77 AND b < 2 ORDER BY a LIMIT 8"
		q3 = "SELECT a, b FROM t JOIN u ON t.id = u.id WHERE a > 40 AND b < 6 ORDER BY a LIMIT 1"
	)
	pred, m := newCountingPredictor(t)
	// check runs one request, compares it with the serialised reference (which
	// itself encodes once, under the lock — not counted against the engine)
	// and reports how often the engine's request encoded.
	check := func(t *testing.T, sql string, want int64, predict func(string) (Prediction, error)) {
		t.Helper()
		ref, err := pred.PredictSQL(sql)
		if err != nil {
			t.Fatal(err)
		}
		m.encodes.Store(0)
		got, err := predict(sql)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got.Normalized) != math.Float64bits(ref.Normalized) || got != ref {
			t.Fatalf("%q: engine %+v != serialised reference %+v", sql, got, ref)
		}
		if n := m.encodes.Load(); n != want {
			t.Fatalf("%q encoded %d times, want %d", sql, n, want)
		}
	}
	started := func(t *testing.T, cfg Config) *Engine {
		_, e := oneShard(t, pred, cfg)
		return e
	}

	// skeleton is what an explain of the template deposits.
	explained := started(t, tmplCfg())
	if _, err := explained.PlanOnly(q1); err != nil {
		t.Fatal(err)
	}
	skeleton := explained.Snapshot().TemplateBytes
	// sights walks one template's three literal variants through predict: the
	// first sight encodes and leaves an entry the size of what an explain
	// would, the skeleton, now holding the answer; from the second on the
	// entry's answer serves and the entry stays that size.
	sights := func(t *testing.T, e *Engine) {
		t.Helper()
		check(t, q1, 1, homeOf(e).PredictSQL)
		if snap := e.Snapshot(); snap.TemplateMisses != 1 || snap.TemplateEntries != 1 || snap.TemplateBytes != skeleton {
			t.Fatalf("first sight left %d entries / %d bytes after %d misses, want 1 entry at the skeleton's %d bytes",
				snap.TemplateEntries, snap.TemplateBytes, snap.TemplateMisses, skeleton)
		}
		check(t, q2, 0, homeOf(e).PredictSQL)
		if snap := e.Snapshot(); snap.TemplateEntries != 1 || snap.TemplateBytes != skeleton {
			t.Fatalf("second sight left %d entries / %d bytes, want the one entry at its skeleton's %d",
				snap.TemplateEntries, snap.TemplateBytes, skeleton)
		}
		check(t, q3, 0, homeOf(e).PredictSQL)
		if hits := e.Snapshot().TemplateHits; hits != 2 {
			t.Fatalf("template hits = %d, want 2", hits)
		}
	}

	t.Run("template miss then encoded hit", func(t *testing.T) {
		sights(t, started(t, tmplCfg()))
	})
	t.Run("template cache off", func(t *testing.T) {
		cfg := tmplCfg()
		cfg.TemplateCacheSize = 0
		e := started(t, cfg)
		check(t, q1, 1, homeOf(e).PredictSQL)
		check(t, q2, 1, homeOf(e).PredictSQL)
	})
	t.Run("skeleton-only hit upgrades the entry", func(t *testing.T) {
		e := started(t, tmplCfg())
		if _, err := e.PlanOnly(q1); err != nil {
			t.Fatal(err)
		}
		skeleton := e.Snapshot().TemplateBytes
		check(t, q2, 1, homeOf(e).PredictSQL)
		snap := e.Snapshot()
		if snap.TemplateHits != 1 || snap.TemplateEntries != 1 || snap.TemplateBytes != skeleton {
			t.Fatalf("hits=%d entries=%d bytes %d -> %d, want one hit on one entry, still skeleton-sized",
				snap.TemplateHits, snap.TemplateEntries, skeleton, snap.TemplateBytes)
		}
		check(t, q1, 0, homeOf(e).PredictSQL)
		check(t, q3, 0, homeOf(e).PredictSQL)
	})
	t.Run("prediction cache hit", func(t *testing.T) {
		cfg := tmplCfg()
		cfg.CacheSize = 8
		e := started(t, cfg)
		check(t, q1, 1, homeOf(e).PredictSQL)
		check(t, q1, 0, homeOf(e).PredictSQL)
	})
	t.Run("saturated queue fallback", func(t *testing.T) {
		e := unstartedEngine(pred, tmplCfg(), 1, 1, 0)
		sights(t, e)
		if n := e.tel.Batches.Load(); n != 0 {
			t.Fatalf("a saturated, unstarted engine flushed %d batches", n)
		}
	})
	t.Run("closed engine fallback", func(t *testing.T) {
		se, e := oneShard(t, pred, tmplCfg())
		se.Close()
		sights(t, e)
	})
	t.Run("shed", func(t *testing.T) {
		sh := unstartedEngine(pred, tmplCfg(), 64, 20, 1000)
		se := &ShardedEngine{shards: []*Engine{sh}, maxEstWaitMicros: 10_000}
		m.encodes.Store(0)
		var over *OverloadError
		if _, _, err := se.PredictSQLGenCtx(context.Background(), q1); !errors.As(err, &over) {
			t.Fatalf("over-the-bound request returned %v, want *OverloadError", err)
		}
		if n := m.encodes.Load(); n != 0 {
			t.Fatalf("a shed request encoded %d times", n)
		}
	})
	t.Run("already expired", func(t *testing.T) {
		e := started(t, tmplCfg())
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		m.encodes.Store(0)
		var expired *ExpiredError
		if _, err := e.miss(ctx, q1, CanonicalSQL(q1), tmplLookup{}); !errors.As(err, &expired) {
			t.Fatalf("expired request returned %v, want *ExpiredError", err)
		}
		if n := m.encodes.Load(); n != 0 {
			t.Fatalf("an expired request encoded %d times", n)
		}
	})
}

// TestTemplateScanPinsNoTrees is the one-off regime as a unit test: a scan of
// N structurally distinct queries, each predicted once, leaves the template
// segment holding N skeletons — exactly what explaining the same N queries
// leaves — and none of the trees that were built to answer them.
func TestTemplateScanPinsNoTrees(t *testing.T) {
	pred := newTestPredictor(t)
	scanned, scannedShard := oneShard(t, pred, tmplCfg())
	_, explained := oneShard(t, pred, tmplCfg())
	const n = 64
	for i := 0; i < n; i++ {
		sql := fmt.Sprintf("SELECT a, c%d FROM t JOIN u ON t.id = u.id WHERE c%d > %d ORDER BY a LIMIT 3", i, i, i)
		want, err := pred.PredictSQL(sql)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := scanned.PredictSQL(sql); err != nil || got != want {
			t.Fatalf("%q: engine %+v, %v; want the serialised reference %+v", sql, got, err, want)
		}
		if _, err := explained.PlanOnly(sql); err != nil {
			t.Fatal(err)
		}
	}
	got, want := scannedShard.Snapshot(), explained.Snapshot()
	if got.TemplateEntries != n || got.TemplateMisses != n || got.TemplateHits != 0 {
		t.Fatalf("scan left %d entries after %d misses / %d hits, want %d/%d/0",
			got.TemplateEntries, got.TemplateMisses, got.TemplateHits, n, n)
	}
	if got.TemplateBytes != want.TemplateBytes {
		t.Fatalf("scan pins %d template bytes, want the %d skeletons' %d", got.TemplateBytes, n, want.TemplateBytes)
	}
}

// TestTemplateHashedStaysSkeletonOnly serves the one literal-sensitive
// pipeline mode through the template cache. Its trees differ between literal
// variants, so the model offers no template encoding: the entry stays the
// skeleton an explain (or the first prediction) deposited, every hit still
// skips lex and parse, and each query is encoded exactly once, from its own
// rebound plan — byte-identical to the serialised reference.
func TestTemplateHashedStaysSkeletonOnly(t *testing.T) {
	base := newTestPredictor(t)
	enc := *base.Pipe.Enc
	enc.HashedPredicates = true
	pipe := &models.Pipeline{W2V: base.Pipe.W2V, Enc: &enc}
	hashed := models.NewPrestroid(testModelConfig(), pipe)
	m := &countingModel{Prestroid: hashed, adopted: map[*workload.Trace]bool{}}
	pred := &Predictor{Model: m, Pipe: pipe, Norm: base.Norm}
	se, e := oneShard(t, pred, tmplCfg())

	variant := func(n int) string {
		return fmt.Sprintf("SELECT a FROM t WHERE a > %d AND b < %d", n, 1000-n)
	}
	if _, err := e.PlanOnly(variant(0)); err != nil {
		t.Fatal(err)
	}
	skeleton := e.Snapshot().TemplateBytes
	const n = 12
	seen := map[uint64]bool{}
	for i := 1; i <= n; i++ {
		want, err := pred.PredictSQL(variant(i))
		if err != nil {
			t.Fatal(err)
		}
		m.encodes.Store(0)
		got, err := se.PredictSQL(variant(i))
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("%q: engine %+v != serialised reference %+v", variant(i), got, want)
		}
		if c := m.encodes.Load(); c != 1 {
			t.Fatalf("%q encoded %d times, want 1", variant(i), c)
		}
		seen[math.Float64bits(got.Normalized)] = true
	}
	if len(seen) < 2 {
		t.Fatal("every literal variant predicted alike; the hashed pipeline is not literal-sensitive here")
	}
	snap := e.Snapshot()
	if snap.TemplateHits != n || snap.TemplateMisses != 1 {
		t.Fatalf("template hits/misses = %d/%d, want %d/1", snap.TemplateHits, snap.TemplateMisses, n)
	}
	if snap.TemplateEntries != 1 || snap.TemplateBytes != skeleton {
		t.Fatalf("entries=%d bytes %d -> %d: a hashed-predicate entry must stay its skeleton",
			snap.TemplateEntries, skeleton, snap.TemplateBytes)
	}
}

// TestDispatchSinglePolicy walks the one dispatch policy (admit) through its
// table on two-shard engines whose load is fully controlled: a started shard
// is idle, an unstarted one holds exactly the queue the row gives it (and, when
// that queue is full, answers through the serialised fallback). Whatever the
// row decides, the key is looked up once — at home — and a computed answer
// lands in the home segment only.
func TestDispatchSinglePolicy(t *testing.T) {
	type load struct {
		started          bool
		queueCap, queued int
		serviceMicros    float64
	}
	idle := load{started: true}
	full := load{queueCap: 1, queued: 1}                           // saturated, no evidence: estimates 0
	fullSlow := load{queueCap: 4, queued: 4, serviceMicros: 1e6}   // saturated, estimates 4 s
	deep := load{queueCap: 64, queued: 20, serviceMicros: 1000}    // 20 ms, room in the queue
	deeper := load{queueCap: 64, queued: 30, serviceMicros: 1000}  // 30 ms
	fullQuick := load{queueCap: 1, queued: 1, serviceMicros: 1000} // saturated, estimates 1 ms
	const bound = 10_000                                           // µs
	for _, row := range []struct {
		name       string
		home, peer load
		bound      float64
		want       string // "home", "peer" or "shed"
		minWait    float64
	}{
		{name: "home idle", home: idle, peer: idle, want: "home"},
		{name: "home saturated, idle peer", home: full, peer: idle, want: "peer"},
		{name: "every shard saturated", home: full, peer: full, want: "home"},
		{name: "unbounded never sheds at any load", home: fullSlow, peer: fullSlow, want: "home"},
		{name: "bounded, home idle", home: idle, peer: idle, bound: bound, want: "home"},
		{name: "bounded, home over the bound, idle peer", home: deep, peer: idle, bound: bound, want: "peer"},
		{name: "bounded, saturated home inside the bound, peer over it", home: fullQuick, peer: deep, bound: bound, want: "home"},
		{name: "bounded, over the bound everywhere", home: deeper, peer: deep, bound: bound, want: "shed", minWait: 20_000},
	} {
		t.Run(row.name, func(t *testing.T) {
			cfg := Config{MaxBatch: 4, CacheSize: 8}
			stubs := [2]*stubModel{{}, {}}
			shards := make([]*Engine, 2)
			for i, l := range []load{row.home, row.peer} {
				pred := &Predictor{Model: stubs[i]}
				if l.started {
					_, shards[i] = oneShard(t, pred, cfg)
				} else {
					shards[i] = unstartedEngine(pred, cfg, l.queueCap, l.queued, l.serviceMicros)
				}
			}
			se := &ShardedEngine{shards: shards, gen: 1, maxEstWaitMicros: row.bound}
			sql := keyForShard(t, se, 0)
			ref, err := (&Predictor{Model: &stubModel{}}).PredictSQL(sql)
			if err != nil {
				t.Fatal(err)
			}
			lookups := func() (n int64) {
				for _, sh := range shards {
					n += sh.tel.CacheHits.Load() + sh.tel.CacheMisses.Load()
				}
				return n
			}
			entries := func(sh *Engine) int { n, _ := sh.cache.Stats(); return n }

			// Twice: the second request finds what the first left behind.
			for req := int64(1); req <= 2; req++ {
				got, _, err := se.PredictSQLGenCtx(context.Background(), sql)
				if row.want == "shed" {
					var over *OverloadError
					if !errors.As(err, &over) {
						t.Fatalf("request %d returned %v, want *OverloadError", req, err)
					}
					if over.EstWaitMicros != row.minWait || over.BoundMicros != row.bound {
						t.Fatalf("shed priced at %v/%v µs, want %v/%v", over.EstWaitMicros, over.BoundMicros, row.minWait, row.bound)
					}
					if shed := shards[0].tel.Shed.Load(); shed != req {
						t.Fatalf("home Shed = %d after %d refusals", shed, req)
					}
				} else if err != nil || got != ref {
					t.Fatalf("request %d: %+v, %v; want the serial reference %+v", req, got, err, ref)
				}
				if n := lookups(); n != req {
					t.Fatalf("%d counted cache lookups after %d requests, want one per request", n, req)
				}
			}
			wantCalls := map[string][2]int64{"home": {1, 0}, "peer": {0, 1}, "shed": {0, 0}}[row.want]
			for i, st := range stubs {
				if n := st.predicts.Load(); n != wantCalls[i] {
					t.Fatalf("shard %d ran the model %d times, want %d", i, n, wantCalls[i])
				}
			}
			wantHome := 1
			if row.want == "shed" {
				wantHome = 0
			}
			if entries(shards[0]) != wantHome || entries(shards[1]) != 0 {
				t.Fatalf("prediction cache entries home/peer = %d/%d, want %d/0 (the answer lives at home only)",
					entries(shards[0]), entries(shards[1]), wantHome)
			}
			if peerLookups := shards[1].tel.CacheHits.Load() + shards[1].tel.CacheMisses.Load(); peerLookups != 0 {
				t.Fatalf("the peer's segment was consulted %d times for a key it does not own", peerLookups)
			}
		})
	}
}
