package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"testing"

	"prestroid/internal/models"
	"prestroid/internal/sqlparse"
	"prestroid/internal/workload"
)

// countingModel is a real Prestroid that counts how many times a plan is
// recast, sampled and flattened on its behalf, whoever asks. A model call
// reads the encoding it is handed and never encodes, so EncodeTrace is the
// one place to count.
type countingModel struct {
	*models.Prestroid
	encodes atomic.Int64
}

func (c *countingModel) EncodeTrace(tr *workload.Trace) any {
	c.encodes.Add(1)
	return c.Prestroid.EncodeTrace(tr)
}

func newCountingPredictor(t *testing.T) (*Predictor, *countingModel) {
	t.Helper()
	base := newTestPredictor(t)
	m := &countingModel{Prestroid: base.Model.(*models.Prestroid)}
	return &Predictor{Model: m, Pipe: base.Pipe, Norm: base.Norm}, m
}

// loadedEngine is an engine over pred that counts busy handlers already in
// its slots and has seen the given per-call service time, so its admission
// estimate is exactly busy × serviceMicros ÷ cfg.Replicas (at least one
// slot) until it runs a model call of its own; the slots themselves are
// free.
func loadedEngine(cfg Config, busy int, serviceMicros float64, pred *Predictor) engineRow {
	se := NewShardedEngine(pred, cfg)
	se.busy.Store(int64(busy))
	if serviceMicros > 0 {
		se.tel.ServiceTime.Observe(serviceMicros)
	}
	return engineRow{se}
}

// TestMissPathEncodesOnce is the oracle for "one owner per stage": however a
// query travels the miss path, its plan is encoded at most once — by the
// handler's miss — and never when a cache, the admission policy or the
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
	// itself encodes once — not counted against the engine)
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
	started := func(t *testing.T, cfg Config) engineRow {
		_, e := oneShard(t, pred, cfg)
		return e
	}

	// answer is what one template's entry holds: its key and its answer.
	key, ok := sqlparse.TemplateKey(q1)
	if !ok {
		t.Fatalf("%q has no template key", q1)
	}
	answer := templateBytes(key, Prediction{})
	// sights walks one template's three literal variants through predict: the
	// first sight encodes and leaves the template's answer in its entry; from
	// the second on the entry's answer serves and the entry stays as it was.
	sights := func(t *testing.T, e engineRow) {
		t.Helper()
		check(t, q1, 1, e.PredictSQL)
		if snap := e.Snapshot(); snap.TemplateMisses != 1 || snap.TemplateEntries != 1 || snap.TemplateBytes != answer {
			t.Fatalf("first sight left %d entries / %d bytes after %d misses, want 1 entry at the answer's %d bytes",
				snap.TemplateEntries, snap.TemplateBytes, snap.TemplateMisses, answer)
		}
		check(t, q2, 0, e.PredictSQL)
		if snap := e.Snapshot(); snap.TemplateEntries != 1 || snap.TemplateBytes != answer {
			t.Fatalf("second sight left %d entries / %d bytes, want the one entry at the answer's %d",
				snap.TemplateEntries, snap.TemplateBytes, answer)
		}
		check(t, q3, 0, e.PredictSQL)
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
		check(t, q1, 1, e.PredictSQL)
		check(t, q2, 1, e.PredictSQL)
	})
	t.Run("explain leaves no entry", func(t *testing.T) {
		e := started(t, tmplCfg())
		m.encodes.Store(0)
		if _, err := e.PlanOnly(q1); err != nil {
			t.Fatal(err)
		}
		if snap := e.Snapshot(); snap.TemplateMisses != 0 || snap.TemplateEntries != 0 || m.encodes.Load() != 0 {
			t.Fatalf("explain looked the template up %d times, left %d entries and encoded %d times; want none of it",
				snap.TemplateMisses, snap.TemplateEntries, m.encodes.Load())
		}
		sights(t, e)
	})
	t.Run("prediction cache hit", func(t *testing.T) {
		cfg := tmplCfg()
		cfg.CacheSize = 8
		e := started(t, cfg)
		check(t, q1, 1, e.PredictSQL)
		check(t, q1, 0, e.PredictSQL)
	})
	// There is one path: an engine with handlers already busy on its
	// replica (here only counted), or one that was closed, takes it like any
	// other.
	t.Run("saturated queue fallback", func(t *testing.T) {
		e := loadedEngine(tmplCfg(), 4, 1000, pred)
		sights(t, e)
		if n := e.busy.Load(); n != 4 {
			t.Fatalf("a loaded engine counts %d busy after its misses returned, want its 4", n)
		}
	})
	t.Run("closed engine fallback", func(t *testing.T) {
		se, e := oneShard(t, pred, tmplCfg())
		se.Close()
		sights(t, e)
	})
	t.Run("shed", func(t *testing.T) {
		se := loadedEngine(tmplCfg(), 20, 1000, pred)
		se.maxEstWaitMicros = 10_000
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
		if _, err := e.miss(ctx, q1, ""); !errors.As(err, &expired) {
			t.Fatalf("expired request returned %v, want *ExpiredError", err)
		}
		if n := m.encodes.Load(); n != 0 {
			t.Fatalf("an expired request encoded %d times", n)
		}
	})
}

// TestTemplateScanPinsNoTrees is the one-off regime as a unit test: a scan of
// N structurally distinct queries, each predicted once, leaves the template
// cache holding N answers — each its key and one Prediction — and none of the
// statements or trees that were built to answer them; explaining the same N
// queries leaves nothing at all.
func TestTemplateScanPinsNoTrees(t *testing.T) {
	pred := newTestPredictor(t)
	scanned, scannedShard := oneShard(t, pred, tmplCfg())
	_, explained := oneShard(t, pred, tmplCfg())
	const n = 64
	var answers int64
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
		key, _ := sqlparse.TemplateKey(sql)
		answers += templateBytes(key, Prediction{})
	}
	got, ex := scannedShard.Snapshot(), explained.Snapshot()
	if got.TemplateEntries != n || got.TemplateMisses != n || got.TemplateHits != 0 {
		t.Fatalf("scan left %d entries after %d misses / %d hits, want %d/%d/0",
			got.TemplateEntries, got.TemplateMisses, got.TemplateHits, n, n)
	}
	if got.TemplateBytes != answers {
		t.Fatalf("scan pins %d template bytes, want the %d answers' %d", got.TemplateBytes, n, answers)
	}
	if ex.TemplateEntries != 0 || ex.TemplateMisses != 0 || ex.TemplateBytes != 0 {
		t.Fatalf("explaining left %d entries / %d bytes after %d lookups, want nothing",
			ex.TemplateEntries, ex.TemplateBytes, ex.TemplateMisses)
	}
}

// TestDispatchSinglePolicy walks the one admission policy (admit) through
// its table on two-slot engines whose load is fully controlled. Each row
// keeps the two loads it gave a home and a peer shard when keys were bound
// to one replica each; the engine carries both: its busy count is their sum,
// at the per-call service time of whichever saw calls, while its slots
// are free. Without a bound, no load — however saturated the slots —
// sheds a miss; with one, a miss is shed once the pooled estimate passes it.
// Whatever the row decides, the key is looked up once per request, and a
// computed answer is one model call and one cache entry.
func TestDispatchSinglePolicy(t *testing.T) {
	type load struct {
		busy          int
		serviceMicros float64
	}
	idle := load{}
	slow := load{busy: 4, serviceMicros: 1e6}   // saturated: 4 s
	quick := load{busy: 1, serviceMicros: 1000} // 1 ms
	atBound := load{busy: 10, serviceMicros: 1000}
	deep := load{busy: 20, serviceMicros: 1000}   // 20 ms
	deeper := load{busy: 30, serviceMicros: 1000} // 30 ms
	const bound = 10_000                          // µs
	for _, row := range []struct {
		name       string
		home, peer load
		bound      float64
		shed       bool
		minWait    float64
	}{
		{name: "home idle", home: idle, peer: idle},
		{name: "home saturated, idle peer", home: slow, peer: idle},
		{name: "every shard saturated", home: slow, peer: slow},
		{name: "unbounded never sheds at any load", home: deeper, peer: deep},
		{name: "bounded, home idle", home: idle, peer: idle, bound: bound},
		{name: "bounded, home at the bound", home: atBound, peer: idle, bound: bound},           // 5 ms
		{name: "bounded, home over the bound, idle peer", home: deep, peer: idle, bound: bound}, // 10 ms
		{name: "bounded, saturated home inside the bound, peer over it", home: quick, peer: deep, bound: bound, shed: true, minWait: 10_500},
		{name: "bounded, over the bound everywhere", home: deeper, peer: deep, bound: bound, shed: true, minWait: 25_000},
	} {
		t.Run(row.name, func(t *testing.T) {
			stub := &stubModel{}
			se := loadedEngine(Config{CacheSize: 8, Replicas: 2}, row.home.busy+row.peer.busy,
				max(row.home.serviceMicros, row.peer.serviceMicros), &Predictor{Model: stub})
			se.maxEstWaitMicros = row.bound
			sql := "SELECT a FROM t WHERE a > 5"
			ref, err := (&Predictor{Model: &stubModel{}}).PredictSQL(sql)
			if err != nil {
				t.Fatal(err)
			}

			// Twice: the second request finds what the first left behind.
			for req := int64(1); req <= 2; req++ {
				got, _, err := se.PredictSQLGenCtx(context.Background(), sql)
				if row.shed {
					var over *OverloadError
					if !errors.As(err, &over) {
						t.Fatalf("request %d returned %v, want *OverloadError", req, err)
					}
					if over.EstWaitMicros != row.minWait || over.BoundMicros != row.bound {
						t.Fatalf("shed priced at %v/%v µs, want %v/%v", over.EstWaitMicros, over.BoundMicros, row.minWait, row.bound)
					}
					if shed := se.tel.Shed.Load(); shed != req {
						t.Fatalf("Shed = %d after %d refusals", shed, req)
					}
				} else if err != nil || got != ref {
					t.Fatalf("request %d: %+v, %v; want the serial reference %+v", req, got, err, ref)
				}
				if n := se.tel.CacheHits.Load() + se.tel.CacheMisses.Load(); n != req {
					t.Fatalf("%d counted cache lookups after %d requests, want one per request", n, req)
				}
			}
			wantCalls, wantEntries := int64(1), 1
			if row.shed {
				wantCalls, wantEntries = 0, 0
			}
			if n := stub.predicts.Load(); n != wantCalls {
				t.Fatalf("the model ran %d times, want %d", n, wantCalls)
			}
			if n, _ := se.cache.Stats(); n != wantEntries {
				t.Fatalf("prediction cache entries = %d, want %d", n, wantEntries)
			}
		})
	}
}
