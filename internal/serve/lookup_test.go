package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"testing"

	"prestroid/internal/api"
	"prestroid/internal/models"
	"prestroid/internal/sqlparse"
)

// predictBody is a /v1/predict request body for sql.
func predictBody(t *testing.T, sql string) string {
	t.Helper()
	b, err := json.Marshal(api.PredictRequest{SQL: sql})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestTemplateLookupMatchesUncachedServer drives every templateQueryGens
// template through a server with the template segment on — four sightings
// each, fresh literals every time, so from the second on the answer is a
// lookup of the entry's answer and plan shape — and through one with the
// segment off. Every response body, plan figures included, must be the
// uncached server's byte for byte. A LIMIT the parser refuses (fractional,
// or past int) in a cached template's slot must answer the uncached server's
// 422, not the entry's prediction.
func TestTemplateLookupMatchesUncachedServer(t *testing.T) {
	pred := newTestPredictor(t)
	cached := NewServerConfig(pred, Config{TemplateCacheSize: 256})
	t.Cleanup(cached.Close)
	uncached := NewServerConfig(pred, Config{})
	t.Cleanup(uncached.Close)

	same := func(sql string, wantCode int) {
		t.Helper()
		want := post(t, uncached, "/v1/predict", predictBody(t, sql))
		got := post(t, cached, "/v1/predict", predictBody(t, sql))
		if want.Code != wantCode {
			t.Fatalf("%q: uncached server = %d %s, want %d", sql, want.Code, want.Body, wantCode)
		}
		if got.Code != want.Code || got.Body.String() != want.Body.String() {
			t.Fatalf("%q: cached server = %d %s, uncached = %d %s", sql, got.Code, got.Body, want.Code, want.Body)
		}
	}
	rng := rand.New(rand.NewSource(41))
	for sight := 0; sight < 4; sight++ {
		for _, gen := range templateQueryGens {
			same(gen(rng), http.StatusOK)
		}
	}
	e := cached.Engine()
	for gi, gen := range templateQueryGens {
		key, ok := sqlparse.TemplateKey(gen(rng))
		if !ok {
			t.Fatalf("gen %d: no template", gi)
		}
		if _, ok := e.tmplCache.Get(key); !ok {
			t.Fatalf("gen %d: after four sightings the template holds no answer; the lookup never ran", gi)
		}
	}
	for _, gi := range []int{0, 3} {
		sql := templateQueryGens[gi](rng)
		cut := strings.LastIndex(sql, "LIMIT ") + len("LIMIT ")
		for _, bad := range []string{"2.5", "99999999999999999999"} {
			same(sql[:cut]+bad, http.StatusUnprocessableEntity)
		}
	}
}

// TestTemplateLookupAllocs pins what a prediction costs once its template
// holds an answer: no more allocations than the key scan alone, whose one
// allocation is the key — no literal vector, trace, parse or plan — and no
// batch.
func TestTemplateLookupAllocs(t *testing.T) {
	pred := newTestPredictor(t)
	se, e := oneShard(t, pred, tmplCfg())
	rng := rand.New(rand.NewSource(7))
	gen := templateQueryGens[0]
	if _, err := se.PredictSQL(gen(rng)); err != nil {
		t.Fatal(err)
	}
	sql := gen(rng)
	want, err := pred.PredictSQL(sql)
	if err != nil {
		t.Fatal(err)
	}
	ctx, key := context.Background(), CanonicalSQL(sql)
	batches := e.tel.Batches.Load()
	if got, _, err := se.predictKey(ctx, sql, key); err != nil || got != want {
		t.Fatalf("answered %+v, %v; want the serialised reference %+v", got, err, want)
	}
	scan := testing.AllocsPerRun(100, func() { sqlparse.TemplateKey(sql) })
	if scan > 1 {
		t.Fatalf("the key scan of %q: %.0f allocs, want the key's one", sql, scan)
	}
	answer := testing.AllocsPerRun(100, func() { se.predictKey(ctx, sql, key) })
	if answer > scan {
		t.Fatalf("an answered template: %.0f allocs, want no more than the key scan's %.0f", answer, scan)
	}
	if n := e.tel.Batches.Load(); n != batches {
		t.Fatalf("answered templates flushed %d batches", n-batches)
	}
}

// TestTemplateAnsweredOncePerEngine pins where a template lives: once, in
// the engine's template cache. Sequential literal variants on a two-slot
// engine run the model once between them and leave one entry.
func TestTemplateAnsweredOncePerEngine(t *testing.T) {
	base := newTestPredictor(t)
	counting := &countingModel{Prestroid: base.Model.(*models.Prestroid)}
	cfg := tmplCfg()
	cfg.Replicas = 2
	se := NewShardedEngine(&Predictor{Model: counting, Pipe: base.Pipe, Norm: base.Norm}, cfg)
	t.Cleanup(se.Close)
	for n := 1; n <= 16; n++ {
		sql := fmt.Sprintf("SELECT a FROM t WHERE a > %d AND b < %d", n, 100-n)
		want, err := base.PredictSQL(sql)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := se.PredictSQL(sql); err != nil || got != want {
			t.Fatalf("%q: engine %+v, %v; want the serialised reference %+v", sql, got, err, want)
		}
	}
	if n := counting.encodes.Load(); n != 1 {
		t.Fatalf("16 variants of one template encoded %d times, want 1", n)
	}
	if tot := se.Snapshot().Totals(); tot.TemplateEntries != 1 || tot.TemplateMisses != 1 || tot.TemplateHits != 15 {
		t.Fatalf("template entries/misses/hits = %d/%d/%d, want 1/1/15",
			tot.TemplateEntries, tot.TemplateMisses, tot.TemplateHits)
	}
}
