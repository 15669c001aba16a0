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
	"prestroid/internal/workload"
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
	cached := NewServerConfig(pred, Config{MaxBatch: 8, TemplateCacheSize: 256})
	t.Cleanup(cached.Close)
	twin := &Predictor{Model: pred.mustServe().Clone(), Pipe: pred.Pipe, Norm: pred.Norm}
	uncached := NewServerConfig(twin, Config{MaxBatch: 8})
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
	e := cached.Engine().shards[0]
	for gi, gen := range templateQueryGens {
		key, _, ok := sqlparse.ExtractTemplate(gen(rng))
		if !ok {
			t.Fatalf("gen %d: no template", gi)
		}
		if ent, ok := e.tmplCache.Get(key); !ok || !ent.answered {
			t.Fatalf("gen %d: after four sightings the entry holds no answer; the lookup never ran", gi)
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
// holds an answer: no more allocations than ExtractTemplate alone — no trace,
// job, rebind or plan — and no batch.
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
	extract := testing.AllocsPerRun(100, func() { sqlparse.ExtractTemplate(sql) })
	answer := testing.AllocsPerRun(100, func() { se.predictKey(ctx, sql, key) })
	if answer > extract {
		t.Fatalf("an answered template: %.0f allocs, want no more than ExtractTemplate's %.0f", answer, extract)
	}
	if n := e.tel.Batches.Load(); n != batches {
		t.Fatalf("answered templates flushed %d batches", n-batches)
	}
}

// TestTemplateAnsweredOncePerEngine pins where a template lives: in the
// segment of the shard its template key hashes to, whichever shard a
// variant's canonical key homes to. Sequential literal variants spread over
// both shards of a two-shard engine run the model once between them and
// leave one entry.
func TestTemplateAnsweredOncePerEngine(t *testing.T) {
	base := newTestPredictor(t)
	counting := make([]*countingModel, 2)
	preds := make([]*Predictor, 2)
	for i := range preds {
		clone := base.Model.(*models.Prestroid).Clone().(*models.Prestroid)
		counting[i] = &countingModel{Prestroid: clone, adopted: map[*workload.Trace]bool{}}
		preds[i] = &Predictor{Model: counting[i], Pipe: base.Pipe, Norm: base.Norm}
	}
	se := NewShardedEngine(preds, tmplCfg())
	t.Cleanup(se.Close)
	homes := map[int]bool{}
	for n := 1; n <= 16; n++ {
		sql := fmt.Sprintf("SELECT a FROM t WHERE a > %d AND b < %d", n, 100-n)
		homes[se.shardOf(CanonicalSQL(sql))] = true
		want, err := base.PredictSQL(sql)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := se.PredictSQL(sql); err != nil || got != want {
			t.Fatalf("%q: engine %+v, %v; want the serialised reference %+v", sql, got, err, want)
		}
	}
	if len(homes) != 2 {
		t.Fatalf("the variants' canonical keys home to %d shards, want both", len(homes))
	}
	if n := counting[0].encodes.Load() + counting[1].encodes.Load(); n != 1 {
		t.Fatalf("16 variants of one template encoded %d times across the shards, want 1", n)
	}
	if tot := se.Snapshot().Totals(); tot.TemplateEntries != 1 || tot.TemplateMisses != 1 || tot.TemplateHits != 15 {
		t.Fatalf("template entries/misses/hits = %d/%d/%d, want 1/1/15",
			tot.TemplateEntries, tot.TemplateMisses, tot.TemplateHits)
	}
}
