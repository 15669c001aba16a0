package serve

import (
	"encoding/json"
	"math/rand"
	"net/http"
	"strings"
	"testing"

	"prestroid/internal/api"
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
// each, fresh literals every time, so from the third on the front end is a
// lookup of the entry's trees and plan shape — and through one with the
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
		if ent, ok := e.tmplCache.Get(key); !ok || ent.trees == nil {
			t.Fatalf("gen %d: after four sightings the entry holds no trees; the lookup never ran", gi)
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

// TestTemplateLookupAllocs pins what a prediction's front end costs on a hit
// whose entry holds trees: ExtractTemplate's allocations and the trace, and
// nothing else — no rebind, no plan. The trace carries no plan.
func TestTemplateLookupAllocs(t *testing.T) {
	pred := newTestPredictor(t)
	se, e := oneShard(t, pred, tmplCfg())
	rng := rand.New(rand.NewSource(7))
	gen := templateQueryGens[0]
	for i := 0; i < 3; i++ {
		if _, err := se.PredictSQL(gen(rng)); err != nil {
			t.Fatal(err)
		}
	}
	sql := gen(rng)
	fe, err := e.frontEnd(sql, true)
	if err != nil {
		t.Fatal(err)
	}
	if fe.trace.Plan != nil || fe.enc == nil || fe.ent != nil {
		t.Fatalf("hit on an encoded entry: plan %v, enc %v, deposit %v; want a lookup", fe.trace.Plan, fe.enc, fe.ent)
	}
	extract := testing.AllocsPerRun(100, func() { sqlparse.ExtractTemplate(sql) })
	lookup := testing.AllocsPerRun(100, func() { e.frontEnd(sql, true) })
	if lookup != extract+1 {
		t.Fatalf("front end of a lookup: %.0f allocs, want ExtractTemplate's %.0f + 1 for the trace", lookup, extract)
	}
}
