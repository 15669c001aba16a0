package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"prestroid/internal/api"
	"prestroid/internal/logicalplan"
	"prestroid/internal/models"
	"prestroid/internal/sqlparse"
	"prestroid/internal/treecnn"
	"prestroid/internal/workload"
)

// slabWatch is a real Prestroid that notes the feature slab of every tree it
// encodes, counting an encode into a slab it has seen before — a slab some
// earlier encoding released — and a tree that is not Identical to the one
// fresh, a model that never recycles, encodes for the same trace.
type slabWatch struct {
	*models.Prestroid
	fresh          *models.Prestroid
	mu             *sync.Mutex
	seen           map[*float64]bool
	reused, differ *int
}

func (w *slabWatch) EncodeTrace(tr *workload.Trace) any {
	enc := w.Prestroid.EncodeTrace(tr)
	want := w.fresh.EncodeTrace(tr).([]*treecnn.Tree)
	w.mu.Lock()
	defer w.mu.Unlock()
	for i, t := range enc.([]*treecnn.Tree) {
		slab := &t.Feats.Data[0]
		if w.seen[slab] {
			*w.reused++
		}
		w.seen[slab] = true
		if !t.Identical(want[i]) {
			*w.differ++
		}
	}
	return enc
}

// TestRecycledSlabsAnswerByteIdentical pins slab recycling end to end: six
// clients send structurally distinct queries — each its own template, so each
// misses every cache on its way to the model and is encoded — through a
// two-slot server with every cache on, whose encodes flatten into slabs
// that earlier model calls recycled. Every response body must be byte-identical to
// one rendered from a fresh clone's reference Predict, which never recycles;
// slabs must have been reused many times over, and every tree flattened into
// one must be Identical to a fresh encode, dense rows included — which the
// answers alone cannot show, because the model reads only the entries a
// tree's index lists.
func TestRecycledSlabsAnswerByteIdentical(t *testing.T) {
	pred := newTestPredictor(t)
	base := pred.Model.(*models.Prestroid)
	ref := base.Clone().(*models.Prestroid)

	cfg := workload.DefaultGrabConfig()
	cfg.Seed = 42
	gen := workload.NewGrabGenerator(cfg)
	var sqls []string
	seen := map[string]bool{}
	for day := 0; len(sqls) < 400; day++ {
		sql := gen.GenerateOne(day % 61).SQL
		key, _, ok := sqlparse.ExtractTemplate(sql)
		if !ok || seen[key] || strings.ContainsAny(sql, "\"\\") {
			continue
		}
		seen[key] = true
		sqls = append(sqls, sql)
	}
	bodies, want := make([]string, len(sqls)), make([]string, len(sqls))
	for i, sql := range sqls {
		bodies[i] = predictBody(t, sql)
		plan, err := logicalplan.PlanSQL(sql)
		if err != nil {
			t.Fatalf("%q: %v", sql, err)
		}
		y := ref.Predict([]*workload.Trace{{SQL: sql, Plan: plan, Template: -1}}).Data[0]
		var b bytes.Buffer
		if err := json.NewEncoder(&b).Encode(api.PredictResponse{
			Prediction: pred.prediction(shapeOf(plan), y), Generation: initialGeneration, Kernel: api.KernelFloat}); err != nil {
			t.Fatal(err)
		}
		want[i] = b.String()
	}

	reused, differ := 0, 0
	watch := &slabWatch{Prestroid: base, fresh: base.Clone().(*models.Prestroid),
		mu: &sync.Mutex{}, seen: map[*float64]bool{}, reused: &reused, differ: &differ}
	srv := NewServerConfig(&Predictor{Model: watch, Pipe: pred.Pipe, Norm: pred.Norm}, Config{
		Replicas: 2, CacheSize: 1024, SubtreeCacheSize: 1024, TemplateCacheSize: 1024})
	t.Cleanup(srv.Close)
	const clients = 6
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(sqls); i += clients {
				w := httptest.NewRecorder()
				srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/predict", strings.NewReader(bodies[i])))
				if w.Code != http.StatusOK || w.Body.String() != want[i] {
					t.Errorf("%q answered %d %s, want 200 %s", sqls[i], w.Code, w.Body, want[i])
				}
			}
		}(c)
	}
	wg.Wait()
	t.Logf("%d of %d sub-tree encodes reused a slab", reused, len(watch.seen)+reused)
	if reused < len(sqls) {
		t.Fatalf("%d encodes of %d queries went into a recycled slab; want at least one a query", reused, len(sqls))
	}
	if differ != 0 {
		t.Fatalf("%d trees flattened into recycled slabs differ from a fresh encode", differ)
	}
}
