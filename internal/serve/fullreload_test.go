package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"prestroid/internal/api"
	"prestroid/internal/models"
	"prestroid/internal/otp"
	"prestroid/internal/persist"
	"prestroid/internal/workload"
)

// grownPipeline derives a pipeline over a strictly larger table universe,
// sharing the source's Word2Vec vectors — the pipeline shape a daily retrain
// produces once the catalog has grown past the serving pipeline's universe.
func grownPipeline(t *testing.T, pipe *models.Pipeline, extra ...string) *models.Pipeline {
	t.Helper()
	tables := make([]string, 0, len(pipe.Enc.TableIndex)+len(extra))
	for tbl := range pipe.Enc.TableIndex {
		tables = append(tables, tbl)
	}
	tables = append(tables, extra...)
	enc := otp.NewEncoder(tables, pipe.W2V)
	enc.MeanPooling = pipe.Enc.MeanPooling
	enc.HashedPredicates = pipe.Enc.HashedPredicates
	grown := &models.Pipeline{W2V: pipe.W2V, Enc: enc}
	if grown.Enc.FeatureDim() <= pipe.Enc.FeatureDim() {
		t.Fatalf("grown pipeline feature dim %d did not exceed %d",
			grown.Enc.FeatureDim(), pipe.Enc.FeatureDim())
	}
	return grown
}

// retrainedFullBundle fabricates a full retrain artefact whose every
// component differs from pred's identity: a pipeline with a larger table
// universe (so the feature dim — and with it the parameter count — changes),
// a label normaliser with a shifted range, and fresh weights. It returns the
// bundle bytes plus a serialised-path predictor over the same triple, the
// correctness reference for what every shard must answer after the roll.
func retrainedFullBundle(t *testing.T, pred *Predictor, normShift float64, extra ...string) ([]byte, *Predictor) {
	t.Helper()
	pipe := grownPipeline(t, pred.Pipe, extra...)
	m := models.NewPrestroid(testModelConfig(), pipe)
	norm := workload.Normalizer{LogMin: pred.Norm.LogMin - normShift, LogMax: pred.Norm.LogMax + normShift}
	var buf bytes.Buffer
	if err := persist.SaveFullBundle(&buf, pipe, norm, m, ""); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), &Predictor{Model: m, Pipe: pipe, Norm: norm}
}

// TestFullReloadRollsAllShards checks the tentpole happy path: a full bundle
// whose pipeline has a different feature-table universe stages once, installs
// an engine of fresh replicas over empty cache segments, and the identity
// thereafter answers byte-identically to the serialised reference
// over the bundle's own (pipeline, normaliser, weights) triple — including
// CPUMinutes, which proves the normaliser rolled with the weights.
func TestFullReloadRollsAllShards(t *testing.T) {
	pred := newTestPredictor(t)
	cfg := DefaultConfig()
	cfg.Replicas = 3
	en := newTestEntry(t, pred, cfg)
	se := en.Live()

	sql := "SELECT a FROM t WHERE a > 5"
	before, g, err := se.PredictSQLGenCtx(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	if g != 1 {
		t.Fatalf("initial generation = %d, want 1", g)
	}
	paramsBefore := se.Snapshot().Params

	bundle, reference := retrainedFullBundle(t, pred, 0.5, "full_reload_extra")
	want, err := reference.PredictSQL(sql)
	if err != nil {
		t.Fatal(err)
	}
	if want == before {
		t.Fatal("retrained bundle predicts identically; the test cannot distinguish identities")
	}

	gen, err := reloadFull(en, bundle)
	if err != nil {
		t.Fatal(err)
	}
	se = en.Live()
	if gen != 2 || se.Generation() != 2 || en.reloads.Load() != 1 {
		t.Fatalf("full reload reported gen %d (engine %d, reloads %d), want 2/2/1", gen, se.Generation(), en.reloads.Load())
	}
	for i, m := range se.Snapshot().Shards {
		if m.Generation != 2 {
			t.Fatalf("shard %d still at generation %d after full reload", i, m.Generation)
		}
	}
	// The serving identity changed shape: the wider feature dim grows the
	// conv stack, visible in the live parameter count.
	if paramsAfter := se.Snapshot().Params; paramsAfter <= paramsBefore {
		t.Fatalf("live parameter count %d after full reload, want > %d", paramsAfter, paramsBefore)
	}

	// The pre-reload cache entry must be gone: the dispatcher now answers
	// the new identity's value — pipeline, weights and normaliser together.
	after, g, err := se.PredictSQLGenCtx(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	if g != 2 {
		t.Fatalf("post-reload generation = %d, want 2", g)
	}
	if after != want {
		t.Fatalf("post-reload prediction %+v != serialised reference %+v", after, want)
	}
	// Every replica must serve the new identity, each through its own conv
	// stack.
	for si, sh := range replicasOf(se) {
		direct, err := predictOn(se, sh, nil, sql)
		if err != nil {
			t.Fatal(err)
		}
		if direct != want {
			t.Fatalf("shard %d: %+v != new-identity reference %+v", si, direct, want)
		}
	}
}

// TestFullReloadRejectionsLeaveServingUntouched pins the three rejection
// paths the retrain loop must survive: a triple whose weights were trained
// against a different feature dim than its own pipeline, a truncated
// pipeline section, and a normaliser with an inverted range. Each is
// refused with zero serving impact — generation and reload counters
// unchanged, the cache segment intact (the primed entry still serves hits),
// and predictions byte-identical to before the attempt.
func TestFullReloadRejectionsLeaveServingUntouched(t *testing.T) {
	pred := newTestPredictor(t)
	cfg := DefaultConfig()
	cfg.Replicas = 2
	en := newTestEntry(t, pred, cfg)
	se := en.Live()

	sql := "SELECT b FROM t WHERE b < 3"
	before, _, err := se.PredictSQLGenCtx(context.Background(), sql) // misses, lands in the cache
	if err != nil {
		t.Fatal(err)
	}
	hitsBefore := se.Snapshot().Totals().CacheHits
	entriesBefore := se.Snapshot().Totals().CacheEntries
	if entriesBefore == 0 {
		t.Fatal("test did not prime the cache; the cache-intact assertion would be vacuous")
	}

	// Mismatched feature dim: the pipeline section declares the grown
	// universe, the weight section was trained against the original one.
	grown := grownPipeline(t, pred.Pipe, "rejected_extra")
	var mismatched bytes.Buffer
	if err := persist.SaveFullBundle(&mismatched, grown, pred.Norm,
		pred.Model.(*models.Prestroid), ""); err != nil {
		t.Fatal(err)
	}

	// Truncated pipeline section: a coherent bundle cut mid-stream.
	whole, _ := retrainedFullBundle(t, pred, 0.25, "truncated_extra")
	truncated := whole[:len(whole)/3]

	// Normaliser range inversion.
	var inverted bytes.Buffer
	if err := persist.SaveFullBundle(&inverted, grown,
		workload.Normalizer{LogMin: 5, LogMax: 1},
		models.NewPrestroid(testModelConfig(), grown), ""); err != nil {
		t.Fatal(err)
	}

	for name, bundle := range map[string][]byte{
		"feature-dim mismatch": mismatched.Bytes(),
		"truncated pipeline":   truncated,
		"normaliser inversion": inverted.Bytes(),
	} {
		if _, err := reloadFull(en, bundle); err == nil {
			t.Fatalf("%s: full reload accepted the bundle", name)
		}
		if en.Live() != se || se.Generation() != 1 || en.reloads.Load() != 0 {
			t.Fatalf("%s: rejected bundle advanced the engine: gen %d, reloads %d",
				name, en.Live().Generation(), en.reloads.Load())
		}
		if entries := se.Snapshot().Totals().CacheEntries; entries != entriesBefore {
			t.Fatalf("%s: rejected bundle disturbed the cache: %d entries, want %d",
				name, entries, entriesBefore)
		}
		after, g, err := se.PredictSQLGenCtx(context.Background(), sql)
		if err != nil {
			t.Fatal(err)
		}
		if g != 1 || after != before {
			t.Fatalf("%s: rejected bundle disturbed serving: gen %d, %+v vs %+v",
				name, g, after, before)
		}
	}
	// Every post-rejection lookup above was served by the intact cache
	// segment, not recomputed.
	if hits := se.Snapshot().Totals().CacheHits; hits != hitsBefore+3 {
		t.Fatalf("cache hits %d after 3 post-rejection lookups, want %d", hits, hitsBefore+3)
	}
	// Each rejection is visible on the operator surface.
	if rejected := en.Snapshot().Engine.RejectedBundles; rejected != 3 {
		t.Fatalf("rejected-bundle counter = %d after 3 rejections, want 3", rejected)
	}
}

// TestFullReloadEndpoint drives the HTTP story: {"bundle": path} rolls the
// full identity, predict reports the new generation and the new identity's
// values, stats report the changed parameter count, and the request-shape
// guards (both fields, neither field) answer 400.
func TestFullReloadEndpoint(t *testing.T) {
	srv, pred := newTestServer(t)
	bundle, reference := retrainedFullBundle(t, pred, 0.4, "endpoint_extra")
	path := filepath.Join(t.TempDir(), "retrained.full")
	if err := os.WriteFile(path, bundle, 0o644); err != nil {
		t.Fatal(err)
	}
	sql := "SELECT a FROM t WHERE a > 5"
	want, err := reference.PredictSQL(sql)
	if err != nil {
		t.Fatal(err)
	}

	// Request-shape guards first (no roll must have happened).
	if w := reloadHTTP(t, srv, fmt.Sprintf(`{"weights":%q,"bundle":%q}`, path, path), "127.0.0.1:51515", ""); w.Code != http.StatusBadRequest {
		t.Fatalf("both fields = %d, want 400", w.Code)
	}
	if w := reloadHTTP(t, srv, `{}`, "127.0.0.1:51515", ""); w.Code != http.StatusBadRequest {
		t.Fatalf("neither field = %d, want 400", w.Code)
	}

	w := reloadHTTP(t, srv, fmt.Sprintf(`{"bundle":%q}`, path), "127.0.0.1:51515", "")
	if w.Code != http.StatusOK {
		t.Fatalf("full reload = %d: %s", w.Code, w.Body)
	}
	var rr api.ReloadResponse
	if err := json.Unmarshal(w.Body.Bytes(), &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Generation != 2 || rr.Mode != "bundle" || rr.Shards != srv.Engine().Shards() {
		t.Fatalf("reload response %+v, want generation 2, mode bundle, %d shards", rr, srv.Engine().Shards())
	}

	pw := post(t, srv, "/v1/predict", fmt.Sprintf(`{"sql":%q}`, sql))
	if pw.Code != http.StatusOK {
		t.Fatalf("predict after full reload = %d: %s", pw.Code, pw.Body)
	}
	var pr api.PredictResponse
	if err := json.Unmarshal(pw.Body.Bytes(), &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Generation != 2 || pr.Prediction != want {
		t.Fatalf("predict after full reload = gen %d %+v; want gen 2 %+v", pr.Generation, pr.Prediction, want)
	}

	sreq := httptest.NewRequest(http.MethodGet, "/v1/stats", nil)
	sw := httptest.NewRecorder()
	srv.ServeHTTP(sw, sreq)
	var st Stats
	if err := json.Unmarshal(sw.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.WeightGeneration != 2 || st.Reloads != 1 {
		t.Fatalf("stats report generation %d / %d reloads, want 2/1", st.WeightGeneration, st.Reloads)
	}
	refModel := reference.Model.(*models.Prestroid)
	if st.Params != refModel.ParamCount() {
		t.Fatalf("stats report %d params, live identity has %d", st.Params, refModel.ParamCount())
	}

	// A rejected full bundle over HTTP answers 422.
	junk := filepath.Join(t.TempDir(), "junk.full")
	if err := os.WriteFile(junk, bundle[:len(bundle)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if w := reloadHTTP(t, srv, fmt.Sprintf(`{"bundle":%q}`, junk), "127.0.0.1:51515", ""); w.Code != http.StatusUnprocessableEntity {
		t.Fatalf("truncated bundle over HTTP = %d, want 422", w.Code)
	}
}

// TestInterleavedReloads pins the one-roll-machinery contract: while any
// roll is in flight, both weight-only and full-bundle reloads are refused
// with ErrReloadInProgress (409 over HTTP), and sequential
// interleavings of the two kinds share one monotone generation sequence.
func TestInterleavedReloads(t *testing.T) {
	pred := newTestPredictor(t)
	cfg := DefaultConfig()
	cfg.Replicas = 2
	en := newTestEntry(t, pred, cfg)
	sql := "SELECT a FROM t WHERE a > 5"
	predict := func() (Prediction, int64, error) {
		p, g, err := en.PredictSQLGenCtx(context.Background(), sql)
		return p, g, err
	}

	// In-flight roll (the mutex is held exactly for a roll's duration):
	// both kinds must conflict, not queue.
	en.rollMu.Lock()
	if _, err := en.ReloadWeights(strings.NewReader("")); err != ErrReloadInProgress {
		t.Fatalf("weight reload during a roll returned %v, want ErrReloadInProgress", err)
	}
	if _, err := reloadFull(en, nil); err != ErrReloadInProgress {
		t.Fatalf("full reload during a roll returned %v, want ErrReloadInProgress", err)
	}
	en.rollMu.Unlock()

	// Generation 2: weight-only roll.
	wb, wref := perturbedBundle(t, pred, 0.25)
	if gen, err := en.ReloadWeights(bytes.NewReader(wb)); err != nil || gen != 2 {
		t.Fatalf("weight roll: gen %d, err %v", gen, err)
	}
	want, err := wref.PredictSQL(sql)
	if err != nil {
		t.Fatal(err)
	}
	if got, g, _ := predict(); g != 2 || got != want {
		t.Fatalf("after weight roll: gen %d %+v, want gen 2 %+v", g, got, want)
	}

	// Generation 3: full-bundle roll — new pipeline, normaliser, weights.
	fb, fref := retrainedFullBundle(t, pred, 0.5, "interleaved_extra")
	if gen, err := reloadFull(en, fb); err != nil || gen != 3 {
		t.Fatalf("full roll: gen %d, err %v", gen, err)
	}
	want, err = fref.PredictSQL(sql)
	if err != nil {
		t.Fatal(err)
	}
	if got, g, _ := predict(); g != 3 || got != want {
		t.Fatalf("after full roll: gen %d %+v, want gen 3 %+v", g, got, want)
	}

	// A weight-only bundle of the *old* architecture is now rejected — the
	// full roll changed the live feature dim under it — with zero impact.
	if _, err := en.ReloadWeights(bytes.NewReader(wb)); err == nil {
		t.Fatal("weight roll of the old architecture accepted after a full roll")
	}
	if g := en.Live().Generation(); g != 3 {
		t.Fatalf("rejected stale weight roll moved the generation to %d", g)
	}

	// Generation 4: weight-only roll against the new identity works — the
	// two kinds keep sharing one generation counter.
	wb2, wref2 := perturbedBundle(t, fref, 0.2)
	if gen, err := en.ReloadWeights(bytes.NewReader(wb2)); err != nil || gen != 4 {
		t.Fatalf("weight roll on new identity: gen %d, err %v", gen, err)
	}
	want, err = wref2.PredictSQL(sql)
	if err != nil {
		t.Fatal(err)
	}
	if got, g, _ := predict(); g != 4 || got != want {
		t.Fatalf("after weight roll on new identity: gen %d %+v, want gen 4 %+v", g, got, want)
	}
	if n := en.reloads.Load(); n != 3 {
		t.Fatalf("reloads = %d, want 3", n)
	}
}

// TestInterleavedReloadConflictHTTP pins the 409 mapping for both kinds.
func TestInterleavedReloadConflictHTTP(t *testing.T) {
	srv, _ := newTestServer(t)
	path := filepath.Join(t.TempDir(), "any.bin")
	if err := os.WriteFile(path, []byte("irrelevant"), 0o644); err != nil {
		t.Fatal(err)
	}
	srv.Models().Default().rollMu.Lock()
	defer srv.Models().Default().rollMu.Unlock()
	if w := reloadHTTP(t, srv, fmt.Sprintf(`{"weights":%q}`, path), "127.0.0.1:1000", ""); w.Code != http.StatusConflict {
		t.Fatalf("weight reload during a roll = %d, want 409", w.Code)
	}
	if w := reloadHTTP(t, srv, fmt.Sprintf(`{"bundle":%q}`, path), "127.0.0.1:1000", ""); w.Code != http.StatusConflict {
		t.Fatalf("full reload during a roll = %d, want 409", w.Code)
	}
}

// TestFullReloadUnderConcurrentTraffic is the tentpole's race gate (run
// under -race): workers hammer the dispatcher while the full predictor
// identity — pipeline with a grown table universe, shifted normaliser,
// fresh weights — rolls through, followed by a weight-only roll on the new
// identity. Every response must equal exactly one generation's serialised
// reference (the full Prediction, so a response mixing one generation's
// weights with another's normaliser is caught), and per canonical key
// generations must be monotone.
func TestFullReloadUnderConcurrentTraffic(t *testing.T) {
	pred := newTestPredictor(t)
	cfg := DefaultConfig()
	cfg.Replicas = 4
	cfg.CacheSize = 64
	en := newTestEntry(t, pred, cfg)

	queries := []string{
		"SELECT a FROM t WHERE a > 5",
		"SELECT b FROM t WHERE b < 3 AND a > 1",
		"SELECT a FROM t JOIN u ON t.id = u.id WHERE t.a > 7",
		"SELECT a, b FROM t WHERE a > 2 ORDER BY b LIMIT 10",
		"SELECT x FROM u WHERE x = 4",
		"SELECT a FROM t WHERE a > 5 AND b < 9",
	}
	const lastGen = 3

	references := make([]*Predictor, lastGen+1)
	references[1] = pred
	fb, fref := retrainedFullBundle(t, pred, 0.5, "concurrent_extra")
	references[2] = fref
	wb, wref := perturbedBundle(t, fref, 0.3)
	references[3] = wref
	rolls := [][]byte{nil, nil, fb, wb}
	rollKind := []string{"", "", "bundle", "weights"}

	expect := make([]map[string]Prediction, lastGen+1)
	for g := 1; g <= lastGen; g++ {
		expect[g] = map[string]Prediction{}
		for _, sql := range queries {
			p, err := references[g].PredictSQL(sql)
			if err != nil {
				t.Fatal(err)
			}
			key := CanonicalSQL(sql)
			for prev := 1; prev < g; prev++ {
				if expect[prev][key] == p {
					t.Fatalf("generations %d and %d predict identically for %q; cannot distinguish them", prev, g, sql)
				}
			}
			expect[g][key] = p
		}
	}

	const workers = 8
	stop := make(chan struct{})
	errCh := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			seen := make(map[string]int64, len(queries))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				sql := queries[(i+w)%len(queries)]
				key := CanonicalSQL(sql)
				p, g, err := en.PredictSQLGenCtx(context.Background(), sql)
				if err != nil {
					errCh <- err
					return
				}
				if g < 1 || g > lastGen {
					errCh <- fmt.Errorf("response claims generation %d", g)
					return
				}
				if want := expect[g][key]; p != want {
					errCh <- fmt.Errorf("%q: generation %d answered %+v, reference %+v (response mixes identities)",
						sql, g, p, want)
					return
				}
				if g < seen[key] {
					errCh <- fmt.Errorf("%q flipped from generation %d back to %d", sql, seen[key], g)
					return
				}
				seen[key] = g
			}
		}(w)
	}

	for g := 2; g <= lastGen; g++ {
		time.Sleep(50 * time.Millisecond)
		var gen int64
		var err error
		if rollKind[g] == "bundle" {
			gen, err = reloadFull(en, rolls[g])
		} else {
			gen, err = en.ReloadWeights(bytes.NewReader(rolls[g]))
		}
		if err != nil || gen != int64(g) {
			close(stop)
			wg.Wait()
			t.Fatalf("roll to generation %d: got %d, err %v", g, gen, err)
		}
	}
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	se := en.Live()
	if se.Generation() != lastGen {
		t.Fatalf("engine generation = %d, want %d", se.Generation(), lastGen)
	}
	for i, m := range se.Snapshot().Shards {
		if m.Generation != lastGen {
			t.Fatalf("shard %d finished at generation %d, want %d", i, m.Generation, lastGen)
		}
	}
}
