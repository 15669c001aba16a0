package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"prestroid/internal/api"
	"prestroid/internal/models"
	"prestroid/internal/persist"
)

// TestRejectedCounterSemantics pins what the rejected-bundle counter
// counts: artefacts refused while staging, past the control-plane lock. A
// lost race for the roll lock, or a roll slot already taken, is a conflict,
// no rejection — and must not even run the staging step.
func TestRejectedCounterSemantics(t *testing.T) {
	se, _ := stubShards(t, 1, Config{})
	en := entryOver(t, se, Config{})
	bad := errors.New("serve: bundle failed validation")
	staged := 0
	stage := func(*ShardedEngine) (*Predictor, error) { staged++; return nil, bad }

	en.rollMu.Lock()
	if _, err := en.reload(stage); !errors.Is(err, ErrReloadInProgress) {
		t.Fatalf("reload under a held roll lock returned %v, want ErrReloadInProgress", err)
	}
	en.rollMu.Unlock()
	en.staged = &stagedRoll{}
	if _, err := en.reload(stage); !errors.Is(err, ErrRollPending) {
		t.Fatalf("reload over a staged roll returned %v, want ErrRollPending", err)
	}
	en.staged = nil
	if got := en.rejected.Load(); got != 0 || staged != 0 {
		t.Fatalf("after two conflicts: rejected = %d, stage ran %d times; want 0/0", got, staged)
	}
	if _, err := en.reload(stage); !errors.Is(err, bad) {
		t.Fatalf("reload returned %v, want the staging error passed through", err)
	}
	if got := en.rejected.Load(); got != 1 {
		t.Fatalf("rejected = %d after a validation failure, want 1", got)
	}
	if en.Live() != se || en.reloads.Load() != 0 {
		t.Fatal("a rejected roll replaced the live engine")
	}
}

// perturbedBundle clones the predictor's model, shifts the final dense
// layer's bias by delta — which moves every prediction through the output
// sigmoid — and serialises the result as a weight bundle. It returns the
// bundle bytes plus a serialised-path predictor over the perturbed weights,
// the correctness reference for what every shard must answer after the
// bundle is rolled in.
func perturbedBundle(t *testing.T, pred *Predictor, delta float64) ([]byte, *Predictor) {
	t.Helper()
	m, ok := pred.Model.(*models.Prestroid)
	if !ok {
		t.Fatalf("test predictor wraps %T, want *models.Prestroid", pred.Model)
	}
	c := m.Clone().(*models.Prestroid)
	ws := c.Weights()
	bias := ws[len(ws)-1].W
	for i := range bias.Data {
		bias.Data[i] += delta
	}
	var buf bytes.Buffer
	if err := persist.SaveWeights(&buf, c); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), &Predictor{Model: c, Pipe: pred.Pipe, Norm: pred.Norm}
}

// TestReloadRollsAllShards checks the tentpole happy path: a reload
// validates once, installs a successor engine with every shard at the new
// generation and empty cache segments (a previously cached key must return
// the new-weight answer), and every shard thereafter predicts
// byte-identically to the serialised reference over the new bundle. The
// engine it replaced is untouched: a straggler still holding it gets the old
// generation's answer, tagged as such.
func TestReloadRollsAllShards(t *testing.T) {
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

	bundle, reference := perturbedBundle(t, pred, 0.25)
	want, err := reference.PredictSQL(sql)
	if err != nil {
		t.Fatal(err)
	}
	if want.Normalized == before.Normalized {
		t.Fatal("perturbed bundle predicts identically; the test cannot distinguish generations")
	}

	gen, err := en.ReloadWeights(bytes.NewReader(bundle))
	if err != nil {
		t.Fatal(err)
	}
	retired := se
	se = en.Live()
	if gen != 2 || se.Generation() != 2 || en.reloads.Load() != 1 {
		t.Fatalf("reload reported gen %d (engine %d, reloads %d), want 2/2/1", gen, se.Generation(), en.reloads.Load())
	}
	if se.Shards() != cfg.Replicas {
		t.Fatalf("successor has %d shards, want %d", se.Shards(), cfg.Replicas)
	}
	for i, m := range se.Snapshot().Shards {
		if m.Generation != 2 {
			t.Fatalf("shard %d still at generation %d after reload", i, m.Generation)
		}
	}
	// The retired engine is closed, not mutated: it still answers — through
	// the serialised fallback — with generation 1's value and tag.
	if old, g, err := retired.PredictSQLGenCtx(context.Background(), sql); err != nil || g != 1 || old != before {
		t.Fatalf("straggler on the retired engine got gen %d %+v (%v), want gen 1 %+v", g, old, err, before)
	}

	// The pre-reload cache entry for this key must be gone: the dispatcher
	// answer now carries the new generation and the new-weight value.
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
	// Every replica must serve the new weights, each through its own conv
	// stack.
	for si, sh := range replicasOf(se) {
		direct, err := predictOn(se, sh, nil, sql)
		if err != nil {
			t.Fatal(err)
		}
		if direct != want {
			t.Fatalf("shard %d: %+v != new-bundle reference %+v", si, direct, want)
		}
	}
}

// TestWeightRollSkipsTheLiveLock pins that staging a weight-only roll makes
// no call on the live model and waits for none: the roll completes while
// every slot of the live engine is held, as it is while that many misses run
// long model calls, and the engine it installs serves the bundle's weights.
func TestWeightRollSkipsTheLiveLock(t *testing.T) {
	pred := newTestPredictor(t)
	cfg := DefaultConfig()
	cfg.Replicas = 2
	en := newTestEntry(t, pred, cfg)
	live := en.Live()
	bundle, reference := perturbedBundle(t, pred, 0.25)

	for i := 0; i < live.Shards(); i++ {
		live.slots <- struct{}{} // as a miss takes it
	}
	done := make(chan error, 1)
	go func() {
		_, err := en.ReloadWeights(bytes.NewReader(bundle))
		done <- err
	}()
	var err error
	blocked := false
	select {
	case err = <-done:
	case <-time.After(20 * time.Second):
		blocked = true
	}
	for i := 0; i < live.Shards(); i++ {
		<-live.slots
	}
	if blocked {
		t.Fatal("a weight-only roll waited for a live slot")
	}
	if err != nil {
		t.Fatal(err)
	}

	sql := "SELECT a FROM t WHERE a > 5"
	want, err := reference.PredictSQL(sql)
	if err != nil {
		t.Fatal(err)
	}
	got, g, err := en.PredictSQLGenCtx(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	if g != 2 || got != want {
		t.Fatalf("after the roll: gen %d, %+v; want gen 2 and the bundle's %+v", g, got, want)
	}
}

// TestReloadRejectsBadBundle pins the load-once validation: a bundle from a
// different architecture (and outright garbage) is rejected before any
// shard is touched — generation, cache contents and predictions are all
// byte-identical to before the attempt.
func TestReloadRejectsBadBundle(t *testing.T) {
	pred := newTestPredictor(t)
	cfg := DefaultConfig()
	cfg.Replicas = 2
	en := newTestEntry(t, pred, cfg)
	se := en.Live()

	sql := "SELECT b FROM t WHERE b < 3"
	before, _, err := se.PredictSQLGenCtx(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}

	// An architecture-mismatched bundle: wider head than the live model.
	mcfg := models.DefaultPrestroidConfig(15, 5)
	mcfg.ConvWidths = []int{8}
	mcfg.DenseWidths = []int{16}
	other := models.NewPrestroid(mcfg, pred.Pipe)
	var buf bytes.Buffer
	if err := persist.SaveWeights(&buf, other); err != nil {
		t.Fatal(err)
	}
	if _, err := en.ReloadWeights(&buf); err == nil {
		t.Fatal("reload accepted an architecture-mismatched bundle")
	}
	if _, err := en.ReloadWeights(strings.NewReader("not a gob stream")); err == nil {
		t.Fatal("reload accepted garbage")
	}
	if en.Live() != se || se.Generation() != 1 || en.reloads.Load() != 0 {
		t.Fatalf("rejected bundle advanced generation: gen %d, reloads %d", en.Live().Generation(), en.reloads.Load())
	}
	after, g, err := se.PredictSQLGenCtx(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	if g != 1 || after != before {
		t.Fatalf("rejected bundle disturbed serving: gen %d, %+v vs %+v", g, after, before)
	}
}

// TestReloadInProgressConflict checks that overlapping rolls are refused
// rather than interleaved.
func TestReloadInProgressConflict(t *testing.T) {
	se, _ := stubShards(t, 2, Config{})
	en := entryOver(t, se, Config{})
	en.rollMu.Lock()
	defer en.rollMu.Unlock()
	if _, err := en.ReloadWeights(strings.NewReader("")); err != ErrReloadInProgress {
		t.Fatalf("concurrent reload returned %v, want ErrReloadInProgress", err)
	}
}

// TestReloadUnderConcurrentTraffic is the tentpole's race gate (run under
// -race): workers hammer the dispatcher across all shards while two
// distinguishable bundles roll through. Every response must match the
// serialised reference of exactly one generation — never a blend — and for
// any single canonical key generations must be monotone: once a worker has
// seen generation g for a key, no later response for that key may come from
// an older generation (a request started after a roll reads the successor
// engine; nothing can reach the retired one).
func TestReloadUnderConcurrentTraffic(t *testing.T) {
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
		"SELECT u.x FROM u JOIN t ON u.id = t.id WHERE u.x < 6",
		"SELECT b FROM t WHERE b > 8",
	}
	const lastGen = 3

	// expect[g][key] is the serialised-path normalized prediction of
	// generation g for the key — the value every shard must reproduce
	// byte-for-byte while serving that generation.
	expect := make([]map[string]float64, lastGen+1)
	expect[1] = map[string]float64{}
	for _, sql := range queries {
		p, err := pred.PredictSQL(sql)
		if err != nil {
			t.Fatal(err)
		}
		expect[1][CanonicalSQL(sql)] = p.Normalized
	}
	bundles := make([][]byte, lastGen+1)
	for g := 2; g <= lastGen; g++ {
		bundle, reference := perturbedBundle(t, pred, 0.2*float64(g-1))
		bundles[g] = bundle
		expect[g] = map[string]float64{}
		for _, sql := range queries {
			p, err := reference.PredictSQL(sql)
			if err != nil {
				t.Fatal(err)
			}
			key := CanonicalSQL(sql)
			expect[g][key] = p.Normalized
			for prev := 1; prev < g; prev++ {
				if expect[prev][key] == p.Normalized {
					t.Fatalf("generations %d and %d predict identically for %q; cannot distinguish them", prev, g, sql)
				}
			}
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
				if want := expect[g][key]; p.Normalized != want {
					errCh <- fmt.Errorf("%q: generation %d answered %v, reference %v (response mixes generations)",
						sql, g, p.Normalized, want)
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
		gen, err := en.ReloadWeights(bytes.NewReader(bundles[g]))
		if err != nil {
			close(stop)
			wg.Wait()
			t.Fatal(err)
		}
		if gen != int64(g) {
			close(stop)
			wg.Wait()
			t.Fatalf("reload %d reported generation %d", g-1, gen)
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

// reloadHTTP posts a reload request from the given peer address, returning
// the recorder.
func reloadHTTP(t *testing.T, srv *Server, body, remoteAddr, token string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/reload", strings.NewReader(body))
	req.RemoteAddr = remoteAddr
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	return w
}

// TestReloadEndpoint drives the full HTTP story: a loopback POST with a
// bundle path rolls the weights, /v1/predict starts reporting the new
// generation and value, and /v1/stats reflects the roll on every shard.
func TestReloadEndpoint(t *testing.T) {
	srv, pred := newTestServer(t)
	bundle, reference := perturbedBundle(t, pred, 0.3)
	path := filepath.Join(t.TempDir(), "retrained.bin")
	if err := os.WriteFile(path, bundle, 0o644); err != nil {
		t.Fatal(err)
	}
	sql := "SELECT a FROM t WHERE a > 5"
	want, err := reference.PredictSQL(sql)
	if err != nil {
		t.Fatal(err)
	}

	w := reloadHTTP(t, srv, fmt.Sprintf(`{"weights":%q}`, path), "127.0.0.1:51515", "")
	if w.Code != http.StatusOK {
		t.Fatalf("reload = %d: %s", w.Code, w.Body)
	}
	var rr api.ReloadResponse
	if err := json.Unmarshal(w.Body.Bytes(), &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Generation != 2 || rr.Shards != srv.Engine().Shards() {
		t.Fatalf("reload response %+v, want generation 2 over %d shards", rr, srv.Engine().Shards())
	}

	pw := post(t, srv, "/v1/predict", fmt.Sprintf(`{"sql":%q}`, sql))
	if pw.Code != http.StatusOK {
		t.Fatalf("predict after reload = %d: %s", pw.Code, pw.Body)
	}
	var pr api.PredictResponse
	if err := json.Unmarshal(pw.Body.Bytes(), &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Generation != 2 || pr.Normalized != want.Normalized {
		t.Fatalf("predict after reload = gen %d, normalized %v; want gen 2, %v", pr.Generation, pr.Normalized, want.Normalized)
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
	for _, sh := range st.Shards {
		if sh.Generation != 2 {
			t.Fatalf("stats shard %d at generation %d, want 2", sh.Shard, sh.Generation)
		}
	}
}

// TestReloadEndpointGuards pins the admin-endpoint contract: method and
// body validation, the loopback-only default, and the bearer-token mode.
func TestReloadEndpointGuards(t *testing.T) {
	srv, _ := newTestServer(t)
	badBundle := filepath.Join(t.TempDir(), "junk.bin")
	if err := os.WriteFile(badBundle, []byte("not a gob stream"), 0o644); err != nil {
		t.Fatal(err)
	}

	// Loopback-only default: remote peers are refused outright.
	if w := reloadHTTP(t, srv, `{}`, "192.0.2.7:1000", ""); w.Code != http.StatusForbidden {
		t.Fatalf("remote reload without token = %d, want 403", w.Code)
	}
	// Loopback passes the guard and proceeds to body validation.
	if w := reloadHTTP(t, srv, `{}`, "127.0.0.1:1000", ""); w.Code != http.StatusBadRequest {
		t.Fatalf("loopback reload with empty body = %d, want 400", w.Code)
	}
	if w := reloadHTTP(t, srv, `{"weights":"/definitely/not/a/file"}`, "127.0.0.1:1000", ""); w.Code != http.StatusBadRequest {
		t.Fatalf("unreadable bundle path = %d, want 400", w.Code)
	}
	if w := reloadHTTP(t, srv, fmt.Sprintf(`{"weights":%q}`, badBundle), "127.0.0.1:1000", ""); w.Code != http.StatusUnprocessableEntity {
		t.Fatalf("garbage bundle = %d, want 422", w.Code)
	}
	req := httptest.NewRequest(http.MethodGet, "/v1/reload", nil)
	req.RemoteAddr = "127.0.0.1:1000"
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	if w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET reload = %d, want 405", w.Code)
	}

	// Token mode: the token is required even from loopback, and suffices
	// from anywhere.
	srv.SetReloadToken("sekrit")
	if w := reloadHTTP(t, srv, `{}`, "127.0.0.1:1000", ""); w.Code != http.StatusUnauthorized {
		t.Fatalf("tokenless reload with token configured = %d, want 401", w.Code)
	}
	if w := reloadHTTP(t, srv, `{}`, "127.0.0.1:1000", "wrong"); w.Code != http.StatusUnauthorized {
		t.Fatalf("wrong token = %d, want 401", w.Code)
	}
	if w := reloadHTTP(t, srv, `{}`, "192.0.2.7:1000", "sekrit"); w.Code != http.StatusBadRequest {
		t.Fatalf("remote reload with valid token = %d, want 400 (past auth, empty body)", w.Code)
	}
}

// TestRollsAreEngineSwapsOverHTTP is the end-to-end gate on the one roll
// mechanism (run under -race): 4 clients hammer /v1/predict over a fixed key
// set while 20 reloads — alternating weight-only and full-bundle — land
// through /v1/reload. Every response's (generation, cpu_minutes, normalized)
// must equal, bit for bit, the serialised reference of exactly that
// generation's bundle; generations are monotone per client per key; nothing
// answers non-200. Afterwards the goroutine count is back where it was before
// the first reload (no batcher of a retired engine survives its roll) and no
// per-shard counter ever moved backwards (successors count into their
// predecessors' groups).
func TestRollsAreEngineSwapsOverHTTP(t *testing.T) {
	pred := newTestPredictor(t)
	cfg := DefaultConfig()
	cfg.Replicas = 2
	cfg.CacheSize = 64
	srv := NewServerConfig(pred, cfg)
	t.Cleanup(srv.Close)

	queries := []string{
		"SELECT a FROM t WHERE a > 5",
		"SELECT b FROM t WHERE b < 3 AND a > 1",
		"SELECT a FROM t JOIN u ON t.id = u.id WHERE t.a > 7",
		"SELECT a, b FROM t WHERE a > 2 ORDER BY b LIMIT 10",
		"SELECT x FROM u WHERE x = 4",
		"SELECT a FROM t WHERE a > 5 AND b < 9",
	}
	const rolls = 20
	const lastGen = initialGeneration + rolls

	// One artefact and one serialised reference per generation, each retrain
	// starting from the identity before it.
	dir := t.TempDir()
	reloadBody := make([]string, lastGen+1)
	expect := make([]map[string]Prediction, lastGen+1)
	ref := pred
	for g := initialGeneration; g <= lastGen; g++ {
		if g > initialGeneration {
			var raw []byte
			field := "weights"
			if g%2 == 0 {
				raw, ref = perturbedBundle(t, ref, 0.05)
			} else {
				field = "bundle"
				raw, ref = retrainedFullBundle(t, ref, 0.1, fmt.Sprintf("swap_extra_%d", g))
			}
			path := filepath.Join(dir, fmt.Sprintf("gen%d.bin", g))
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			reloadBody[g] = fmt.Sprintf(`{%q:%q}`, field, path)
		}
		expect[g] = map[string]Prediction{}
		for _, sql := range queries {
			p, err := ref.PredictSQL(sql)
			if err != nil {
				t.Fatal(err)
			}
			expect[g][sql] = p
		}
	}

	// shardCounters reads the three counters the issue names off /v1/stats.
	shardCounters := func() [][3]int64 {
		req := httptest.NewRequest(http.MethodGet, "/v1/stats", nil)
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, req)
		var st Stats
		if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		out := make([][3]int64, len(st.Shards))
		for i, sh := range st.Shards {
			out[i] = [3]int64{sh.Batches, sh.CacheHits, sh.CacheMisses}
		}
		return out
	}
	// Warm every key so the first sample is non-zero: a counter reset would
	// otherwise pass as "0 never decreased".
	for _, sql := range queries {
		if w := post(t, srv, "/v1/predict", fmt.Sprintf(`{"sql":%q}`, sql)); w.Code != http.StatusOK {
			t.Fatalf("warm-up predict = %d: %s", w.Code, w.Body)
		}
	}
	last := shardCounters()
	checkMonotone := func(when string) {
		now := shardCounters()
		if len(now) != len(last) {
			t.Fatalf("%s: %d shards, had %d", when, len(now), len(last))
		}
		for i := range now {
			for c, name := range []string{"batches", "cache_hits", "cache_misses"} {
				if now[i][c] < last[i][c] {
					t.Fatalf("%s: shard %d %s went from %d to %d", when, i, name, last[i][c], now[i][c])
				}
			}
		}
		last = now
	}
	goroutines := runtime.NumGoroutine()

	const clients = 4
	stop := make(chan struct{})
	errCh := make(chan error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			seen := make(map[string]int64, len(queries))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				sql := queries[(i+c)%len(queries)]
				req := httptest.NewRequest(http.MethodPost, "/v1/predict", strings.NewReader(fmt.Sprintf(`{"sql":%q}`, sql)))
				w := httptest.NewRecorder()
				srv.ServeHTTP(w, req)
				if w.Code != http.StatusOK {
					errCh <- fmt.Errorf("client %d: %q answered %d: %s", c, sql, w.Code, w.Body)
					return
				}
				var pr api.PredictResponse
				if err := json.Unmarshal(w.Body.Bytes(), &pr); err != nil {
					errCh <- err
					return
				}
				g := pr.Generation
				if g < initialGeneration || g > lastGen {
					errCh <- fmt.Errorf("client %d: response claims generation %d", c, g)
					return
				}
				if want := expect[g][sql]; math.Float64bits(pr.CPUMinutes) != math.Float64bits(want.CPUMinutes) ||
					math.Float64bits(pr.Normalized) != math.Float64bits(want.Normalized) {
					errCh <- fmt.Errorf("client %d: %q at generation %d answered (%v, %v), that bundle's reference is (%v, %v)",
						c, sql, g, pr.CPUMinutes, pr.Normalized, want.CPUMinutes, want.Normalized)
					return
				}
				if g < seen[sql] {
					errCh <- fmt.Errorf("client %d: %q went from generation %d back to %d", c, sql, seen[sql], g)
					return
				}
				seen[sql] = g
			}
		}(c)
	}
	finish := func() {
		close(stop)
		wg.Wait()
		close(errCh)
		for err := range errCh {
			t.Error(err)
		}
	}

	for g := initialGeneration + 1; g <= lastGen; g++ {
		time.Sleep(5 * time.Millisecond)
		w := reloadHTTP(t, srv, reloadBody[g], "127.0.0.1:51515", "")
		var rr api.ReloadResponse
		if err := json.Unmarshal(w.Body.Bytes(), &rr); w.Code != http.StatusOK || err != nil || rr.Generation != int64(g) {
			finish()
			t.Fatalf("reload %s = %d (%v): %s; want generation %d", reloadBody[g], w.Code, err, w.Body, g)
		}
		checkMonotone(fmt.Sprintf("after the roll to generation %d", g))
	}
	time.Sleep(5 * time.Millisecond)
	finish()
	checkMonotone("after the clients stopped")

	st := srv.Models().Default().Snapshot().Engine
	if st.Generation != lastGen || st.Reloads != rolls || st.RejectedBundles != 0 {
		t.Fatalf("identity finished at generation %d, %d reloads, %d rejected; want %d/%d/0",
			st.Generation, st.Reloads, st.RejectedBundles, lastGen, rolls)
	}
	// Each roll closed the engine it replaced before returning, so the only
	// goroutines that can linger are ones already on their way out.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > goroutines && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		t.Fatalf("%d goroutines after %d rolls, %d before the first: a retired engine leaked", n, rolls, goroutines)
	}
}
