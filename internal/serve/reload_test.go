package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
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
	"prestroid/internal/nn"
	"prestroid/internal/persist"
)

// TestRejectedCounterSemantics pins what the rejected-bundle counter
// counts: artefacts refused while staging, before any replica is touched. A
// lost race for the roll lock is no rejection — and must not even run the
// staging step.
func TestRejectedCounterSemantics(t *testing.T) {
	se := &ShardedEngine{}
	bad := errors.New("serve: bundle failed validation")
	stage := func() (*Predictor, error) { return nil, bad }

	se.reloadMu.Lock()
	if _, err := se.reload(stage); !errors.Is(err, ErrReloadInProgress) {
		t.Fatalf("reload under a held roll lock returned %v, want ErrReloadInProgress", err)
	}
	se.reloadMu.Unlock()
	if got := se.rejected.Load(); got != 0 {
		t.Fatalf("rejected = %d after an in-progress conflict, want 0", got)
	}
	if _, err := se.reload(stage); !errors.Is(err, bad) {
		t.Fatalf("reload returned %v, want the staging error passed through", err)
	}
	if got := se.rejected.Load(); got != 1 {
		t.Fatalf("rejected = %d after a validation failure, want 1", got)
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
	// Re-align after the perturbation: in the quantised CI leg this re-packs
	// the reference's int8 tables from the perturbed tensors, exactly like
	// the roll re-packs each replica's.
	alignEnvKernel(c)
	return buf.Bytes(), &Predictor{Model: c, Pipe: pred.Pipe, Norm: pred.Norm}
}

// TestReloadRollsAllShards checks the tentpole happy path: a reload
// validates once, rolls every shard to the new generation, invalidates the
// cache segments (a previously cached key must return the new-weight
// answer), and every shard thereafter predicts byte-identically to the
// serialised reference over the new bundle.
func TestReloadRollsAllShards(t *testing.T) {
	pred := newTestPredictor(t)
	cfg := DefaultConfig()
	cfg.Replicas = 3
	se := NewShardedEngine(Replicas(pred, cfg.Replicas), cfg)
	t.Cleanup(se.Close)

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

	gen, err := se.Reload(bytes.NewReader(bundle))
	if err != nil {
		t.Fatal(err)
	}
	if gen != 2 || se.Generation() != 2 || se.Reloads() != 1 {
		t.Fatalf("reload reported gen %d (engine %d, reloads %d), want 2/2/1", gen, se.Generation(), se.Reloads())
	}
	for i, m := range se.Snapshot().Shards {
		if m.Generation != 2 {
			t.Fatalf("shard %d still at generation %d after reload", i, m.Generation)
		}
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
	// Every shard — not just the home shard — must serve the new weights.
	for si, sh := range se.shards {
		direct, err := sh.PredictSQL(sql)
		if err != nil {
			t.Fatal(err)
		}
		if direct != want {
			t.Fatalf("shard %d: %+v != new-bundle reference %+v", si, direct, want)
		}
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
	se := NewShardedEngine(Replicas(pred, cfg.Replicas), cfg)
	t.Cleanup(se.Close)

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
	if _, err := se.Reload(&buf); err == nil {
		t.Fatal("reload accepted an architecture-mismatched bundle")
	}
	if _, err := se.Reload(strings.NewReader("not a gob stream")); err == nil {
		t.Fatal("reload accepted garbage")
	}
	if se.Generation() != 1 || se.Reloads() != 0 {
		t.Fatalf("rejected bundle advanced generation: gen %d, reloads %d", se.Generation(), se.Reloads())
	}
	after, g, err := se.PredictSQLGenCtx(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	if g != 1 || after != before {
		t.Fatalf("rejected bundle disturbed serving: gen %d, %+v vs %+v", g, after, before)
	}
}

// emptyWeightStore lets the test fabricate a syntactically valid (if
// trivial) bundle without training a model.
type emptyWeightStore struct{}

func (emptyWeightStore) Weights() []*nn.Param { return nil }

// TestReloadWithoutClonerFails checks graceful degradation for models that
// cannot stage a reload: the bundle decodes, but the roll is refused.
func TestReloadWithoutClonerFails(t *testing.T) {
	se, _ := stubShards(t, 2, Config{MaxBatch: 2})
	var buf bytes.Buffer
	if err := persist.SaveWeights(&buf, emptyWeightStore{}); err != nil {
		t.Fatal(err)
	}
	if _, err := se.Reload(&buf); err == nil {
		t.Fatal("reload succeeded on a model without Clone support")
	}
}

// TestReloadInProgressConflict checks that overlapping rolls are refused
// rather than interleaved.
func TestReloadInProgressConflict(t *testing.T) {
	se, _ := stubShards(t, 2, Config{MaxBatch: 2})
	se.reloadMu.Lock()
	defer se.reloadMu.Unlock()
	if _, err := se.Reload(strings.NewReader("")); err != ErrReloadInProgress {
		t.Fatalf("concurrent reload returned %v, want ErrReloadInProgress", err)
	}
}

// TestReloadUnderConcurrentTraffic is the tentpole's race gate (run under
// -race): workers hammer the dispatcher across all shards while two
// distinguishable bundles roll through. Every response must match the
// serialised reference of exactly one generation — never a blend — and for
// any single canonical key generations must be monotone: once a worker has
// seen generation g for a key, no later response for that key may come from
// an older generation (the cache invalidation + generation-matched detour
// guarantee).
func TestReloadUnderConcurrentTraffic(t *testing.T) {
	pred := newTestPredictor(t)
	cfg := DefaultConfig()
	cfg.Replicas = 4
	cfg.CacheSize = 64
	se := NewShardedEngine(Replicas(pred, cfg.Replicas), cfg)
	t.Cleanup(se.Close)

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
				p, g, err := se.PredictSQLGenCtx(context.Background(), sql)
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
		gen, err := se.Reload(bytes.NewReader(bundles[g]))
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

// TestQuiescingShardKeepsServing pins the quiesce semantics the roll relies
// on: a quiescing shard receives no new dispatcher traffic (same-generation
// peers take it), but requests that still reach it are answered.
func TestQuiescingShardKeepsServing(t *testing.T) {
	se, stubs := stubShards(t, 2, Config{MaxBatch: 2})
	sql := keyForShard(t, se, 0)
	home := se.shards[0]

	home.beginQuiesce()
	if got := se.pick(home); got != se.shards[1] {
		t.Fatal("quiescing home shard was not detoured to its same-generation peer")
	}
	if _, err := se.PredictSQL(sql); err != nil {
		t.Fatal(err)
	}
	if n := stubs[0].predicts.Load(); n != 0 {
		t.Fatalf("quiescing shard ran %d predictions via the dispatcher", n)
	}
	// Direct submits still answer — the shard is diverted, not dead.
	if _, err := home.PredictSQL(sql); err != nil {
		t.Fatal(err)
	}
	home.endQuiesce()
	if got := se.pick(home); got != home {
		t.Fatal("resumed shard did not reclaim its traffic")
	}

	// A peer on a different weight generation is never a detour target:
	// with no same-generation candidate, home keeps its own traffic.
	home.beginQuiesce()
	se.shards[1].weightGen.Store(99)
	if got := se.pick(home); got != home {
		t.Fatal("dispatcher detoured across weight generations")
	}
}
