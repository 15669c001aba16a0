package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"prestroid/internal/api"
	"prestroid/internal/persist"
)

// TestCompatModelLessPredictBytes pins the single-model wire contract: a
// predict request without a model field answers with exactly the historical
// key set, in the historical order, with no model echo — the byte shape a
// pre-registry client parses.
func TestCompatModelLessPredictBytes(t *testing.T) {
	srv, _ := newTestServer(t)
	w := post(t, srv, "/v1/predict", `{"sql":"SELECT a FROM t WHERE a > 5"}`)
	if w.Code != http.StatusOK {
		t.Fatalf("predict = %d: %s", w.Code, w.Body)
	}
	body := w.Body.Bytes()
	if bytes.Contains(body, []byte(`"model"`)) {
		t.Fatalf("model-less predict leaked a model field: %s", body)
	}
	// Key order is part of byte identity: encoding/json emits struct fields
	// in declaration order, and the declaration order is pinned here.
	var keys []string
	dec := json.NewDecoder(bytes.NewReader(body))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		t.Fatalf("body is not an object: %s", body)
	}
	depth := 0
	for dec.More() || depth > 0 {
		tok, err := dec.Token()
		if err != nil {
			break
		}
		switch d := tok.(type) {
		case json.Delim:
			if d == '{' || d == '[' {
				depth++
			} else {
				depth--
			}
		case string:
			if depth == 0 {
				keys = append(keys, d)
				var skip json.RawMessage
				if err := dec.Decode(&skip); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	want := []string{"cpu_minutes", "normalized", "plan_nodes", "plan_depth", "tables", "generation", "kernel"}
	if len(keys) != len(want) {
		t.Fatalf("predict keys = %v, want %v", keys, want)
	}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("predict key %d = %q, want %q (full: %v)", i, keys[i], want[i], keys)
		}
	}
}

// TestCompatPredictModelEcho is the flip side: naming a model — even the
// default one — echoes it back, so multi-model clients can verify routing.
func TestCompatPredictModelEcho(t *testing.T) {
	srv, _ := newTestServer(t)
	w := post(t, srv, "/v1/predict", `{"sql":"SELECT a FROM t WHERE a > 5","model":"default"}`)
	if w.Code != http.StatusOK {
		t.Fatalf("predict = %d: %s", w.Code, w.Body)
	}
	var pr api.PredictResponse
	if err := json.Unmarshal(w.Body.Bytes(), &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Model != "default" {
		t.Fatalf("model echo = %q, want %q", pr.Model, "default")
	}
	if w := post(t, srv, "/v1/predict", `{"sql":"SELECT a FROM t","model":"nope"}`); w.Code != http.StatusNotFound {
		t.Fatalf("unknown model = %d, want 404: %s", w.Code, w.Body)
	}
}

// TestCompatStatsTopLevel pins that the registry rework kept every
// historical top-level stats field in place while adding the per-model
// sections: a dashboard reading the old paths keeps working unmodified.
func TestCompatStatsTopLevel(t *testing.T) {
	srv, _ := newTestServer(t)
	if w := post(t, srv, "/v1/predict", `{"sql":"SELECT a FROM t WHERE a > 5"}`); w.Code != http.StatusOK {
		t.Fatalf("predict = %d", w.Code)
	}
	req := httptest.NewRequest(http.MethodGet, "/v1/stats", nil)
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(w.Body.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"uptime_seconds", "go_version", "requests", "errors", "throttled",
		"avg_millis", "p50_millis", "p95_millis", "p99_millis",
		"batches", "avg_batch_size", "cache_hits", "cache_misses",
		"subtree_cache_hits", "subtree_cache_misses", "shed", "expired",
		"weight_generation", "reloads", "rejected_reloads", "replicas",
		"shards", "model", "parameters", "kernel",
	} {
		if _, ok := raw[key]; !ok {
			t.Errorf("historical stats field %q missing", key)
		}
	}
	var st Stats
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if len(st.Models) != 1 || st.Models[0].Name != api.DefaultModel {
		t.Fatalf("models section = %+v, want one default entry", st.Models)
	}
	if st.Models[0].State != api.StateLive {
		t.Fatalf("default state = %q, want live", st.Models[0].State)
	}
	// The top-level engine block and the default model's section are the
	// same engine; its generation must agree.
	if st.WeightGeneration != st.Models[0].WeightGeneration {
		t.Fatalf("top-level generation %d != default section %d",
			st.WeightGeneration, st.Models[0].WeightGeneration)
	}
}

// TestCompatKernelIsFloat pins the value of the historical kernel key on
// every surface that carries it: a predict response, the top-level stats
// block and each /v1/models row all answer "float", the daemon's one kernel.
func TestCompatKernelIsFloat(t *testing.T) {
	srv, _ := newTestServer(t)
	w := post(t, srv, "/v1/predict", `{"sql":"SELECT a FROM t WHERE a > 5"}`)
	if w.Code != http.StatusOK {
		t.Fatalf("predict = %d: %s", w.Code, w.Body)
	}
	var pr api.PredictResponse
	if err := json.Unmarshal(w.Body.Bytes(), &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Kernel != "float" {
		t.Fatalf("predict kernel = %q, want float", pr.Kernel)
	}

	get := func(path string, v any) {
		t.Helper()
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
		if w.Code != http.StatusOK {
			t.Fatalf("GET %s = %d: %s", path, w.Code, w.Body)
		}
		if err := json.Unmarshal(w.Body.Bytes(), v); err != nil {
			t.Fatal(err)
		}
	}
	var st Stats
	get("/v1/stats", &st)
	if st.Kernel != "float" {
		t.Fatalf("stats kernel = %q, want float", st.Kernel)
	}
	var mr api.ModelsResponse
	get("/v1/models", &mr)
	if len(mr.Models) == 0 {
		t.Fatal("/v1/models listed no identity")
	}
	for _, m := range mr.Models {
		if m.Kernel != "float" {
			t.Fatalf("model %q kernel = %q, want float", m.Name, m.Kernel)
		}
	}
}

// TestCompatWeightReloadSingleModel pins the historical weight-only reload
// against a registry daemon: same request body, same response fields, and
// generation semantics unchanged from the single-engine servers.
func TestCompatWeightReloadSingleModel(t *testing.T) {
	srv, pred := newTestServer(t)
	wb, _ := perturbedBundle(t, pred, 0.2)
	path := filepath.Join(t.TempDir(), "w.bin")
	if err := os.WriteFile(path, wb, 0o644); err != nil {
		t.Fatal(err)
	}
	w := reloadHTTP(t, srv, fmt.Sprintf(`{"weights":%q}`, path), "127.0.0.1:51515", "")
	if w.Code != http.StatusOK {
		t.Fatalf("weight reload = %d: %s", w.Code, w.Body)
	}
	if bytes.Contains(w.Body.Bytes(), []byte(`"model"`)) {
		t.Fatalf("model-less reload response leaked a model field: %s", w.Body)
	}
	var rr api.ReloadResponse
	if err := json.Unmarshal(w.Body.Bytes(), &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Generation != 2 || rr.Mode != "weights" || rr.Roll != "" {
		t.Fatalf("reload response %+v, want generation 2, mode weights, no roll", rr)
	}
	if srv.Engine().Generation() != 2 {
		t.Fatalf("engine generation = %d, want 2", srv.Engine().Generation())
	}
}

// TestCompatErrorEnvelope sweeps every v1 failure class and asserts the one
// unified envelope shape: {"error":{"code","message"}} with the right code,
// on the same status codes as before the redesign.
func TestCompatErrorEnvelope(t *testing.T) {
	srv, _ := newTestServer(t)
	cases := []struct {
		name     string
		method   string
		path     string
		body     string
		remote   string
		status   int
		code     string
		hasRetry bool
	}{
		{"predict wrong method", http.MethodGet, "/v1/predict", "", "", http.StatusMethodNotAllowed, api.CodeMethodNotAllowed, false},
		{"predict bad body", http.MethodPost, "/v1/predict", `{"sql":`, "", http.StatusBadRequest, api.CodeBadRequest, false},
		{"predict missing sql", http.MethodPost, "/v1/predict", `{}`, "", http.StatusBadRequest, api.CodeBadRequest, false},
		{"predict bad sql", http.MethodPost, "/v1/predict", `{"sql":"NOT SQL"}`, "", http.StatusUnprocessableEntity, api.CodeUnprocessable, false},
		{"predict unknown model", http.MethodPost, "/v1/predict", `{"sql":"SELECT a FROM t","model":"ghost"}`, "", http.StatusNotFound, api.CodeUnknownModel, false},
		{"stats wrong method", http.MethodPost, "/v1/stats", "{}", "", http.StatusMethodNotAllowed, api.CodeMethodNotAllowed, false},
		{"models wrong method", http.MethodPost, "/v1/models", "{}", "", http.StatusMethodNotAllowed, api.CodeMethodNotAllowed, false},
		{"reload non-loopback", http.MethodPost, "/v1/reload", `{"weights":"x"}`, "10.1.2.3:999", http.StatusForbidden, api.CodeForbidden, false},
		{"reload neither field", http.MethodPost, "/v1/reload", `{}`, "127.0.0.1:1", http.StatusBadRequest, api.CodeBadRequest, false},
		{"reload bad mode", http.MethodPost, "/v1/reload", `{"bundle":"x","mode":"yolo"}`, "127.0.0.1:1", http.StatusBadRequest, api.CodeBadRequest, false},
		{"reload canary without percent", http.MethodPost, "/v1/reload", `{"bundle":"x","mode":"canary"}`, "127.0.0.1:1", http.StatusBadRequest, api.CodeBadRequest, false},
		{"reload shadow from weights", http.MethodPost, "/v1/reload", `{"weights":"x","mode":"shadow"}`, "127.0.0.1:1", http.StatusBadRequest, api.CodeBadRequest, false},
		{"promote nothing staged", http.MethodPost, "/v1/models/default/promote", "", "127.0.0.1:1", http.StatusConflict, api.CodeNoStagedRoll, false},
		{"abort nothing staged", http.MethodPost, "/v1/models/default/abort", "", "127.0.0.1:1", http.StatusConflict, api.CodeNoStagedRoll, false},
		{"action unknown model", http.MethodPost, "/v1/models/ghost/promote", "", "127.0.0.1:1", http.StatusNotFound, api.CodeUnknownModel, false},
		{"action unknown verb", http.MethodPost, "/v1/models/default/restart", "", "127.0.0.1:1", http.StatusNotFound, api.CodeBadRequest, false},
	}
	for _, tc := range cases {
		req := httptest.NewRequest(tc.method, tc.path, bytes.NewBufferString(tc.body))
		if tc.remote != "" {
			req.RemoteAddr = tc.remote
		}
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, req)
		if w.Code != tc.status {
			t.Errorf("%s: status %d, want %d (body %s)", tc.name, w.Code, tc.status, w.Body)
			continue
		}
		var e api.ErrorResponse
		if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil {
			t.Errorf("%s: body is not the error envelope: %s", tc.name, w.Body)
			continue
		}
		if e.Error.Code != tc.code {
			t.Errorf("%s: code %q, want %q", tc.name, e.Error.Code, tc.code)
		}
		if e.Error.Message == "" {
			t.Errorf("%s: empty error message", tc.name)
		}
	}
	// Throttle separately: enabling the near-zero quota up front would 429
	// the serving-path cases above before their own failure triggered. The
	// envelope carries the retry hint in milliseconds next to the Retry-After
	// header.
	srv.SetClientQuota(0.0001, 1)
	var throttled *httptest.ResponseRecorder
	for i := 0; i < 3; i++ {
		w := post(t, srv, "/v1/predict", `{"sql":"SELECT a FROM t"}`)
		if w.Code == http.StatusTooManyRequests {
			throttled = w
			break
		}
	}
	if throttled == nil {
		t.Fatal("quota never throttled")
	}
	var e api.ErrorResponse
	if err := json.Unmarshal(throttled.Body.Bytes(), &e); err != nil {
		t.Fatal(err)
	}
	if e.Error.Code != api.CodeThrottled || e.Error.RetryAfterMS <= 0 {
		t.Fatalf("throttle envelope %+v, want code throttled with retry_after_ms", e.Error)
	}
	if throttled.Header().Get("Retry-After") == "" {
		t.Fatal("throttle response lost the Retry-After header")
	}
}

// TestCompatMultiModelServing drives the tentpole end to end in-process: one
// server hosts two named identities, routes by the model field, keeps their
// generations independent, and reports both on /v1/models.
func TestCompatMultiModelServing(t *testing.T) {
	pred := newTestPredictor(t)
	_, beta := retrainedFullBundle(t, pred, 0.4, "beta_serving_extra")
	srv, err := NewMultiServer(Config{Replicas: 1},
		NamedPredictor{Pred: pred}, NamedPredictor{Name: "beta", Pred: beta})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)

	const sql = "SELECT a FROM t WHERE a > 5"
	wantDef, err := pred.PredictSQL(sql)
	if err != nil {
		t.Fatal(err)
	}
	wantBeta, err := beta.PredictSQL(sql)
	if err != nil {
		t.Fatal(err)
	}
	if wantDef == wantBeta {
		t.Fatal("test identities are not distinguishable")
	}
	check := func(body string, want Prediction, wantModel string) {
		t.Helper()
		w := post(t, srv, "/v1/predict", body)
		if w.Code != http.StatusOK {
			t.Fatalf("predict %s = %d: %s", body, w.Code, w.Body)
		}
		var pr api.PredictResponse
		if err := json.Unmarshal(w.Body.Bytes(), &pr); err != nil {
			t.Fatal(err)
		}
		if pr.Prediction != want || pr.Model != wantModel {
			t.Fatalf("predict %s = %+v model %q, want %+v model %q", body, pr.Prediction, pr.Model, want, wantModel)
		}
	}
	check(fmt.Sprintf(`{"sql":%q}`, sql), wantDef, "")
	check(fmt.Sprintf(`{"sql":%q,"model":"default"}`, sql), wantDef, "default")
	check(fmt.Sprintf(`{"sql":%q,"model":"beta"}`, sql), wantBeta, "beta")

	// A weight roll on beta leaves default's generation alone.
	wb, _ := perturbedBundle(t, beta, 0.1)
	path := filepath.Join(t.TempDir(), "beta.bin")
	if err := os.WriteFile(path, wb, 0o644); err != nil {
		t.Fatal(err)
	}
	w := reloadHTTP(t, srv, fmt.Sprintf(`{"weights":%q,"model":"beta"}`, path), "127.0.0.1:51515", "")
	if w.Code != http.StatusOK {
		t.Fatalf("beta reload = %d: %s", w.Code, w.Body)
	}
	var rr api.ReloadResponse
	if err := json.Unmarshal(w.Body.Bytes(), &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Model != "beta" || rr.Generation != 2 {
		t.Fatalf("beta reload response %+v, want model beta generation 2", rr)
	}
	if g := srv.Models().Lookup("beta").Live().Generation(); g != 2 {
		t.Fatalf("beta generation = %d, want 2", g)
	}
	if g := srv.Engine().Generation(); g != 1 {
		t.Fatalf("default generation moved to %d on beta's roll", g)
	}

	// /v1/models lists both identities with the right defaults.
	req := httptest.NewRequest(http.MethodGet, "/v1/models", nil)
	mw := httptest.NewRecorder()
	srv.ServeHTTP(mw, req)
	var mr api.ModelsResponse
	if err := json.Unmarshal(mw.Body.Bytes(), &mr); err != nil {
		t.Fatal(err)
	}
	if len(mr.Models) != 2 {
		t.Fatalf("models = %+v, want 2 entries", mr.Models)
	}
	if mr.Models[0].Name != api.DefaultModel || !mr.Models[0].Default || mr.Models[0].Generation != 1 {
		t.Fatalf("default entry = %+v", mr.Models[0])
	}
	if mr.Models[1].Name != "beta" || mr.Models[1].Default || mr.Models[1].Generation != 2 {
		t.Fatalf("beta entry = %+v", mr.Models[1])
	}

	// /v1/stats nests one section per identity, default first.
	sreq := httptest.NewRequest(http.MethodGet, "/v1/stats", nil)
	sw := httptest.NewRecorder()
	srv.ServeHTTP(sw, sreq)
	var st Stats
	if err := json.Unmarshal(sw.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if len(st.Models) != 2 || st.Models[0].Name != api.DefaultModel || st.Models[1].Name != "beta" {
		t.Fatalf("stats models = %+v", st.Models)
	}
	if st.Models[1].WeightGeneration != 2 {
		t.Fatalf("beta stats generation = %d, want 2", st.Models[1].WeightGeneration)
	}
}

// TestCompatNamedBundleRouting pins bundle-name resolution on /v1/reload: a
// bundle stamped for "beta" rolls into beta without a model field on the
// request, and the response echoes the resolved identity.
func TestCompatNamedBundleRouting(t *testing.T) {
	pred := newTestPredictor(t)
	_, beta := retrainedFullBundle(t, pred, 0.4, "named_bundle_extra")
	srv, err := NewMultiServer(Config{Replicas: 1},
		NamedPredictor{Pred: pred}, NamedPredictor{Name: "beta", Pred: beta})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)

	var buf bytes.Buffer
	m, _ := beta.Model.(persist.WeightStore)
	if err := persist.SaveFullBundle(&buf, beta.Pipe, beta.Norm, m, "beta"); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "beta.full")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	w := reloadHTTP(t, srv, fmt.Sprintf(`{"bundle":%q}`, path), "127.0.0.1:51515", "")
	if w.Code != http.StatusOK {
		t.Fatalf("named bundle reload = %d: %s", w.Code, w.Body)
	}
	var rr api.ReloadResponse
	if err := json.Unmarshal(w.Body.Bytes(), &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Model != "beta" {
		t.Fatalf("bundle-name resolution rolled %q, want beta", rr.Model)
	}
	if g := srv.Models().Lookup("beta").Live().Generation(); g != 2 {
		t.Fatalf("beta generation = %d, want 2", g)
	}
	if g := srv.Engine().Generation(); g != 1 {
		t.Fatalf("default generation moved to %d on beta's named-bundle roll", g)
	}
}
