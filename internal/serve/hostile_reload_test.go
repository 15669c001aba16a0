package serve

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"prestroid/internal/api"
	"prestroid/internal/models"
	"prestroid/internal/persist"
	"prestroid/internal/word2vec"
	"prestroid/internal/workload"
)

// weightFields mirrors persist's on-disk weight section field for field
// (gob matches fields by name), so a test can corrupt a real bundle.
type weightFields struct {
	Version int
	Names   []string
	Shapes  [][]int
	Data    [][]float64
	State   [][]float64
}

// fullFields mirrors persist's on-disk full bundle the same way.
type fullFields struct {
	Version    int
	FeatureDim int
	Norm       workload.Normalizer
	Pipeline   struct {
		Version          int
		W2V              *word2vec.Snapshot
		Tables           []string
		MeanPooling      bool
		HashedPredicates bool
	}
	Weights   weightFields
	ModelName string
}

// regob decodes raw into v, lets corrupt change it and encodes it again.
func regob[T any](t *testing.T, raw []byte, corrupt func(*T)) []byte {
	t.Helper()
	var v T
	if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&v); err != nil {
		t.Fatal(err)
	}
	corrupt(&v)
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// statsOf reads the server's /v1/stats document.
func statsOf(t *testing.T, srv *Server) Stats {
	t.Helper()
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	var st Stats
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	return st
}

// metricsOf reads the server's /metrics exposition.
func metricsOf(srv *Server) string {
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	return w.Body.String()
}

// writeArtefact writes raw to a file in the test's directory.
func writeArtefact(t *testing.T, name string, raw []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestReloadHostileBundlesAre422 rolls bundles whose sections disagree with
// themselves through POST /v1/reload: each is refused at decode with a 422
// and counted once in rejected_reloads, and serving stays on generation 1.
// Before decode checked the sections, the weight-only one and the full one
// with a short weight section panicked in Validate, and the snapshots with
// more words than vectors or no vocabulary panicked in decode; the infinite
// normaliser rolled in, and every prediction after it was a 200 with an empty
// body; a NaN or infinite weight rolled in too, and one in the output layer
// made every prediction after it a 500.
func TestReloadHostileBundlesAre422(t *testing.T) {
	srv, pred := newTestServer(t)
	m := pred.Model.(*models.Prestroid)
	var weights, full bytes.Buffer
	if err := persist.SaveWeights(&weights, m); err != nil {
		t.Fatal(err)
	}
	if err := persist.SaveFullBundle(&full, pred.Pipe, pred.Norm, m, ""); err != nil {
		t.Fatal(err)
	}
	for i, c := range []struct {
		name, field string
		raw         []byte
	}{
		{"weights with fewer shapes than tensors", "weights",
			regob(t, weights.Bytes(), func(b *weightFields) { b.Shapes = b.Shapes[:0] })},
		{"full bundle with fewer shapes than tensors", "bundle",
			regob(t, full.Bytes(), func(b *fullFields) { b.Weights.Shapes = nil })},
		{"snapshot with more words than vectors", "bundle",
			regob(t, full.Bytes(), func(b *fullFields) { b.Pipeline.W2V.Vectors = b.Pipeline.W2V.Vectors[:1] })},
		{"snapshot with an empty vocabulary", "bundle",
			regob(t, full.Bytes(), func(b *fullFields) { b.Pipeline.W2V = &word2vec.Snapshot{Dim: 1 << 62} })},
		{"normaliser with an infinite bound", "bundle",
			regob(t, full.Bytes(), func(b *fullFields) { b.Norm.LogMax = math.Inf(1) })},
		{"weights with a NaN weight", "weights",
			regob(t, weights.Bytes(), func(b *weightFields) { b.Data[len(b.Data)-1][0] = math.NaN() })},
		{"full bundle with an infinite weight", "bundle",
			regob(t, full.Bytes(), func(b *fullFields) { b.Weights.Data[0][0] = math.Inf(-1) })},
	} {
		path := writeArtefact(t, "hostile.bin", c.raw)
		w := reloadHTTP(t, srv, fmt.Sprintf(`{%q:%q}`, c.field, path), "127.0.0.1:51515", "")
		if w.Code != http.StatusUnprocessableEntity || !strings.Contains(w.Body.String(), "persist: ") {
			t.Fatalf("%s: reload = %d %s, want 422 with the decode error", c.name, w.Code, w.Body)
		}
		st := statsOf(t, srv)
		if st.RejectedReloads != int64(i+1) || st.WeightGeneration != 1 {
			t.Fatalf("%s: rejected_reloads %d at generation %d, want %d at 1",
				c.name, st.RejectedReloads, st.WeightGeneration, i+1)
		}
	}
}

// TestReloadUnknownModelIs404 pins that a reload naming an unregistered
// identity answers 404 unknown_model before its artefact is read, like the
// weights branch and /v1/predict: an undecodable bundle sent for "ghost" is
// nobody's rejection, so the default identity's counters stay at 0.
func TestReloadUnknownModelIs404(t *testing.T) {
	srv, _ := newTestServer(t)
	path := writeArtefact(t, "garbage.full", []byte("not a gob stream"))
	for _, field := range []string{"bundle", "weights"} {
		w := reloadHTTP(t, srv, fmt.Sprintf(`{%q:%q,"model":"ghost"}`, field, path), "127.0.0.1:51515", "")
		var env api.ErrorResponse
		if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil {
			t.Fatal(err)
		}
		if w.Code != http.StatusNotFound || env.Error.Code != api.CodeUnknownModel {
			t.Fatalf("%s reload for an unknown model = %d %s, want 404 %s", field, w.Code, w.Body, api.CodeUnknownModel)
		}
	}
	if st := statsOf(t, srv); st.RejectedReloads != 0 {
		t.Fatalf("default rejected_reloads = %d after reloads for an unknown model, want 0", st.RejectedReloads)
	}
	if !strings.Contains(metricsOf(srv), "prestroid_reload_rejected_total{model=\"default\"} 0\n") {
		t.Fatal("/metrics charges the default identity with a rejection it did not see")
	}
}

// TestAdminUnknownModelStaysOutOfServingCounters pins that admin traffic
// naming an unknown identity — a reload of either artefact, a promote, an
// abort — answers its 404 without touching the serving counters, while a
// predict or explain naming one is a served request that failed.
func TestAdminUnknownModelStaysOutOfServingCounters(t *testing.T) {
	srv, _ := newTestServer(t)
	path := writeArtefact(t, "garbage.full", []byte("not a gob stream"))
	admin := []*httptest.ResponseRecorder{
		reloadHTTP(t, srv, fmt.Sprintf(`{"bundle":%q,"model":"ghost"}`, path), "127.0.0.1:51515", ""),
		reloadHTTP(t, srv, fmt.Sprintf(`{"weights":%q,"model":"ghost"}`, path), "127.0.0.1:51515", ""),
	}
	for _, action := range []string{"promote", "abort"} {
		req := httptest.NewRequest(http.MethodPost, "/v1/models/ghost/"+action, nil)
		req.RemoteAddr = "127.0.0.1:51515"
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, req)
		admin = append(admin, w)
	}
	for i, w := range admin {
		if w.Code != http.StatusNotFound {
			t.Fatalf("admin request %d for an unknown model = %d %s, want 404", i, w.Code, w.Body)
		}
	}
	if st := statsOf(t, srv); st.Requests != 0 || st.Errors != 0 {
		t.Fatalf("after admin 404s: requests %d errors %d, want 0 and 0", st.Requests, st.Errors)
	}
	for _, ep := range []string{"/v1/predict", "/v1/explain"} {
		if w := post(t, srv, ep, `{"sql":"SELECT a FROM t","model":"ghost"}`); w.Code != http.StatusNotFound {
			t.Fatalf("%s for an unknown model = %d, want 404", ep, w.Code)
		}
	}
	if st := statsOf(t, srv); st.Requests != 2 || st.Errors != 2 {
		t.Fatalf("after two serving 404s: requests %d errors %d, want 2 and 2", st.Requests, st.Errors)
	}
}

// TestPredictNonFiniteIs500 pins that a prediction JSON cannot carry — a
// non-finite cpu_minutes from a normaliser no bundle can now deliver — is
// the server's failure, a 500 internal envelope, rather than a 200 whose
// body the encoder silently dropped.
func TestPredictNonFiniteIs500(t *testing.T) {
	pred := newTestPredictor(t)
	for _, norm := range []workload.Normalizer{
		{LogMin: math.NaN(), LogMax: 1},
		{LogMin: math.Inf(1), LogMax: math.Inf(1)},
	} {
		srv := NewServerConfig(&Predictor{Model: pred.Model, Pipe: pred.Pipe, Norm: norm}, Config{})
		w := post(t, srv, "/v1/predict", `{"sql":"SELECT a FROM t WHERE a > 5"}`)
		srv.Close()
		var env api.ErrorResponse
		if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil {
			t.Fatalf("normaliser %+v: body %q is no envelope: %v", norm, w.Body, err)
		}
		if w.Code != http.StatusInternalServerError || env.Error.Code != api.CodeInternal {
			t.Fatalf("normaliser %+v: predict = %d %s, want 500 %s", norm, w.Code, w.Body, api.CodeInternal)
		}
	}
}
