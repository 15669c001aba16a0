package serve

import (
	"encoding/json"
	"errors"
	"net/http"
	"runtime"
	"strings"
	"testing"

	"prestroid/internal/api"
	"prestroid/internal/workload"
)

// panicModel is a stub whose model round trip panics on a batch holding a
// marked query, the way a model that trips over a bug would.
type panicModel struct{ *stubModel }

func (m panicModel) PredictInto(batch []*workload.Trace, dst []float64) {
	for _, tr := range batch {
		if strings.Contains(tr.SQL, panicMark) {
			panic("model blew up")
		}
	}
	m.stubModel.PredictInto(batch, dst)
}

// TestFlushPanicIs500 pins the batcher's containment over HTTP: a query whose
// flush panics answers 500 in the internal envelope, the panic is counted on
// /metrics, and the shard answers the next query.
func TestFlushPanicIs500(t *testing.T) {
	m := &stubModel{}
	srv := NewServerConfig(&Predictor{Model: panicModel{m}}, Config{MaxBatch: 8})
	t.Cleanup(srv.Close)

	w := post(t, srv, "/v1/predict", `{"sql":"SELECT `+panicMark+` FROM t"}`)
	var env api.ErrorResponse
	if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil {
		t.Fatalf("body %q is no envelope: %v", w.Body, err)
	}
	if w.Code != http.StatusInternalServerError || env.Error.Code != api.CodeInternal {
		t.Fatalf("a panicking flush answered %d %s, want 500 %s", w.Code, w.Body, api.CodeInternal)
	}
	if !strings.Contains(metricsOf(srv), "prestroid_panics_total{where=\"flush\"} 1\n") {
		t.Fatal("/metrics does not count the flush panic")
	}
	const sql = "SELECT a FROM t WHERE a > 5"
	want, err := (&Predictor{Model: &stubModel{}}).PredictSQL(sql)
	if err != nil {
		t.Fatal(err)
	}
	w = post(t, srv, "/v1/predict", `{"sql":"`+sql+`"}`)
	var got api.PredictResponse
	if err := json.Unmarshal(w.Body.Bytes(), &got); err != nil || w.Code != http.StatusOK || got.Prediction != want {
		t.Fatalf("the query after the panic answered %d %s, want 200 with %+v", w.Code, w.Body, want)
	}
}

// TestFlushPanicFailsItsBatch pins that a panic fails every job of the batch
// it happened in — the marked query and the one coalesced with it — and
// strands no waiter: the flush before it answers, and so does the next one.
func TestFlushPanicFailsItsBatch(t *testing.T) {
	m := &stubModel{entered: make(chan int, 64), release: make(chan struct{})}
	se, eng := oneShard(t, &Predictor{Model: panicModel{m}}, Config{MaxBatch: 8})
	reference := func(sql string) Prediction {
		p, err := (&Predictor{Model: &stubModel{}}).PredictSQL(sql)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	type result struct {
		sql string
		p   Prediction
		err error
	}
	results := make(chan result, 3)
	predict := func(sql string) {
		p, err := se.PredictSQL(sql)
		results <- result{sql, p, err}
	}

	// The first flush holds the model while the next batch queues behind it.
	first := "SELECT a FROM t WHERE a > 1"
	go predict(first)
	if n := <-m.entered; n != 1 {
		t.Fatalf("first flush of %d, want 1", n)
	}
	marked, coalesced := "SELECT "+panicMark+" FROM t", "SELECT b FROM t WHERE b > 2"
	go predict(marked)
	go predict(coalesced)
	for len(eng.jobs) != 2 {
		runtime.Gosched()
	}
	close(m.release)

	for i := 0; i < 3; i++ {
		r := <-results
		switch r.sql {
		case first:
			if r.err != nil || r.p != reference(first) {
				t.Fatalf("the flush before the panic answered %+v, %v", r.p, r.err)
			}
		default:
			if !errors.Is(r.err, errPanicked) {
				t.Fatalf("%q in the panicking batch returned %+v, %v; want errPanicked", r.sql, r.p, r.err)
			}
		}
	}
	if n := eng.tel.Panics.Load(); n != 1 {
		t.Fatalf("Panics = %d, want 1", n)
	}
	after := "SELECT c FROM t WHERE c > 3"
	if got, err := se.PredictSQL(after); err != nil || got != reference(after) {
		t.Fatalf("the query after the panic answered %+v, %v", got, err)
	}
	if v := m.violations.Load(); v != 0 {
		t.Fatalf("%d concurrent model calls", v)
	}
}

// TestSubmitPanicIs500 pins the containment of the serialised fallback: on a
// closed shard a query runs the model on its handler's goroutine, outside any
// flush, and a panic there answers 500 in the internal envelope, is counted
// under where="submit" on /metrics, leaves its encoding unrecycled, and the
// shard answers the next query.
func TestSubmitPanicIs500(t *testing.T) {
	m := &stubModel{}
	srv := NewServerConfig(&Predictor{Model: panicModel{m}}, Config{MaxBatch: 8})
	t.Cleanup(srv.Close)
	srv.Engine().Close()

	w := post(t, srv, "/v1/predict", `{"sql":"SELECT `+panicMark+` FROM t"}`)
	var env api.ErrorResponse
	if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil {
		t.Fatalf("body %q is no envelope: %v", w.Body, err)
	}
	if w.Code != http.StatusInternalServerError || env.Error.Code != api.CodeInternal {
		t.Fatalf("a panicking fallback answered %d %s, want 500 %s", w.Code, w.Body, api.CodeInternal)
	}
	metrics := metricsOf(srv)
	for _, series := range []string{`prestroid_panics_total{where="submit"} 1`, `prestroid_panics_total{where="flush"} 0`} {
		if !strings.Contains(metrics, series+"\n") {
			t.Fatalf("/metrics lacks %s", series)
		}
	}
	if n := m.recycled.Load(); n != 0 {
		t.Fatalf("the panicking round trip recycled %d encodings, want 0", n)
	}
	const sql = "SELECT a FROM t WHERE a > 5"
	want, err := (&Predictor{Model: &stubModel{}}).PredictSQL(sql)
	if err != nil {
		t.Fatal(err)
	}
	w = post(t, srv, "/v1/predict", `{"sql":"`+sql+`"}`)
	var got api.PredictResponse
	if err := json.Unmarshal(w.Body.Bytes(), &got); err != nil || w.Code != http.StatusOK || got.Prediction != want {
		t.Fatalf("the query after the panic answered %d %s, want 200 with %+v", w.Code, w.Body, want)
	}
	if n := m.recycled.Load(); n != 1 {
		t.Fatalf("the round trip after the panic recycled %d encodings, want 1", n)
	}
}
