package serve

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"prestroid/internal/api"
	"prestroid/internal/models"
	"prestroid/internal/workload"
)

// panicModel is a stub whose model round trip panics on a query holding
// panicMark, the way a model that trips over a bug would.
type panicModel struct{ *stubModel }

const panicMark = "panic_here"

func (m panicModel) PredictEncoded(enc any, cache models.ConvCache) float64 {
	if strings.Contains(enc.(*workload.Trace).SQL, panicMark) {
		panic("model blew up")
	}
	return m.stubModel.PredictEncoded(enc, cache)
}

// TestSubmitPanicIs500 pins the containment of the one model call: a query
// whose model call panics — on its handler's goroutine, where nothing but
// ShardedEngine.predict's recover stands between the panic and net/http — answers
// 500 in the internal envelope, is counted under where="model" on /metrics,
// leaves its encoding unrecycled and nobody counted busy, and gives the
// slot back: the next query answers 200 with the serialised reference's
// prediction, recycling its encoding. With the recover removed, the panic
// reaches this test's goroutine and the test binary dies.
func TestSubmitPanicIs500(t *testing.T) {
	m := &stubModel{}
	srv := NewServerConfig(&Predictor{Model: panicModel{m}}, Config{})
	t.Cleanup(srv.Close)

	w := post(t, srv, "/v1/predict", `{"sql":"SELECT `+panicMark+` FROM t"}`)
	var env api.ErrorResponse
	if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil {
		t.Fatalf("body %q is no envelope: %v", w.Body, err)
	}
	if w.Code != http.StatusInternalServerError || env.Error.Code != api.CodeInternal {
		t.Fatalf("a panicking model call answered %d %s, want 500 %s", w.Code, w.Body, api.CodeInternal)
	}
	if !strings.Contains(metricsOf(srv), `prestroid_panics_total{where="model"} 1`+"\n") {
		t.Fatal(`/metrics does not count the panic under where="model"`)
	}
	eng := srv.Engine()
	if n := m.recycled.Load(); n != 0 {
		t.Fatalf("the panicking round trip recycled %d encodings, want 0", n)
	}
	if n := eng.busy.Load(); n != 0 {
		t.Fatalf("%d handlers counted busy after the panic", n)
	}

	const sql = "SELECT a FROM t WHERE a > 5"
	want := reference(t, sql)
	w = post(t, srv, "/v1/predict", `{"sql":"`+sql+`"}`)
	var got api.PredictResponse
	if err := json.Unmarshal(w.Body.Bytes(), &got); err != nil || w.Code != http.StatusOK || got.Prediction != want {
		t.Fatalf("the query after the panic answered %d %s, want 200 with %+v", w.Code, w.Body, want)
	}
	if n := m.recycled.Load(); n != 1 {
		t.Fatalf("the round trip after the panic recycled %d encodings, want 1", n)
	}
	if n := eng.tel.Panics.Load(); n != 1 {
		t.Fatalf("Panics = %d, want 1", n)
	}
}

// TestFlushPanicIs500 pins containment over HTTP when the panicking call
// has company: a marked query that waited for the slot behind another
// query's call answers 500 in the internal envelope when its own call
// panics, the panic is counted once under where="model" on /metrics, and
// the slot passes on to the request that waited behind it, which answers
// 200 with the serialised reference's prediction.
func TestFlushPanicIs500(t *testing.T) {
	m := &stubModel{entered: make(chan int, 8), release: make(chan struct{})}
	srv := NewServerConfig(&Predictor{Model: panicModel{m}}, Config{})
	t.Cleanup(srv.Close)
	const held, sql = "SELECT a FROM t WHERE a > 1", "SELECT b FROM t WHERE b > 2"

	holder := make(chan error, 1)
	go func() {
		_, err := srv.Engine().PredictSQL(held)
		holder <- err
	}()
	<-m.entered
	marked, waiter := make(chan *httptest.ResponseRecorder, 1), make(chan *httptest.ResponseRecorder, 1)
	go func() { marked <- post(t, srv, "/v1/predict", `{"sql":"SELECT `+panicMark+` FROM t"}`) }()
	awaitParked(t, replicaWait, 1)
	go func() { waiter <- post(t, srv, "/v1/predict", `{"sql":"`+sql+`"}`) }()
	awaitParked(t, replicaWait, 2)
	close(m.release)

	if err := <-holder; err != nil {
		t.Fatal(err)
	}
	w := <-marked
	var env api.ErrorResponse
	if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil {
		t.Fatalf("body %q is no envelope: %v", w.Body, err)
	}
	if w.Code != http.StatusInternalServerError || env.Error.Code != api.CodeInternal {
		t.Fatalf("a panicking model call answered %d %s, want 500 %s", w.Code, w.Body, api.CodeInternal)
	}
	w = <-waiter
	var got api.PredictResponse
	if err := json.Unmarshal(w.Body.Bytes(), &got); err != nil || w.Code != http.StatusOK || got.Prediction != reference(t, sql) {
		t.Fatalf("the request waiting behind the panic answered %d %s, want 200 with %+v", w.Code, w.Body, reference(t, sql))
	}
	if !strings.Contains(metricsOf(srv), `prestroid_panics_total{where="model"} 1`+"\n") {
		t.Fatal(`/metrics does not count the panic once under where="model"`)
	}
}

// TestFlushPanicFailsItsBatch pins that a panic fails exactly the queries of
// its key — the marked query, and the identical miss that waited on its
// flight, which takes only an answer and so runs, and fails in, a call of its
// own — and strands no waiter: the call before it answers, so does the
// distinct query that waited for the slot alongside it, and so does the
// next query.
func TestFlushPanicFailsItsBatch(t *testing.T) {
	m := &stubModel{entered: make(chan int, 64), release: make(chan struct{})}
	se, eng := oneShard(t, &Predictor{Model: panicModel{m}}, Config{CacheSize: 8})
	type result struct {
		sql string
		p   Prediction
		err error
	}
	results := make(chan result, 4)
	predict := func(sql string) {
		p, err := se.PredictSQL(sql)
		results <- result{sql, p, err}
	}

	// The first call holds the slot while the rest queue behind it.
	first := "SELECT a FROM t WHERE a > 1"
	go predict(first)
	if n := <-m.entered; n != 1 {
		t.Fatalf("first call of %d rows, want 1", n)
	}
	marked, other := "SELECT "+panicMark+" FROM t", "SELECT b FROM t WHERE b > 2"
	go predict(marked)
	awaitParked(t, replicaWait, 1)
	go predict(marked)
	awaitParked(t, followerWait, 1)
	go predict(other)
	awaitParked(t, replicaWait, 2)
	close(m.release)

	for i := 0; i < 4; i++ {
		r := <-results
		switch r.sql {
		case marked:
			if !errors.Is(r.err, errPanicked) {
				t.Fatalf("%q returned %+v, %v; want errPanicked", r.sql, r.p, r.err)
			}
		default:
			if r.err != nil || r.p != reference(t, r.sql) {
				t.Fatalf("%q beside the panic answered %+v, %v", r.sql, r.p, r.err)
			}
		}
	}
	if n := eng.tel.Panics.Load(); n != 2 {
		t.Fatalf("Panics = %d, want 2: the leader's call and its follower's own", n)
	}
	after := "SELECT c FROM t WHERE c > 3"
	if got, err := se.PredictSQL(after); err != nil || got != reference(t, after) {
		t.Fatalf("the query after the panic answered %+v, %v", got, err)
	}
	if v, b := m.violations.Load(), eng.busy.Load(); v != 0 || b != 0 {
		t.Fatalf("%d concurrent model calls, %d handlers busy after all returned", v, b)
	}
}
