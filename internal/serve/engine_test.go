package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"prestroid/internal/api"
	"prestroid/internal/models"
	"prestroid/internal/nn"
	"prestroid/internal/telemetry"
	"prestroid/internal/tensor"
	"prestroid/internal/workload"
)

// stubModel is a deterministic, instrumented servedModel: its encoding is
// the trace itself, predictions are a pure function of the plan, and
// PredictEncoded blocks for delay to force waiting. An in-flight counter
// counts every call that overlaps another: on a one-slot engine, a breach of
// the slot bound. With entered set, PredictEncoded also announces each call's
// row count (always 1) there and holds the call until release yields, so a
// test decides what happens while a query holds a slot. It has no weights,
// so a roll rebuilds it as a fresh stub.
type stubModel struct {
	delay   time.Duration
	entered chan int
	release chan struct{}

	inFlight   atomic.Int32
	violations atomic.Int32
	predicts   atomic.Int64
	recycled   atomic.Int64
}

func (m *stubModel) Name() string                     { return "stub" }
func (m *stubModel) ParamCount() int                  { return 1 }
func (m *stubModel) BatchBytes(batchSize int) int     { return batchSize }
func (m *stubModel) Prepare(traces []*workload.Trace) {}
func (m *stubModel) TrainBatch(batch []*workload.Trace, labels *tensor.Tensor) float64 {
	return 0
}

func (m *stubModel) Predict(batch []*workload.Trace) *tensor.Tensor {
	out := tensor.New(len(batch), 1)
	for i, tr := range batch {
		out.Data[i] = stubScore(tr)
	}
	return out
}

func (m *stubModel) PredictEncoded(enc any, _ models.ConvCache) float64 {
	if m.inFlight.Add(1) > 1 {
		m.violations.Add(1)
	}
	defer m.inFlight.Add(-1)
	if m.delay > 0 {
		time.Sleep(m.delay)
	}
	if m.entered != nil {
		m.entered <- 1
		<-m.release
	}
	m.predicts.Add(1)
	return stubScore(enc.(*workload.Trace))
}

func (m *stubModel) EncodeTrace(tr *workload.Trace) any { return tr }
func (m *stubModel) Recycle(any)                        { m.recycled.Add(1) }
func (m *stubModel) Weights() []*nn.Param               { return nil }
func (m *stubModel) RebuildWithPipeline(*models.Pipeline) (models.Model, error) {
	return &stubModel{}, nil
}

// stubScore is the stub's deterministic "prediction" for a trace.
func stubScore(tr *workload.Trace) float64 {
	return float64(tr.Plan.NodeCount()) / 100
}

// engineRow is an engine seen through its one telemetry row: Snapshot
// returns the row, so a test reads the engine's counters off it directly.
type engineRow struct{ *ShardedEngine }

func (e engineRow) Snapshot() telemetry.ShardSnapshot { return e.ShardedEngine.Snapshot().Shards[0] }

// oneShard starts a one-slot engine over pred, closed when the test ends,
// and returns it with its row view, for tests that reach into the engine.
func oneShard(t *testing.T, pred *Predictor, cfg Config) (*ShardedEngine, engineRow) {
	t.Helper()
	cfg.Replicas = 1
	se := NewShardedEngine(pred, cfg)
	t.Cleanup(se.Close)
	return se, engineRow{se}
}

func stubEngine(t *testing.T, cfg Config, delay time.Duration) (*ShardedEngine, engineRow, *stubModel) {
	t.Helper()
	m := &stubModel{delay: delay}
	se, eng := oneShard(t, &Predictor{Model: m}, cfg)
	return se, eng, m
}

// parked counts the goroutines blocked in a select directly inside fn, as
// the runtime's goroutine dump lists them: "[select" in the header and fn as
// the first frame. A goroutine that has been woken but not yet run is not
// listed that way, so what a test does after seeing one parked cannot race
// the wait it saw.
func parked(fn string) int {
	buf := make([]byte, 1<<20)
	n := 0
	for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
		lines := strings.SplitN(g, "\n", 3)
		if len(lines) > 1 && strings.Contains(lines[0], " [select") && strings.Contains(lines[1], fn+"(") {
			n++
		}
	}
	return n
}

// awaitParked returns once n goroutines are parked in fn's select: a slot
// wait is "serve.(*ShardedEngine).take", a single-flight follower's wait
// "serve.(*ShardedEngine).predictKey". The clock only bounds a wait that
// would otherwise hang the test when the goroutines park somewhere else.
func awaitParked(t *testing.T, fn string, n int) {
	t.Helper()
	for give := time.Now().Add(30 * time.Second); parked(fn) < n; runtime.Gosched() {
		if time.Now().After(give) {
			t.Fatalf("%d goroutines parked in %s after 30 s, want %d", parked(fn), fn, n)
		}
	}
}

const (
	replicaWait  = "serve.(*ShardedEngine).take"
	followerWait = "serve.(*ShardedEngine).predictKey"
)

// gatedStub is a stub engine whose model calls each announce themselves on
// entered and then wait until the test calls let, which lets every call
// through from then on, so the test decides what happens while a query holds
// the slot. The cleanup lets them through for a test that failed mid-way.
func gatedStub(t *testing.T, cfg Config) (se *ShardedEngine, eng engineRow, m *stubModel, let func()) {
	t.Helper()
	se, eng, m = stubEngine(t, cfg, 0)
	// entered has room for every call a test makes, so announcing one never
	// blocks the model.
	m.entered, m.release = make(chan int, 64), make(chan struct{})
	var once sync.Once
	let = func() { once.Do(func() { close(m.release) }) }
	t.Cleanup(let)
	return se, eng, m, let
}

// reference is the serialised path's answer for sql, on a fresh stub.
func reference(t *testing.T, sql string) Prediction {
	t.Helper()
	p, err := (&Predictor{Model: &stubModel{}}).PredictSQL(sql)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// flying reports whether key has a flight in the air on e: a leader has
// joined and not yet landed it.
func flying(e engineRow, key string) bool {
	e.flightMu.Lock()
	defer e.flightMu.Unlock()
	return e.inflight[key] != nil
}

// TestEngineCoalesces drives 32 concurrent distinct misses through a
// one-slot engine: each runs its own model call, one at a time, answers what
// the serialised reference answers, and recycles its encoding; the model
// sees one call per query, the
// telemetry counts each call answering (coalescing) its one query, and
// nobody is busy once all have returned. Identical misses share a call: TestBatchIsWhatQueuedDuringTheFlush.
func TestEngineCoalesces(t *testing.T) {
	se, eng, m := stubEngine(t, Config{}, 0)
	const clients = 32
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		sql := fmt.Sprintf("SELECT a FROM t WHERE a > %d", i)
		want := reference(t, sql)
		wg.Add(1)
		go func() {
			defer wg.Done()
			p, err := se.PredictSQL(sql)
			if err != nil {
				t.Error(err)
				return
			}
			if p != want {
				t.Errorf("%q: engine %+v != serial %+v", sql, p, want)
			}
		}()
	}
	wg.Wait()
	snap := eng.Snapshot()
	if snap.Batches != clients || snap.Coalesced != clients || m.predicts.Load() != clients {
		t.Fatalf("batches/coalesced/model calls = %d/%d/%d, want %d each", snap.Batches, snap.Coalesced, m.predicts.Load(), clients)
	}
	if r := m.recycled.Load(); r != clients {
		t.Fatalf("recycled %d encodings, want %d", r, clients)
	}
	if v := m.violations.Load(); v != 0 {
		t.Fatalf("%d concurrent model calls observed; the contract requires serialisation", v)
	}
	if n := eng.busy.Load(); n != 0 {
		t.Fatalf("%d handlers still counted busy after all returned", n)
	}
}

// TestBatchIsWhatQueuedDuringTheFlush pins single-flight without a clock:
// the queries one model call answers are its own and exactly the k identical
// misses that queued on its flight while it ran — they wait for its row
// instead of costing rows of their own — and an identical miss arriving after
// it landed runs a call of its own (the prediction cache is off, so nothing
// else answers it).
func TestBatchIsWhatQueuedDuringTheFlush(t *testing.T) {
	const sql = "SELECT a FROM t WHERE a > 5"
	want := reference(t, sql)
	for _, k := range []int{1, 3, 4, 6, 9} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			se, eng, m, let := gatedStub(t, Config{})
			answers := make(chan Prediction, k+1)
			ask := func() {
				p, err := se.PredictSQL(sql)
				if err != nil {
					t.Error(err)
				}
				answers <- p
			}
			go ask()
			if n := <-m.entered; n != 1 {
				t.Fatalf("the lone miss reached the model in a batch of %d", n)
			}
			for i := 0; i < k; i++ {
				go ask()
			}
			awaitParked(t, followerWait, k)
			let()
			for i := 0; i <= k; i++ {
				if p := <-answers; p != want {
					t.Fatalf("answer %d = %+v, want %+v", i, p, want)
				}
			}
			if snap := eng.Snapshot(); m.predicts.Load() != 1 || snap.Batches != 1 || snap.Coalesced != int64(k+1) {
				t.Fatalf("model calls/batches/coalesced = %d/%d/%d, want 1/1/%d", m.predicts.Load(), snap.Batches, snap.Coalesced, k+1)
			}
			if p, err := se.PredictSQL(sql); err != nil || p != want {
				t.Fatalf("the miss after the flight answered %+v, %v; want %+v", p, err, want)
			}
			if snap := eng.Snapshot(); m.predicts.Load() != 2 || snap.Batches != 2 || snap.Coalesced != int64(k+2) {
				t.Fatalf("after a later miss: model calls/batches/coalesced = %d/%d/%d, want 2/2/%d", m.predicts.Load(), snap.Batches, snap.Coalesced, k+2)
			}
		})
	}
}

// TestHoldIsForEnRouteWork pins, without a clock, that a miss is held only
// for work already en route: behind a model call that holds the engine's
// slot, or on the flight of an identical miss that is computing. A miss
// that finds neither runs at once; a miss whose leader fails is released and
// runs its own query; and when a failed leader wakes several followers, one
// of them leads and the rest follow it, so the key still costs one call.
func TestHoldIsForEnRouteWork(t *testing.T) {
	const held = "SELECT a FROM t WHERE a > 1"
	const sql = "SELECT b FROM t WHERE b > 2"
	t.Run("a lone miss is not held", func(t *testing.T) {
		se, eng, m, let := gatedStub(t, Config{})
		answer := make(chan Prediction, 1)
		go func() {
			p, err := se.PredictSQL(sql)
			if err != nil {
				t.Error(err)
			}
			answer <- p
		}()
		if n := <-m.entered; n != 1 {
			t.Fatalf("the lone miss reached the model in a batch of %d", n)
		}
		if r, f, b := parked(replicaWait), parked(followerWait), eng.busy.Load(); r != 0 || f != 0 || b != 1 {
			t.Fatalf("with one miss on the model: %d slot waits, %d follower waits, %d busy; want 0, 0, 1", r, f, b)
		}
		let()
		if p := <-answer; p != reference(t, sql) {
			t.Fatalf("lone miss answered %+v, want %+v", p, reference(t, sql))
		}
		if snap := eng.Snapshot(); snap.Batches != 1 || eng.busy.Load() != 0 {
			t.Fatalf("batches = %d, busy = %d after one lone miss", snap.Batches, eng.busy.Load())
		}
	})
	t.Run("held until the en-route job arrives", func(t *testing.T) {
		se, eng, m, let := gatedStub(t, Config{})
		answers := make(chan Prediction, 2)
		ask := func(sql string) {
			p, err := se.PredictSQL(sql)
			if err != nil {
				t.Error(err)
			}
			answers <- p
		}
		go ask(held)
		<-m.entered
		go ask(sql)
		awaitParked(t, replicaWait, 1)
		if n, b := m.predicts.Load(), eng.busy.Load(); n != 0 || b != 2 {
			t.Fatalf("with a miss held behind the slot: %d model calls done, %d busy; want 0 and 2", n, b)
		}
		let()
		got := map[Prediction]bool{<-answers: true, <-answers: true}
		if !got[reference(t, held)] || !got[reference(t, sql)] {
			t.Fatalf("answers %v, want the held query's and its waiter's", got)
		}
		if snap := eng.Snapshot(); snap.Batches != 2 || m.violations.Load() != 0 {
			t.Fatalf("batches = %d with %d concurrent model calls, want 2 and none", snap.Batches, m.violations.Load())
		}
	})
	t.Run("released when the en-route query fails to parse", func(t *testing.T) {
		se, eng, m, _ := gatedStub(t, Config{})
		const bad = "SELEC ((("
		// The test holds the key's flight as the en-route leader would, so
		// the misses it starts park on it; it then lands the flight with no
		// answer, as a leader whose query failed does.
		f, lead := se.join(CanonicalSQL(bad))
		if !lead {
			t.Fatal("the test did not lead the key's flight")
		}
		errs := make(chan error, 2)
		ask := func() {
			_, err := se.PredictSQL(bad)
			errs <- err
		}
		go ask()
		go ask()
		awaitParked(t, followerWait, 2)
		se.land(CanonicalSQL(bad), f)
		for i := 0; i < 2; i++ {
			var expired *ExpiredError
			if err := <-errs; err == nil || errors.As(err, &expired) || !strings.HasPrefix(err.Error(), "parse: ") {
				t.Fatalf("a miss of unparsable SQL returned %v, want its own parse error", err)
			}
		}
		if n := m.predicts.Load(); n != 0 || flying(eng, CanonicalSQL(bad)) {
			t.Fatalf("%d model calls for unparsable SQL, flight still up: %v", n, flying(eng, CanonicalSQL(bad)))
		}
	})
	t.Run("a stale wake does not flush past someone en route", func(t *testing.T) {
		se, eng, m, let := gatedStub(t, Config{CacheSize: 8})
		holder := make(chan error, 1)
		go func() {
			_, err := se.PredictSQL(held)
			holder <- err
		}()
		<-m.entered
		ctx, cancel := context.WithCancel(context.Background())
		leader := make(chan error, 1)
		go func() {
			_, _, err := se.PredictSQLGenCtx(ctx, sql)
			leader <- err
		}()
		awaitParked(t, replicaWait, 1)
		followers := make(chan Prediction, 2)
		for i := 0; i < 2; i++ {
			go func() {
				p, err := se.PredictSQL(sql)
				if err != nil {
					t.Error(err)
				}
				followers <- p
			}()
		}
		awaitParked(t, followerWait, 2)
		cancel()
		var expired *ExpiredError
		if err := <-leader; !errors.As(err, &expired) {
			t.Fatalf("a leader past its deadline returned %v, want *ExpiredError", err)
		}
		// The leader's flight has landed, so a follower parked now waits on
		// its successor's: one woken follower leads, the other follows it.
		awaitParked(t, replicaWait, 1)
		awaitParked(t, followerWait, 1)
		let()
		if err := <-holder; err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			if p := <-followers; p != reference(t, sql) {
				t.Fatalf("a follower of an expired leader answered %+v, want %+v", p, reference(t, sql))
			}
		}
		if snap := eng.Snapshot(); m.predicts.Load() != 2 || snap.Batches != 2 || snap.Coalesced != 3 {
			t.Fatalf("model calls/batches/coalesced = %d/%d/%d, want 2/2/3: the holder's call and one for both followers",
				m.predicts.Load(), snap.Batches, snap.Coalesced)
		}
	})
}

// TestHoldLiveness floods a one-slot engine with 64 goroutines of 20 misses each,
// every key asked by four of them at once and one query in three SQL that
// never reaches the model, so slot waits and flights end every way they
// can — by an answer, by a parse error, by a follower leading after its
// leader failed — and requires every request to return as it should, nobody
// counted busy and no flight left in the air.
func TestHoldLiveness(t *testing.T) {
	se, eng, m := stubEngine(t, Config{TemplateCacheSize: 8}, 0)
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for r := 0; r < 20; r++ {
				n := (i%16)*100 + r
				sql, bad := fmt.Sprintf("SELECT a FROM t WHERE a > %d", n), (i+r)%3 == 0
				if bad {
					sql = fmt.Sprintf("SELEC ((( %d", n)
				}
				if _, err := se.PredictSQL(sql); (err != nil) != bad {
					t.Errorf("%q: err = %v", sql, err)
				}
			}
		}(i)
	}
	wg.Wait()
	if n := eng.busy.Load(); n != 0 {
		t.Fatalf("%d handlers still counted busy after all returned", n)
	}
	eng.flightMu.Lock()
	left := len(eng.inflight)
	eng.flightMu.Unlock()
	if left != 0 {
		t.Fatalf("%d flights still in the air after all returned", left)
	}
	if v := m.violations.Load(); v != 0 {
		t.Fatalf("%d concurrent model calls observed", v)
	}
}

// panicEncoder is a stub model whose encode panics on a marked query, the
// way a front end that trips over a bug would, once gate is closed.
type panicEncoder struct {
	*stubModel
	gate chan struct{}
}

func (p panicEncoder) EncodeTrace(tr *workload.Trace) any {
	if strings.Contains(tr.SQL, panicMark) {
		<-p.gate
		panic("front end blew up")
	}
	return tr
}

// TestHoldSurvivesFrontEndPanic pins that a flight cannot leak: a leader that
// leaves its front end by panic — net/http recovers it and the process lives
// on — still lands its flight, so the follower held on it is released and
// runs its own query (whose front end panics in turn), nobody is counted busy
// and the next miss of the key computes afresh instead of waiting forever.
func TestHoldSurvivesFrontEndPanic(t *testing.T) {
	m := &stubModel{}
	gate := make(chan struct{})
	se, eng := oneShard(t, &Predictor{Model: panicEncoder{m, gate}}, Config{TemplateCacheSize: 8})
	sql := "SELECT " + panicMark + " FROM t"
	recovered := make(chan any, 3)
	ask := func() {
		defer func() { recovered <- recover() }()
		se.PredictSQL(sql)
	}
	// The gate keeps the doomed leader inside its encode until the test lets
	// it go.
	go ask()
	for !flying(eng, CanonicalSQL(sql)) {
		runtime.Gosched()
	}
	go ask()
	awaitParked(t, followerWait, 1)
	close(gate)
	for i := 0; i < 2; i++ {
		if r := <-recovered; r == nil {
			t.Fatal("a marked query's front end did not panic")
		}
	}
	if flying(eng, CanonicalSQL(sql)) || eng.busy.Load() != 0 {
		t.Fatalf("after both panicked: flight up %v, %d busy", flying(eng, CanonicalSQL(sql)), eng.busy.Load())
	}
	go ask()
	if r := <-recovered; r == nil {
		t.Fatal("the next miss of the key did not run its own front end")
	}
	if _, err := se.PredictSQL("SELECT a FROM t WHERE a > 5"); err != nil {
		t.Fatal(err)
	}
	if snap := eng.Snapshot(); snap.Batches != 1 || m.predicts.Load() != 1 {
		t.Fatalf("batches = %d, model calls = %d; want only the unmarked miss's", snap.Batches, m.predicts.Load())
	}
}

// TestCloseEndsAHold pins that Close never waits on a query in flight, nor
// cuts one short: closing an engine while one miss holds its slot and
// another waits for it returns at once, and the hold ends as it would have —
// both answer when the model call finishes — and a query after the close
// answers too.
func TestCloseEndsAHold(t *testing.T) {
	se, eng, m, let := gatedStub(t, Config{})
	const held, waiting, after = "SELECT a FROM t WHERE a > 1", "SELECT b FROM t WHERE b > 2", "SELECT c FROM t WHERE c > 3"
	answers := make(chan Prediction, 2)
	ask := func(sql string) {
		p, err := se.PredictSQL(sql)
		if err != nil {
			t.Error(err)
		}
		answers <- p
	}
	go ask(held)
	<-m.entered
	go ask(waiting)
	awaitParked(t, replicaWait, 1)
	se.Close()
	se.Close()
	let()
	got := map[Prediction]bool{<-answers: true, <-answers: true}
	if !got[reference(t, held)] || !got[reference(t, waiting)] {
		t.Fatalf("answers %v across a Close, want the held query's and its waiter's", got)
	}
	if p, err := se.PredictSQL(after); err != nil || p != reference(t, after) {
		t.Fatalf("post-close prediction %+v, %v; want %+v", p, err, reference(t, after))
	}
	if snap := eng.Snapshot(); snap.Batches != 3 || m.violations.Load() != 0 {
		t.Fatalf("batches = %d with %d concurrent model calls, want 3 and none", snap.Batches, m.violations.Load())
	}
}

// TestDeadlineExpiresWhileQueued pins the deadline rule of the slot wait
// over HTTP: a request whose deadline passes while another query holds the
// engine's slot gives the wait up, answers 504 deadline_expired, counts one
// expiry, never reaches the model and leaves no cache entry; the query
// holding the slot answers as usual. The deadline is the request
// context's, cancelled by the test: a Request-Timeout header derives the
// request's deadline from it.
func TestDeadlineExpiresWhileQueued(t *testing.T) {
	m := &stubModel{entered: make(chan int, 1), release: make(chan struct{})}
	srv := NewServerConfig(&Predictor{Model: m}, Config{CacheSize: 8})
	t.Cleanup(srv.Close)
	eng := engineRow{srv.Engine()}

	const held = "SELECT a FROM t WHERE a > 1"
	holder := make(chan error, 1)
	go func() {
		_, err := srv.Engine().PredictSQL(held)
		holder <- err
	}()
	<-m.entered

	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest(http.MethodPost, "/v1/predict", strings.NewReader(`{"sql":"SELECT b FROM t WHERE b > 2"}`)).WithContext(ctx)
	req.Header.Set("Request-Timeout", "1h")
	w := httptest.NewRecorder()
	served := make(chan struct{})
	go func() {
		srv.ServeHTTP(w, req)
		close(served)
	}()
	awaitParked(t, replicaWait, 1)
	if snap := eng.Snapshot(); snap.Queued != 2 {
		t.Fatalf("busy gauge = %d with one query on the slot and one waiting, want 2", snap.Queued)
	}
	cancel()
	<-served
	var env api.ErrorResponse
	if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil || w.Code != http.StatusGatewayTimeout || env.Error.Code != api.CodeDeadlineExpired {
		t.Fatalf("a request expiring in the slot wait answered %d %s, want 504 %s", w.Code, w.Body, api.CodeDeadlineExpired)
	}

	close(m.release)
	if err := <-holder; err != nil {
		t.Fatal(err)
	}
	if n := m.predicts.Load(); n != 1 {
		t.Fatalf("model ran %d times, want only the holder's call", n)
	}
	if n := eng.tel.Expired.Load(); n != 1 {
		t.Fatalf("Expired = %d, want 1", n)
	}
	if n, _ := eng.cache.Stats(); n != 1 {
		t.Fatalf("cache holds %d entries, want only the holder's", n)
	}
	if n := eng.busy.Load(); n != 0 {
		t.Fatalf("%d handlers counted busy after both returned", n)
	}
}

// TestFollowerWaitIsAbandonable pins that a follower whose own deadline
// passes gives its wait on the leader's flight up with *ExpiredError and
// leaves the leader to answer.
func TestFollowerWaitIsAbandonable(t *testing.T) {
	const sql = "SELECT b FROM t WHERE b > 2"
	se, eng, m, let := gatedStub(t, Config{CacheSize: 8})
	leader := make(chan error, 1)
	go func() {
		_, err := se.PredictSQL(sql)
		leader <- err
	}()
	<-m.entered
	ctx, cancel := context.WithCancel(context.Background())
	follower := make(chan error, 1)
	go func() {
		_, _, err := se.PredictSQLGenCtx(ctx, sql)
		follower <- err
	}()
	awaitParked(t, followerWait, 1)
	cancel()
	var expired *ExpiredError
	if err := <-follower; !errors.As(err, &expired) {
		t.Fatalf("a follower past its deadline returned %v, want *ExpiredError", err)
	}
	let()
	if err := <-leader; err != nil {
		t.Fatal(err)
	}
	if n := eng.tel.Expired.Load(); n != 1 || m.predicts.Load() != 1 {
		t.Fatalf("Expired = %d after %d model calls, want 1 after 1", n, m.predicts.Load())
	}
}

// TestFlushDropsExpiredJobs pins that expired work is dropped before the
// model and never stands in for live work: a leader whose deadline passes in
// the slot wait answers *ExpiredError without a model call, and its live
// follower does not inherit that expiry but leads the key itself and answers.
func TestFlushDropsExpiredJobs(t *testing.T) {
	const held = "SELECT a FROM t WHERE a > 1"
	const sql = "SELECT b FROM t WHERE b > 2"
	se, eng, m, let := gatedStub(t, Config{CacheSize: 8})
	holder := make(chan error, 1)
	go func() {
		_, err := se.PredictSQL(held)
		holder <- err
	}()
	<-m.entered
	ctx, cancel := context.WithCancel(context.Background())
	leader := make(chan error, 1)
	go func() {
		_, _, err := se.PredictSQLGenCtx(ctx, sql)
		leader <- err
	}()
	awaitParked(t, replicaWait, 1)
	follower := make(chan Prediction, 1)
	go func() {
		p, err := se.PredictSQL(sql)
		if err != nil {
			t.Error(err)
		}
		follower <- p
	}()
	awaitParked(t, followerWait, 1)
	cancel()
	var expired *ExpiredError
	if err := <-leader; !errors.As(err, &expired) {
		t.Fatalf("a leader past its deadline returned %v, want *ExpiredError", err)
	}
	awaitParked(t, replicaWait, 1) // the follower, leading now
	let()
	if err := <-holder; err != nil {
		t.Fatal(err)
	}
	if p := <-follower; p != reference(t, sql) {
		t.Fatalf("the follower of an expired leader answered %+v, want %+v", p, reference(t, sql))
	}
	if n := m.predicts.Load(); n != 2 || eng.tel.Expired.Load() != 1 {
		t.Fatalf("%d model calls and %d expiries, want the holder's and the follower's, and the leader's", n, eng.tel.Expired.Load())
	}
}

// TestEngineCacheHit checks that a repeated template — including cosmetic
// whitespace variants — is answered from the LRU without touching the model,
// and returns the identical Prediction.
func TestEngineCacheHit(t *testing.T) {
	se, eng, m := stubEngine(t, Config{CacheSize: 8}, 0)
	first, err := se.PredictSQL("SELECT a FROM t WHERE a > 5")
	if err != nil {
		t.Fatal(err)
	}
	again, err := se.PredictSQL("SELECT a FROM t WHERE a > 5")
	if err != nil {
		t.Fatal(err)
	}
	spaced, err := se.PredictSQL("SELECT   a\n\tFROM t   WHERE a > 5")
	if err != nil {
		t.Fatal(err)
	}
	if first != again || first != spaced {
		t.Fatalf("cache returned different predictions: %+v / %+v / %+v", first, again, spaced)
	}
	if got := m.predicts.Load(); got != 1 {
		t.Fatalf("model ran %d times for one template, want 1", got)
	}
	em := eng.Snapshot()
	if em.CacheHits != 2 || em.CacheMisses != 1 {
		t.Fatalf("cache counters = %d hits / %d misses, want 2/1", em.CacheHits, em.CacheMisses)
	}
}

// TestEngineCacheBounded checks LRU eviction keeps the entry count at the
// configured cap.
func TestEngineCacheBounded(t *testing.T) {
	se, eng, _ := stubEngine(t, Config{CacheSize: 4}, 0)
	for i := 0; i < 10; i++ {
		if _, err := se.PredictSQL(fmt.Sprintf("SELECT a FROM t WHERE a > %d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if em := eng.Snapshot(); em.CacheEntries != 4 {
		t.Fatalf("cache entries = %d, want 4", em.CacheEntries)
	}
}

// TestEngineClosedFallsBack checks that an engine answers after Close as it
// did before — a retired engine still serves its stragglers — and that Close
// is idempotent.
func TestEngineClosedFallsBack(t *testing.T) {
	se, _, m := stubEngine(t, Config{}, 0)
	want, err := se.PredictSQL("SELECT a FROM t")
	if err != nil {
		t.Fatal(err)
	}
	se.Close()
	se.Close()
	got, err := se.PredictSQL("SELECT b FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if got.Normalized != want.Normalized {
		t.Fatalf("post-close prediction diverged: %v vs %v", got.Normalized, want.Normalized)
	}
	if v := m.violations.Load(); v != 0 {
		t.Fatalf("%d concurrent model calls after close", v)
	}
}

// TestEngineSingleFlight checks that a cold burst of identical queries is
// deduplicated inside the batch: the model sees one row, every caller gets
// the same answer.
func TestEngineSingleFlight(t *testing.T) {
	se, _, m := stubEngine(t, Config{CacheSize: 8}, 2*time.Millisecond)
	const clients = 8
	results := make([]Prediction, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, err := se.PredictSQL("SELECT a FROM t WHERE a > 5")
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = p
		}(i)
	}
	wg.Wait()
	for i := 1; i < clients; i++ {
		if results[i] != results[0] {
			t.Fatalf("result %d diverged: %+v vs %+v", i, results[i], results[0])
		}
	}
	if rows := m.predicts.Load(); rows >= clients {
		t.Fatalf("model predicted %d rows for %d identical in-flight queries; single-flight should dedup", rows, clients)
	}
}

func TestCanonicalSQL(t *testing.T) {
	cases := []struct{ in, want string }{
		{"SELECT a FROM t", "SELECT a FROM t"},
		{"  SELECT   a \n\tFROM  t  ", "SELECT a FROM t"},
		{"SELECT a FROM t WHERE name = 'a  b'", "SELECT a FROM t WHERE name = 'a  b'"},
		{"SELECT a FROM t WHERE name =   'a  b'  AND x > 1", "SELECT a FROM t WHERE name = 'a  b' AND x > 1"},
		{"select A from T", "select A from T"}, // case is preserved
		// Comments are stripped like the lexer strips them, so a comment
		// that swallows a clause yields a different key than one that ends
		// at a newline before the clause.
		{"SELECT a FROM t -- note\nWHERE x >= 2", "SELECT a FROM t WHERE x >= 2"},
		{"SELECT a FROM t -- note WHERE x >= 2", "SELECT a FROM t"},
		{"SELECT a - b FROM t", "SELECT a - b FROM t"}, // lone minus is not a comment
		{"SELECT a FROM t WHERE name = '-- not a comment'", "SELECT a FROM t WHERE name = '-- not a comment'"},
	}
	for _, tc := range cases {
		if got := CanonicalSQL(tc.in); got != tc.want {
			t.Errorf("CanonicalSQL(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
	if CanonicalSQL("SELECT a FROM t -- note\nWHERE x >= 2") == CanonicalSQL("SELECT a FROM t -- note WHERE x >= 2") {
		t.Fatal("queries with different token streams share a cache key")
	}
}
