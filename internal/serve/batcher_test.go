package serve

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"prestroid/internal/models"
	"prestroid/internal/nn"
	"prestroid/internal/tensor"
	"prestroid/internal/workload"
)

// stubModel is a deterministic, instrumented servedModel: predictions are a
// pure function of the plan, Predict (and PredictInto, which is Predict
// copied into dst) blocks for delay to force queueing, and an in-flight
// counter catches any violation of the single-goroutine model contract.
// With entered set, Predict instead announces each call's batch size there
// and holds the call until release yields, so a test decides what queues
// behind a running flush. The stub encodes nothing: its encoding is nil, and
// it has no weights, so a roll rebuilds it as a fresh stub.
type stubModel struct {
	delay   time.Duration
	entered chan int
	release chan struct{}

	inFlight   atomic.Int32
	violations atomic.Int32
	predicts   atomic.Int64
	evicted    atomic.Int64

	mu         sync.Mutex
	batchSizes []int
}

func (m *stubModel) enter() {
	if m.inFlight.Add(1) > 1 {
		m.violations.Add(1)
	}
}
func (m *stubModel) exit() { m.inFlight.Add(-1) }

func (m *stubModel) Name() string                     { return "stub" }
func (m *stubModel) ParamCount() int                  { return 1 }
func (m *stubModel) BatchBytes(batchSize int) int     { return batchSize }
func (m *stubModel) Prepare(traces []*workload.Trace) { m.enter(); defer m.exit() }
func (m *stubModel) TrainBatch(batch []*workload.Trace, labels *tensor.Tensor) float64 {
	return 0
}

func (m *stubModel) Predict(batch []*workload.Trace) *tensor.Tensor {
	m.enter()
	defer m.exit()
	if m.delay > 0 {
		time.Sleep(m.delay)
	}
	if m.entered != nil {
		m.entered <- len(batch)
		<-m.release
	}
	m.predicts.Add(1)
	m.mu.Lock()
	m.batchSizes = append(m.batchSizes, len(batch))
	m.mu.Unlock()
	out := tensor.New(len(batch), 1)
	for i, tr := range batch {
		out.Data[i] = stubScore(tr)
	}
	return out
}

func (m *stubModel) PredictInto(batch []*workload.Trace, dst []float64) {
	copy(dst, m.Predict(batch).Data)
}

func (m *stubModel) Evict(traces []*workload.Trace) {
	m.enter()
	defer m.exit()
	m.evicted.Add(int64(len(traces)))
}

func (m *stubModel) EncodeTrace(*workload.Trace) any    { return nil }
func (m *stubModel) AdoptEncoding(*workload.Trace, any) {}
func (m *stubModel) SetConvCache(models.ConvCache)      {}
func (m *stubModel) Weights() []*nn.Param               { return nil }
func (m *stubModel) Clone() models.Model                { return &stubModel{} }
func (m *stubModel) RebuildWithPipeline(*models.Pipeline) (models.Model, error) {
	return &stubModel{}, nil
}

// stubScore is the stub's deterministic "prediction" for a trace.
func stubScore(tr *workload.Trace) float64 {
	return float64(tr.Plan.NodeCount()) / 100
}

// oneShard starts a one-shard engine over pred, closed when the test ends,
// and returns it with its shard, for tests that reach into the batcher.
func oneShard(t *testing.T, pred *Predictor, cfg Config) (*ShardedEngine, *Engine) {
	t.Helper()
	se := NewShardedEngine([]*Predictor{pred}, cfg)
	t.Cleanup(se.Close)
	return se, se.shards[0]
}

func stubEngine(t *testing.T, cfg Config, delay time.Duration) (*ShardedEngine, *Engine, *stubModel) {
	t.Helper()
	m := &stubModel{delay: delay}
	se, eng := oneShard(t, &Predictor{Model: m}, cfg)
	return se, eng, m
}

// TestEngineCoalesces drives 32 concurrent distinct queries through a slow
// stub model and checks that the batcher actually coalesces them, answers
// every one correctly, evicts every trace, and never calls the model from
// two goroutines at once.
func TestEngineCoalesces(t *testing.T) {
	se, eng, m := stubEngine(t, Config{MaxBatch: 8}, 2*time.Millisecond)
	const clients = 32
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sql := fmt.Sprintf("SELECT a FROM t WHERE a > %d", i)
			p, err := se.PredictSQL(sql)
			if err != nil {
				errs <- err
				return
			}
			want, err := (&Predictor{Model: &stubModel{}}).PredictSQL(sql)
			if err != nil {
				errs <- err
				return
			}
			if p.Normalized != want.Normalized || p.PlanNodes != want.PlanNodes {
				errs <- fmt.Errorf("query %d: coalesced %+v != serial %+v", i, p, want)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	em := eng.Snapshot()
	if em.Coalesced != clients {
		t.Fatalf("coalesced = %d, want %d", em.Coalesced, clients)
	}
	if em.Batches >= clients {
		t.Fatalf("no coalescing: %d batches for %d queries", em.Batches, clients)
	}
	maxBatch := 0
	m.mu.Lock()
	for _, sz := range m.batchSizes {
		if sz > maxBatch {
			maxBatch = sz
		}
	}
	m.mu.Unlock()
	if maxBatch < 2 {
		t.Fatalf("every batch had size 1 despite %d concurrent clients", clients)
	}
	if maxBatch > 8 {
		t.Fatalf("batch size %d exceeds MaxBatch 8", maxBatch)
	}
	if got := m.evicted.Load(); got != clients {
		t.Fatalf("evicted %d traces, want %d (memory would grow unbounded)", got, clients)
	}
	if v := m.violations.Load(); v != 0 {
		t.Fatalf("%d concurrent model calls observed; the contract requires serialisation", v)
	}
}

// TestBatchIsWhatQueuedDuringTheFlush pins batch formation when nobody is en
// route (the jobs go straight to e.jobs, so the count stays 0), without a
// clock: a lone job's flush reaches the model with nothing queued behind it —
// there is no second job to wait for and nothing to wait out — and the k jobs
// that queue while that flush is held become flushes of MaxBatch rows,
// remainder last, the moment it is released.
func TestBatchIsWhatQueuedDuringTheFlush(t *testing.T) {
	const maxBatch = 4
	for _, k := range []int{1, 3, 4, 6, 9} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			// entered never blocks the batcher (at most k+1 flushes), and
			// closing release lets a failed run's held flushes finish.
			_, eng, m := stubEngine(t, Config{MaxBatch: maxBatch}, 0)
			m.entered, m.release = make(chan int, k+1), make(chan struct{})
			t.Cleanup(func() { close(m.release) })
			var jobs []*predictJob
			enqueue := func() {
				j := newJob(t, eng, len(jobs))
				jobs = append(jobs, j)
				eng.jobs <- j
			}

			enqueue()
			if n := <-m.entered; n != 1 {
				t.Fatalf("the lone job reached the model in a batch of %d", n)
			}
			for i := 0; i < k; i++ {
				enqueue()
			}
			m.release <- struct{}{}
			flushes := int64(1)
			for left := k; left > 0; flushes++ {
				want := min(left, maxBatch)
				if n := <-m.entered; n != want {
					t.Fatalf("with %d jobs queued the next flush took %d rows, want %d", left, n, want)
				}
				m.release <- struct{}{}
				left -= want
			}
			for i, j := range jobs {
				if y := <-j.done; y != stubScore(j.trace) {
					t.Fatalf("job %d answered %v, want %v", i, y, stubScore(j.trace))
				}
			}
			if snap := eng.Snapshot(); snap.Batches != flushes || snap.Coalesced != int64(k+1) {
				t.Fatalf("batches/coalesced = %d/%d, want %d/%d", snap.Batches, snap.Coalesced, flushes, k+1)
			}
		})
	}
}

// holdEngine is a stub engine whose coalescer is free to hold — a hold that
// nothing ends hangs the test — and whose flushes announce their size on
// entered without ever blocking the batcher.
func holdEngine(t *testing.T) (*ShardedEngine, *Engine, *stubModel) {
	t.Helper()
	se, eng, m := stubEngine(t, Config{MaxBatch: 8, TemplateCacheSize: 8}, 0)
	m.entered, m.release = make(chan int, 64), make(chan struct{})
	close(m.release)
	return se, eng, m
}

// newJob is the i-th distinct query as the job a handler's submit would put on
// the engine's queue; the test sends it, and keeps the en-route count, itself.
func newJob(t *testing.T, eng *Engine, i int) *predictJob {
	t.Helper()
	sql := fmt.Sprintf("SELECT a FROM t WHERE a > %d", i)
	fe, err := eng.frontEnd(sql, tmplLookup{}, true)
	if err != nil {
		t.Fatal(err)
	}
	return &predictJob{ctx: context.Background(), trace: fe.trace, key: sql, done: make(chan float64, 1)}
}

// awaitHold returns once the batcher is parked in collect's select: holding a
// batch open, having acted on everything sent so far. Only the runtime can
// say so — its goroutine dump lists a parked select as "[select" — and a
// goroutine that has been woken but not yet run is not listed that way, so
// what the test does next cannot race the collector's previous re-check. A
// flush reaching the stub first means the batch was not held.
func awaitHold(t *testing.T, m *stubModel) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for {
		select {
		case n := <-m.entered:
			t.Fatalf("a batch of %d was flushed, want it held open", n)
		default:
		}
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if strings.Contains(g, " [select") && strings.Contains(g, "serve.(*Engine).collect(") {
				return
			}
		}
		runtime.Gosched()
	}
}

// wantFlush reads the next flush's size and checks the jobs it answered.
func wantFlush(t *testing.T, m *stubModel, want int, jobs ...*predictJob) {
	t.Helper()
	if n := <-m.entered; n != want {
		t.Fatalf("flushed a batch of %d, want %d", n, want)
	}
	for i, j := range jobs {
		if y := <-j.done; y != stubScore(j.trace) {
			t.Fatalf("job %d answered %v, want %v", i, y, stubScore(j.trace))
		}
	}
}

// TestHoldIsForEnRouteWork pins the one hold condition without a clock: a
// short batch stays open exactly while a handler is en route to the queue.
func TestHoldIsForEnRouteWork(t *testing.T) {
	t.Run("a lone miss is not held", func(t *testing.T) {
		se, eng, m := holdEngine(t)
		sql := "SELECT a FROM t WHERE a > 5"
		got, err := se.PredictSQL(sql)
		if err != nil {
			t.Fatal(err)
		}
		if want, _ := (&Predictor{Model: &stubModel{}}).PredictSQL(sql); got != want {
			t.Fatalf("lone miss answered %+v, want %+v", got, want)
		}
		wantFlush(t, m, 1)
		if snap := eng.Snapshot(); snap.Batches != 1 || eng.enRoute.Load() != 0 {
			t.Fatalf("batches = %d, en route = %d after one lone miss", snap.Batches, eng.enRoute.Load())
		}
	})
	t.Run("held until the en-route job arrives", func(t *testing.T) {
		_, eng, m := holdEngine(t)
		a, b := newJob(t, eng, 0), newJob(t, eng, 1)
		eng.enRoute.Add(1) // B's handler is in its front end
		eng.jobs <- a
		awaitHold(t, m)
		eng.enRoute.Add(-1) // lowered before the offer, as miss does
		eng.jobs <- b
		wantFlush(t, m, 2, a, b)
	})
	t.Run("released when the en-route query fails to parse", func(t *testing.T) {
		se, eng, m := holdEngine(t)
		a := newJob(t, eng, 0)
		// The template segment's mutex gates the failing query inside frontEnd:
		// it is counted en route and cannot leave until the test lets it.
		eng.tmplCache.mu.Lock()
		failed := make(chan error, 1)
		go func() {
			_, err := se.PredictSQL("SELEC (((")
			failed <- err
		}()
		for eng.enRoute.Load() != 1 {
			runtime.Gosched()
		}
		eng.jobs <- a
		awaitHold(t, m)
		eng.tmplCache.mu.Unlock()
		if err := <-failed; err == nil {
			t.Fatal("unparsable SQL predicted")
		}
		wantFlush(t, m, 1, a)
	})
	t.Run("a stale wake does not flush past someone en route", func(t *testing.T) {
		_, eng, m := holdEngine(t)
		a, b := newJob(t, eng, 0), newJob(t, eng, 1)
		eng.wake <- struct{}{} // left by a failure no batch was waiting on
		eng.enRoute.Add(1)
		eng.jobs <- a
		awaitHold(t, m)
		if len(eng.wake) != 0 {
			t.Fatal("the collector parked with a wake pending")
		}
		eng.enRoute.Add(-1)
		eng.jobs <- b
		wantFlush(t, m, 2, a, b)
	})
}

// TestHoldLiveness floods an engine whose only way out of a hold is the rule
// itself — 64 goroutines, one in three sending SQL that never yields a job —
// and requires every one of them to return.
func TestHoldLiveness(t *testing.T) {
	se, eng, m := holdEngine(t)
	m.entered = nil // nobody reads 1280 flushes' sizes
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for r := 0; r < 20; r++ {
				sql, bad := fmt.Sprintf("SELECT a FROM t WHERE a > %d", i*100+r), (i+r)%3 == 0
				if bad {
					sql = fmt.Sprintf("SELEC ((( %d", i*100+r)
				}
				if _, err := se.PredictSQL(sql); (err != nil) != bad {
					t.Errorf("%q: err = %v", sql, err)
				}
			}
		}(i)
	}
	wg.Wait()
	if n := eng.enRoute.Load(); n != 0 {
		t.Fatalf("%d handlers still counted en route after all returned", n)
	}
}

// panicEncoder is a stub model whose off-lock encode panics on a marked
// query, the way a front end that trips over a bug would.
type panicEncoder struct{ *stubModel }

const panicMark = "panic_here"

func (panicEncoder) EncodeTrace(tr *workload.Trace) any {
	if strings.Contains(tr.SQL, panicMark) {
		panic("front end blew up")
	}
	return nil
}

// TestHoldSurvivesFrontEndPanic pins that the en-route count cannot leak: a
// handler that leaves its front end by panic — net/http recovers it and the
// process lives on — still lowers the count and wakes the collector, so the
// batch held for it flushes and the shard holds for nobody afterwards.
func TestHoldSurvivesFrontEndPanic(t *testing.T) {
	m := &stubModel{entered: make(chan int, 64), release: make(chan struct{})}
	close(m.release)
	se, eng := oneShard(t, &Predictor{Model: panicEncoder{m}}, Config{MaxBatch: 8, TemplateCacheSize: 8})
	a := newJob(t, eng, 0)
	// As in TestHoldIsForEnRouteWork, the template segment's mutex keeps the
	// doomed query inside frontEnd, counted en route, until the test lets it go.
	eng.tmplCache.mu.Lock()
	recovered := make(chan any, 1)
	go func() {
		defer func() { recovered <- recover() }()
		se.PredictSQL("SELECT " + panicMark + " FROM t")
	}()
	for eng.enRoute.Load() != 1 {
		runtime.Gosched()
	}
	eng.jobs <- a
	awaitHold(t, m)
	eng.tmplCache.mu.Unlock()
	if r := <-recovered; r == nil {
		t.Fatal("the marked query's front end did not panic")
	}
	wantFlush(t, m, 1, a)
	if n := eng.enRoute.Load(); n != 0 {
		t.Fatalf("%d handlers counted en route after the only one panicked", n)
	}
	if _, err := se.PredictSQL("SELECT a FROM t WHERE a > 5"); err != nil {
		t.Fatal(err)
	}
	wantFlush(t, m, 1)
	if snap := eng.Snapshot(); snap.Batches != 2 {
		t.Fatalf("batches = %d, want A's and the lone miss's", snap.Batches)
	}
}

// TestCloseEndsAHold pins that Close never waits on somebody's front end: a
// batch held for a handler still en route flushes when the engine closes, and
// that handler, arriving late, answers through the serialised fallback.
func TestCloseEndsAHold(t *testing.T) {
	se, eng, m := holdEngine(t)
	a := newJob(t, eng, 0)
	eng.enRoute.Add(1) // a handler is in its front end, and stays there
	eng.jobs <- a
	awaitHold(t, m)
	se.Close()
	wantFlush(t, m, 1, a)
	if snap := eng.Snapshot(); snap.Batches != 1 {
		t.Fatalf("batches = %d after Close flushed the held job, want 1", snap.Batches)
	}
	eng.enRoute.Add(-1)
	sql := "SELECT a FROM t WHERE a > 5"
	got, err := se.PredictSQL(sql)
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := (&Predictor{Model: &stubModel{}}).PredictSQL(sql); got != want {
		t.Fatalf("post-close prediction %+v, want %+v", got, want)
	}
}

// TestEngineCacheHit checks that a repeated template — including cosmetic
// whitespace variants — is answered from the LRU without touching the model,
// and returns the identical Prediction.
func TestEngineCacheHit(t *testing.T) {
	se, eng, m := stubEngine(t, Config{MaxBatch: 4, CacheSize: 8}, 0)
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
	se, eng, _ := stubEngine(t, Config{MaxBatch: 1, CacheSize: 4}, 0)
	for i := 0; i < 10; i++ {
		if _, err := se.PredictSQL(fmt.Sprintf("SELECT a FROM t WHERE a > %d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if em := eng.Snapshot(); em.CacheEntries != 4 {
		t.Fatalf("cache entries = %d, want 4", em.CacheEntries)
	}
}

// TestEngineClosedFallsBack checks that predictions keep working on the
// serialised path after Close, and that Close is idempotent.
func TestEngineClosedFallsBack(t *testing.T) {
	se, _, m := stubEngine(t, Config{MaxBatch: 8}, 0)
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
	se, _, m := stubEngine(t, Config{MaxBatch: 16, CacheSize: 8}, 2*time.Millisecond)
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
	var rows int
	m.mu.Lock()
	for _, sz := range m.batchSizes {
		rows += sz
	}
	m.mu.Unlock()
	if rows >= clients {
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
