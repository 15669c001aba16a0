package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"prestroid/internal/logicalplan"
	"prestroid/internal/telemetry"
	"prestroid/internal/workload"
)

// waitEngine builds an unstarted engine whose admission inputs — queue
// depth and EWMA service time — are fully controlled: no batcher goroutine
// runs, so whatever the test enqueues stays queued.
func waitEngine(queueCap, queued int, serviceMicros float64) *Engine {
	e := &Engine{jobs: make(chan *predictJob, queueCap), tel: telemetry.NewShardGroup()}
	for i := 0; i < queued; i++ {
		e.jobs <- &predictJob{}
	}
	if serviceMicros > 0 {
		e.tel.ServiceTime.Observe(serviceMicros)
	}
	return e
}

// TestAdmitDetourFirstShedLast drives admit() through the contract the
// tentpole names: home while it is inside the bound, detour to the best
// peer when home exceeds it, and shed only when every candidate does.
func TestAdmitDetourFirstShedLast(t *testing.T) {
	// Bound 10ms. Home: 20 queued × 1ms = 20ms, over. Peer A: 5 × 1ms =
	// 5ms, inside. Peer B: 15 × 1ms = 15ms, over.
	home := waitEngine(64, 20, 1000)
	peerA := waitEngine(64, 5, 1000)
	peerB := waitEngine(64, 15, 1000)
	se := &ShardedEngine{shards: []*Engine{home, peerA, peerB}, maxEstWaitMicros: 10_000}

	if sh, _, shed := se.admit(home); shed || sh != peerA {
		t.Fatalf("overloaded home did not detour to the in-bound peer (got shed=%v)", shed)
	}

	// Drain peer A past the bound too: now every candidate exceeds it.
	for i := 0; i < 15; i++ {
		peerA.jobs <- &predictJob{}
	}
	sh, minWait, shed := se.admit(home)
	if !shed || sh != nil {
		t.Fatalf("all candidates over bound: admit returned %v, shed=%v", sh, shed)
	}
	// min est-wait across candidates = peer B's 15ms, the Retry-After basis.
	if minWait != 15_000 {
		t.Fatalf("shed minWait = %v µs, want best candidate 15000", minWait)
	}

	// A home inside the bound keeps its traffic without scanning peers.
	calm := waitEngine(64, 2, 1000)
	se2 := &ShardedEngine{shards: []*Engine{calm, peerB}, maxEstWaitMicros: 10_000}
	if sh, _, shed := se2.admit(calm); shed || sh != calm {
		t.Fatal("in-bound home lost its traffic")
	}
}

// TestAdmitColdShardAdmits pins the cold-start contract: with no
// service-time samples the estimate is 0, so a deep queue alone never
// sheds — admission control needs evidence to refuse work.
func TestAdmitColdShardAdmits(t *testing.T) {
	home := waitEngine(64, 50, 0) // deep queue, no samples
	se := &ShardedEngine{shards: []*Engine{home}, maxEstWaitMicros: 1}
	if _, _, shed := se.admit(home); shed {
		t.Fatal("cold shard shed work with zero service-time evidence")
	}
}

// TestShedSurfacesOverloadError checks the dispatcher's refusal: every
// shard over the bound yields an *OverloadError pricing a Retry-After of
// at least a second, charged to the home shard's Shed counter — and a
// home-cached template is still served, because a cache hit never queues.
func TestShedSurfacesOverloadError(t *testing.T) {
	sh0 := waitEngine(64, 20, 1000)
	sh1 := waitEngine(64, 20, 1000)
	for _, e := range []*Engine{sh0, sh1} {
		e.cache = newPredictionCache(4, &e.tel.CacheHits, &e.tel.CacheMisses)
	}
	se := &ShardedEngine{shards: []*Engine{sh0, sh1}, maxEstWaitMicros: 10_000}

	sql := keyForShard(t, se, 0)
	_, _, err := se.PredictSQLGenCtx(context.Background(), sql)
	var over *OverloadError
	if !errors.As(err, &over) {
		t.Fatalf("full overload returned %v, want *OverloadError", err)
	}
	if over.RetryAfter() < time.Second {
		t.Fatalf("Retry-After %v below the 1s floor", over.RetryAfter())
	}
	if got := sh0.tel.Shed.Load(); got != 1 {
		t.Fatalf("home shard Shed = %d, want 1", got)
	}
	if got := sh1.tel.Shed.Load(); got != 0 {
		t.Fatalf("peer shard charged a shed it did not decide: %d", got)
	}

	// A cached answer rides through the same overload untouched: the
	// engines are unstarted, so any path but the home cache would hang.
	want := Prediction{CPUMinutes: 42, Normalized: 0.5, PlanNodes: 3}
	sh0.cache.Put(CanonicalSQL(sql), want)
	got, _, err := se.PredictSQLGenCtx(context.Background(), sql)
	if err != nil || got != want {
		t.Fatalf("cache hit shed under overload: %+v, %v", got, err)
	}
}

// TestOverloadRetryAfterRoundsUp pins the back-off hint's rounding: whole
// seconds, never less than one, and always up — a hint rounded to nearest
// sends the client back up to half a second before the backlog has drained
// inside the bound, straight into a second 429.
func TestOverloadRetryAfterRoundsUp(t *testing.T) {
	for _, c := range []struct {
		overMicros float64 // estimated wait past the bound
		want       time.Duration
	}{
		{1, time.Second},
		{400_000, time.Second},
		{1_000_000, time.Second},
		{1_000_001, 2 * time.Second},
		{1_400_000, 2 * time.Second},
		{1_600_000, 2 * time.Second},
		{2_000_000, 2 * time.Second},
		{2_400_000, 3 * time.Second},
	} {
		e := &OverloadError{EstWaitMicros: 10_000 + c.overMicros, BoundMicros: 10_000}
		if got := e.RetryAfter(); got != c.want {
			t.Errorf("backlog %v µs past the bound: Retry-After %v, want %v", c.overMicros, got, c.want)
		}
	}
}

// TestExpiredDroppedBeforeDispatch checks the earliest deadline gate: work
// that arrives already expired is refused before canonical-key dispatch
// picks a batcher — the model never runs, nothing queues, and the expiry
// is charged to the home shard.
func TestExpiredDroppedBeforeDispatch(t *testing.T) {
	se, stubs := stubShards(t, 2, Config{MaxBatch: 4})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sql := keyForShard(t, se, 0)
	_, _, err := se.PredictSQLGenCtx(ctx, sql)
	var expired *ExpiredError
	if !errors.As(err, &expired) {
		t.Fatalf("expired request returned %v, want *ExpiredError", err)
	}
	for i, st := range stubs {
		if n := st.predicts.Load(); n != 0 {
			t.Fatalf("shard %d ran %d model calls for already-expired work", i, n)
		}
	}
	if got := se.shards[0].tel.Expired.Load(); got != 1 {
		t.Fatalf("home Expired = %d, want 1", got)
	}
	if q := len(se.shards[0].jobs); q != 0 {
		t.Fatalf("expired work reached the batcher queue (depth %d)", q)
	}
}

// TestFlushDropsExpiredJobs pins the flush-side filter: an expired job is
// removed before the single-flight dedup, so it neither occupies a model
// row nor stands in as the representative for a live duplicate of its key.
func TestFlushDropsExpiredJobs(t *testing.T) {
	m := &stubModel{}
	eng := &Engine{pred: &Predictor{Model: m}, model: m, cfg: Config{MaxBatch: 8}, tel: telemetry.NewShardGroup()}
	dead, cancel := context.WithCancel(context.Background())
	cancel()

	mk := func(ctx context.Context, sql string) *predictJob {
		plan, err := logicalplan.PlanSQL(sql)
		if err != nil {
			t.Fatal(err)
		}
		tr := &workload.Trace{SQL: sql, Plan: plan, Template: -1}
		return &predictJob{ctx: ctx, trace: tr, key: CanonicalSQL(sql), done: make(chan float64, 1)}
	}
	expiredDup := mk(dead, "SELECT a FROM t WHERE a > 1") // same key as live
	live := mk(context.Background(), "SELECT a FROM t WHERE a > 1")
	expiredOnly := mk(dead, "SELECT b FROM t WHERE b > 2")

	eng.flush([]*predictJob{expiredDup, live, expiredOnly})

	select {
	case y := <-live.done:
		if want := stubScore(live.trace); y != want {
			t.Fatalf("live duplicate of an expired job got %v, want %v", y, want)
		}
	default:
		t.Fatal("live job starved: expired duplicate poisoned the dedup")
	}
	select {
	case <-expiredOnly.done:
		t.Fatal("expired job received a result")
	default:
	}
	if n := m.predicts.Load(); n != 1 {
		t.Fatalf("model ran %d times, want 1 (expired rows dropped)", n)
	}
	if got := eng.tel.Coalesced.Load(); got != 1 {
		t.Fatalf("coalesced = %d, want only the live job", got)
	}

	// An all-expired batch never reaches the model and flushes nothing.
	eng.flush([]*predictJob{mk(dead, "SELECT c FROM t")})
	if n := m.predicts.Load(); n != 1 {
		t.Fatal("all-expired batch still ran the model")
	}
	if got := eng.tel.Batches.Load(); got != 1 {
		t.Fatalf("batches = %d, want 1 (empty flush uncounted)", got)
	}
}

// TestDeadlineExpiresWhileQueued is the mid-queue half of the deadline
// contract: a request that expires while waiting in the batcher queue
// unblocks with *ExpiredError, is dropped by the eventual flush without a
// model slot, and leaves no cache entry behind for its key.
func TestDeadlineExpiresWhileQueued(t *testing.T) {
	m := &stubModel{}
	eng := &Engine{pred: &Predictor{Model: m}, model: m, cfg: Config{MaxBatch: 8},
		jobs: make(chan *predictJob, 8), tel: telemetry.NewShardGroup()}
	eng.cache = newPredictionCache(8, &eng.tel.CacheHits, &eng.tel.CacheMisses)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	sql := "SELECT a FROM t WHERE a > 7"
	_, err := eng.miss(ctx, sql, CanonicalSQL(sql), tmplLookup{})
	var expired *ExpiredError
	if !errors.As(err, &expired) {
		t.Fatalf("queued expiry returned %v, want *ExpiredError", err)
	}
	if got := eng.tel.Expired.Load(); got != 1 {
		t.Fatalf("Expired = %d, want exactly 1", got)
	}

	// The dead job is still queued (no batcher runs); flushing it now must
	// not touch the model or the cache.
	j := <-eng.jobs
	eng.flush([]*predictJob{j})
	if n := m.predicts.Load(); n != 0 {
		t.Fatalf("expired job occupied a model slot (%d calls)", n)
	}
	if n, _ := eng.cache.Stats(); n != 0 {
		t.Fatalf("expired request left %d cache entries", n)
	}
}

// TestDeadlinesUnderConcurrentReloadRolls is the -race gate for the
// deadline machinery: clients with aggressive deadlines hammer the sharded
// identity while weight rolls replace the live engine under them. The invariants: the only error a client ever sees is expiry, no
// request observes a generation older than one it already saw for the same
// key (per-key monotonicity — the cache/generation state the issue names),
// and the engine still serves correctly afterwards.
func TestDeadlinesUnderConcurrentReloadRolls(t *testing.T) {
	pred := newTestPredictor(t)
	cfg := DefaultConfig()
	cfg.Replicas = 2
	cfg.MaxBatch = 4
	en := newTestEntry(t, pred, cfg)

	const clients, perClient = 8, 60
	var wg sync.WaitGroup
	errs := make(chan error, clients+1)
	var expiredSeen, served telemetry.Counter
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			lastGen := make(map[string]int64)
			for i := 0; i < perClient; i++ {
				sql := fmt.Sprintf("SELECT a FROM t WHERE a > %d", i%10)
				// Budgets straddle the real service time, so some expire at
				// dispatch, some in the queue, and some are served.
				budget := time.Duration(50+137*((c+i)%7)) * time.Microsecond
				ctx, cancel := context.WithTimeout(context.Background(), budget)
				_, gen, err := en.PredictSQLGenCtx(ctx, sql)
				cancel()
				if err != nil {
					var expired *ExpiredError
					if !errors.As(err, &expired) {
						errs <- fmt.Errorf("client %d: non-expiry error %v", c, err)
						return
					}
					expiredSeen.Inc()
					continue
				}
				served.Inc()
				if prev, ok := lastGen[sql]; ok && gen < prev {
					errs <- fmt.Errorf("client %d: key %q generation went backwards %d -> %d", c, sql, prev, gen)
					return
				}
				lastGen[sql] = gen
			}
		}(c)
	}

	// Roll weight bundles continuously while the clients run. The bundles
	// are built up front: perturbedBundle may not call t.Fatal off the test
	// goroutine.
	bundles := make([][]byte, 4)
	for r := range bundles {
		bundles[r], _ = perturbedBundle(t, pred, float64(r+1)*0.01)
	}
	rollStop := make(chan struct{})
	rollDone := make(chan struct{})
	go func() {
		defer close(rollDone)
		for r := 0; ; r++ {
			if _, err := en.ReloadWeights(bytes.NewReader(bundles[r%len(bundles)])); err != nil {
				errs <- fmt.Errorf("roll %d: %v", r, err)
				return
			}
			select {
			case <-rollStop:
				return
			case <-time.After(time.Millisecond):
			}
		}
	}()
	wg.Wait()
	close(rollStop)
	<-rollDone
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// The engine must still answer deadline-free traffic coherently.
	se := en.Live()
	p1, err := se.PredictSQL("SELECT a FROM t WHERE a > 1")
	if err != nil {
		t.Fatal(err)
	}
	p2, err := se.PredictSQL("SELECT a FROM t WHERE a > 1")
	if err != nil || p1 != p2 {
		t.Fatalf("post-roll predictions diverge: %+v vs %+v (%v)", p1, p2, err)
	}
	t.Logf("served %d, expired %d across %d requests",
		served.Load(), expiredSeen.Load(), clients*perClient)
}
