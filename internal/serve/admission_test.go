package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"prestroid/internal/telemetry"
)

// waitEngine builds a model-less engine of the given slot count whose
// admission inputs — handlers waiting for or holding a slot, and EWMA
// service time — are fully controlled.
func waitEngine(busy int, serviceMicros float64, replicas int) *ShardedEngine {
	se := &ShardedEngine{tel: telemetry.NewShardGroup(), slots: make(chan struct{}, replicas), gen: initialGeneration}
	se.busy.Store(int64(busy))
	if serviceMicros > 0 {
		se.tel.ServiceTime.Observe(serviceMicros)
	}
	return se
}

// TestAdmitDetourFirstShedLast drives admit() through the pool's rule: a
// miss is admitted while a replica is free, and while busy × service time ÷
// replicas is inside the bound — every replica counts, so load one replica
// could not carry spills onto the others before anything is refused — and
// shed, priced at that estimate, once it is past.
func TestAdmitDetourFirstShedLast(t *testing.T) {
	// Bound 10 ms, 1 ms a call. 15 busy handlers are 15 ms on one replica,
	// over; 5 ms over three, inside.
	one, three := waitEngine(15, 1000, 1), waitEngine(15, 1000, 3)
	one.maxEstWaitMicros, three.maxEstWaitMicros = 10_000, 10_000
	if wait, shed := one.admit(); !shed || wait != 15_000 {
		t.Fatalf("15 ms on one replica: admit = %v µs, shed %v; want a shed at 15000", wait, shed)
	}
	if wait, shed := three.admit(); shed || wait != 5_000 {
		t.Fatalf("the same load over three replicas: admit = %v µs, shed %v; want admitted at 5000", wait, shed)
	}
	// At the bound a miss is still admitted; past it, every replica is.
	three.busy.Store(30)
	if wait, shed := three.admit(); shed || wait != 10_000 {
		t.Fatalf("at the bound: admit = %v µs, shed %v; want admitted at 10000", wait, shed)
	}
	three.busy.Store(45)
	if wait, shed := three.admit(); !shed || wait != 15_000 {
		t.Fatalf("every replica past the bound: admit = %v µs, shed %v; want a shed at 15000", wait, shed)
	}
	// A bound below one service time: a free replica still admits, and the
	// miss that finds every replica held is shed.
	four := waitEngine(3, 10_000, 4)
	four.maxEstWaitMicros = 5_000
	if wait, shed := four.admit(); shed || wait != 0 {
		t.Fatalf("3 of 4 replicas held: admit = %v µs, shed %v; want admitted at 0", wait, shed)
	}
	four.busy.Store(4)
	if wait, shed := four.admit(); !shed || wait != 10_000 {
		t.Fatalf("every replica held: admit = %v µs, shed %v; want a shed at 10000", wait, shed)
	}
}

// TestAdmitColdShardAdmits pins the cold-start contract: with no
// service-time samples the estimate is 0, so a crowd at the replica alone
// never sheds — admission control needs evidence to refuse work.
func TestAdmitColdShardAdmits(t *testing.T) {
	se := waitEngine(50, 0, 1) // a crowd, no samples
	se.maxEstWaitMicros = 1
	if _, shed := se.admit(); shed {
		t.Fatal("cold engine shed work with zero service-time evidence")
	}
}

// TestShedSurfacesOverloadError checks the engine's refusal: an estimate
// over the bound yields an *OverloadError pricing a Retry-After of at least
// a second, counted once in Shed — and a cached answer is still served,
// because a cache hit runs no model.
func TestShedSurfacesOverloadError(t *testing.T) {
	se := waitEngine(40, 1000, 2) // 20 ms
	se.maxEstWaitMicros = 10_000
	se.cache = newPredictionCache(4, &se.tel.CacheHits, &se.tel.CacheMisses)

	sql := "SELECT a FROM t WHERE a > 5"
	_, _, err := se.PredictSQLGenCtx(context.Background(), sql)
	var over *OverloadError
	if !errors.As(err, &over) {
		t.Fatalf("full overload returned %v, want *OverloadError", err)
	}
	if over.RetryAfter() < time.Second {
		t.Fatalf("Retry-After %v below the 1s floor", over.RetryAfter())
	}
	if got := se.tel.Shed.Load(); got != 1 {
		t.Fatalf("Shed = %d, want 1", got)
	}

	// A cached answer rides through the same overload untouched: the
	// engine has no model, so any path but the cache would panic.
	want := Prediction{CPUMinutes: 42, Normalized: 0.5, PlanNodes: 3}
	se.cache.Put(CanonicalSQL(sql), want)
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
// that arrives already expired is refused before the cache lookup — the
// model never runs, and the expiry is counted once.
func TestExpiredDroppedBeforeDispatch(t *testing.T) {
	se, stub := stubShards(t, 2, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := se.PredictSQLGenCtx(ctx, "SELECT a FROM t WHERE a > 5")
	var expired *ExpiredError
	if !errors.As(err, &expired) {
		t.Fatalf("expired request returned %v, want *ExpiredError", err)
	}
	if n := stub.predicts.Load(); n != 0 {
		t.Fatalf("the model ran %d calls for already-expired work", n)
	}
	if got := se.tel.Expired.Load(); got != 1 {
		t.Fatalf("Expired = %d, want 1", got)
	}
}

// TestOverloadDecisions is admission under real overload, decided in
// process without a clock: a two-slot engine over a gated stub model, its
// per-call service time seeded at 1 ms, and distinct misses arriving one at
// a time while every model call is held. No call finishes before the last
// decision, so the estimate is exactly busy × 1 ms ÷ 2 once both slots
// are held, and 0 before. With a 2.5 ms bound, misses 0–5 are admitted
// (estimates 0, 0, then 1 to 2.5 ms in steps of 0.5) — the first two in
// the two slots, the rest waiting for one — and miss 6 is
// shed, priced at 3 ms. With the default bound, 0, all seven are admitted.
// Once the calls are let through, every admitted miss answers the
// serialised reference's prediction.
func TestOverloadDecisions(t *testing.T) {
	for _, c := range []struct {
		name     string
		bound    time.Duration
		admitted int
		shed     bool
	}{
		{"bound 2.5ms", 2500 * time.Microsecond, 6, true},
		{"no bound", 0, 7, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			se, m := stubShards(t, 2, Config{CacheSize: 64, MaxEstWait: c.bound})
			entered, release := make(chan int, 8), make(chan struct{})
			t.Cleanup(func() {
				select {
				case <-release:
				default:
					close(release)
				}
			})
			m.entered, m.release = entered, release
			se.tel.ServiceTime.Observe(1000)
			type answer struct {
				sql string
				p   Prediction
				err error
			}
			answers := make(chan answer, 7)
			for i := 0; i < 7; i++ {
				sql := fmt.Sprintf("SELECT a FROM t WHERE a > %d", i)
				if want := min(i, c.admitted); int(se.busy.Load()) != want {
					t.Fatalf("before miss %d: %d busy, want %d", i, se.busy.Load(), want)
				}
				if c.shed && i == c.admitted {
					_, _, err := se.PredictSQLGenCtx(context.Background(), sql)
					var over *OverloadError
					if !errors.As(err, &over) || over.EstWaitMicros != 3000 || over.BoundMicros != 2500 {
						t.Fatalf("miss %d past the bound returned %v, want a shed priced 3000/2500 µs", i, err)
					}
					continue
				}
				go func() {
					p, err := se.PredictSQL(sql)
					answers <- answer{sql, p, err}
				}()
				// The first two misses hold the two slots; every later one
				// waits for a slot.
				if i < 2 {
					<-entered
				} else {
					awaitParked(t, replicaWait, i-1)
				}
			}
			wantShed := int64(0)
			if c.shed {
				wantShed = 1
			}
			if n := se.tel.Shed.Load(); n != wantShed {
				t.Fatalf("shed counted %d, want %d", n, wantShed)
			}
			close(release)
			for i := 0; i < c.admitted; i++ {
				a := <-answers
				if a.err != nil || a.p != reference(t, a.sql) {
					t.Fatalf("%q answered %+v, %v; want %+v", a.sql, a.p, a.err, reference(t, a.sql))
				}
			}
			if n := m.predicts.Load(); n != int64(c.admitted) {
				t.Fatalf("%d model calls, want %d", n, c.admitted)
			}
		})
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
				// dispatch, some in the replica wait, and some are served.
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
