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

// waitEngine builds a model-less engine whose admission inputs — handlers
// busy on its replica and EWMA service time — are fully controlled.
func waitEngine(busy int, serviceMicros float64) *Engine {
	e := &Engine{tel: telemetry.NewShardGroup()}
	e.busy.Store(int64(busy))
	if serviceMicros > 0 {
		e.tel.ServiceTime.Observe(serviceMicros)
	}
	return e
}

// TestAdmitDetourFirstShedLast drives admit() through the contract the
// tentpole names: home while it is inside the bound, detour to the best
// peer when home exceeds it, and shed only when every candidate does.
func TestAdmitDetourFirstShedLast(t *testing.T) {
	// Bound 10ms. Home: 20 busy × 1ms = 20ms, over. Peer A: 5 × 1ms =
	// 5ms, inside. Peer B: 15 × 1ms = 15ms, over.
	home := waitEngine(20, 1000)
	peerA := waitEngine(5, 1000)
	peerB := waitEngine(15, 1000)
	se := &ShardedEngine{shards: []*Engine{home, peerA, peerB}, maxEstWaitMicros: 10_000}

	if sh, _, shed := se.admit(home); shed || sh != peerA {
		t.Fatalf("overloaded home did not detour to the in-bound peer (got shed=%v)", shed)
	}

	// Load peer A past the bound too: now every candidate exceeds it.
	peerA.busy.Add(15)
	sh, minWait, shed := se.admit(home)
	if !shed || sh != nil {
		t.Fatalf("all candidates over bound: admit returned %v, shed=%v", sh, shed)
	}
	// min est-wait across candidates = peer B's 15ms, the Retry-After basis.
	if minWait != 15_000 {
		t.Fatalf("shed minWait = %v µs, want best candidate 15000", minWait)
	}

	// A home inside the bound keeps its traffic without scanning peers.
	calm := waitEngine(2, 1000)
	se2 := &ShardedEngine{shards: []*Engine{calm, peerB}, maxEstWaitMicros: 10_000}
	if sh, _, shed := se2.admit(calm); shed || sh != calm {
		t.Fatal("in-bound home lost its traffic")
	}
}

// TestAdmitColdShardAdmits pins the cold-start contract: with no
// service-time samples the estimate is 0, so a crowd at the replica alone
// never sheds — admission control needs evidence to refuse work.
func TestAdmitColdShardAdmits(t *testing.T) {
	home := waitEngine(50, 0) // a crowd, no samples
	se := &ShardedEngine{shards: []*Engine{home}, maxEstWaitMicros: 1}
	if _, _, shed := se.admit(home); shed {
		t.Fatal("cold shard shed work with zero service-time evidence")
	}
}

// TestShedSurfacesOverloadError checks the dispatcher's refusal: every
// shard over the bound yields an *OverloadError pricing a Retry-After of
// at least a second, charged to the home shard's Shed counter — and a
// home-cached template is still served, because a cache hit runs no model.
func TestShedSurfacesOverloadError(t *testing.T) {
	sh0 := waitEngine(20, 1000)
	sh1 := waitEngine(20, 1000)
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
	// engines have no model, so any path but the home cache would panic.
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
// picks a shard — the model never runs, and the expiry is charged to the
// home shard.
func TestExpiredDroppedBeforeDispatch(t *testing.T) {
	se, stubs := stubShards(t, 2, Config{})
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
}

// keysForShard returns n distinct queries whose canonical keys hash to the
// wanted shard.
func keysForShard(t *testing.T, se *ShardedEngine, shard, n int) []string {
	t.Helper()
	var out []string
	for i := 0; len(out) < n; i++ {
		if i == 10000 {
			t.Fatalf("fewer than %d keys found for shard %d", n, shard)
		}
		if sql := fmt.Sprintf("SELECT a FROM t WHERE a > %d", i); se.shardOf(CanonicalSQL(sql)) == shard {
			out = append(out, sql)
		}
	}
	return out
}

// TestOverloadDecisions is admission under real overload, decided in
// process without a clock: two shards over gated stub models, each shard's
// per-call service time seeded at 1 ms, and misses all homed to shard 0
// arriving one at a time while every model call is held. No call finishes
// before the last decision, so the estimates are exactly busy × 1 ms. With a
// 2.5 ms bound, the first three misses run at home (estimates 0, 1 and
// 2 ms), the next three detour to the peer (home 3 ms, peer 0, 1 and 2 ms),
// and the seventh is shed, priced at the smallest estimate, 3 ms. With the
// default bound, 0, all seven run at home. Once the calls are let through,
// every admitted miss answers the serialised reference's prediction.
func TestOverloadDecisions(t *testing.T) {
	for _, c := range []struct {
		name        string
		bound       time.Duration
		home, peers int // misses expected to run on shard 0, on shard 1
		shed        bool
	}{
		{"bound 2.5ms", 2500 * time.Microsecond, 3, 3, true},
		{"no bound", 0, 7, 0, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			se, stubs := stubShards(t, 2, Config{CacheSize: 64, MaxEstWait: c.bound})
			release := make(chan struct{})
			t.Cleanup(func() {
				select {
				case <-release:
				default:
					close(release)
				}
			})
			for i, m := range stubs {
				m.entered, m.release = make(chan int, 8), release
				se.shards[i].tel.ServiceTime.Observe(1000)
			}
			home, peer := se.shards[0], se.shards[1]
			type answer struct {
				sql string
				p   Prediction
				err error
			}
			answers := make(chan answer, 7)
			keys := keysForShard(t, se, 0, 7)
			for i, sql := range keys {
				wantHome, wantPeer := min(i, c.home), max(0, min(i-c.home, c.peers))
				if int(home.busy.Load()) != wantHome || int(peer.busy.Load()) != wantPeer {
					t.Fatalf("before miss %d: busy %d at home and %d on the peer, want %d and %d",
						i, home.busy.Load(), peer.busy.Load(), wantHome, wantPeer)
				}
				if c.shed && i == c.home+c.peers {
					_, _, err := se.PredictSQLGenCtx(context.Background(), sql)
					var over *OverloadError
					if !errors.As(err, &over) || over.EstWaitMicros != 3000 || over.BoundMicros != 2500 {
						t.Fatalf("miss %d with both shards past the bound returned %v, want a shed priced 3000/2500 µs", i, err)
					}
					continue
				}
				go func() {
					p, err := se.PredictSQL(sql)
					answers <- answer{sql, p, err}
				}()
				// The miss's call is on its shard's model, or it waits for
				// the replica behind one that is: every earlier miss but the
				// two on a model waits.
				switch {
				case i == 0:
					<-stubs[0].entered
				case i == c.home:
					<-stubs[1].entered
				case i < c.home:
					awaitParked(t, replicaWait, i)
				default:
					awaitParked(t, replicaWait, i-1)
				}
			}
			wantShed := int64(0)
			if c.shed {
				wantShed = 1
			}
			if home.tel.Shed.Load() != wantShed || peer.tel.Shed.Load() != 0 {
				t.Fatalf("shed counted %d at home and %d on the peer", home.tel.Shed.Load(), peer.tel.Shed.Load())
			}
			close(release)
			for i := 0; i < c.home+c.peers; i++ {
				a := <-answers
				if a.err != nil || a.p != reference(t, a.sql) {
					t.Fatalf("%q answered %+v, %v; want %+v", a.sql, a.p, a.err, reference(t, a.sql))
				}
			}
			if h, p := stubs[0].predicts.Load(), stubs[1].predicts.Load(); h != int64(c.home) || p != int64(c.peers) {
				t.Fatalf("model calls: %d at home and %d on the peer, want %d and %d", h, p, c.home, c.peers)
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
