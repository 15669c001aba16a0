package serve

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"prestroid/internal/api"
	"prestroid/internal/persist"
)

// stageBundle decodes raw full-bundle bytes and stages them on en as a
// shadow or canary roll.
func stageBundle(t *testing.T, en *ModelEntry, raw []byte, mode string, percent int) int64 {
	t.Helper()
	fb, err := persist.DecodeFullBundle(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	gen, err := en.Stage(fb, mode, percent)
	if err != nil {
		t.Fatalf("stage %s: %v", mode, err)
	}
	return gen
}

// canaryQueries builds n structurally distinct queries, each canonicalising
// to its own key (the numeric literal survives canonicalisation as a
// placeholder, so the table name is varied instead).
func canaryQueries(n int) []string {
	qs := make([]string, n)
	for i := range qs {
		qs[i] = fmt.Sprintf("SELECT a FROM t%d WHERE a > 5", i)
	}
	return qs
}

// TestCanarySplitDeterministic pins the canary routing contract: with a
// canary staged at P percent, (a) each canonical key routes to the same
// engine on every request — the staged and live engines answer under
// different generations, which is the observable — and (b) the fraction of
// keys routed to the staged engine is within tolerance of P.
func TestCanarySplitDeterministic(t *testing.T) {
	pred := newTestPredictor(t)
	reg := NewRegistry(Config{CacheSize: 64, Replicas: 2})
	en, err := reg.Add(api.DefaultModel, pred)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := retrainedFullBundle(t, pred, 0.5, "canary_extra")
	const percent = 20
	stagedGen := stageBundle(t, en, raw, api.StateCanary, percent)
	liveGen := en.Live().Generation()
	if stagedGen != liveGen+1 {
		t.Fatalf("staged generation = %d, want live+1 = %d", stagedGen, liveGen+1)
	}

	const keys = 400
	qs := canaryQueries(keys)
	first := make([]int64, keys)
	staged := 0
	for i, q := range qs {
		_, g, err := en.PredictSQLGenCtx(context.Background(), q)
		if err != nil {
			t.Fatalf("predict %q: %v", q, err)
		}
		if g != liveGen && g != stagedGen {
			t.Fatalf("generation %d, want %d or %d", g, liveGen, stagedGen)
		}
		first[i] = g
		if g == stagedGen {
			staged++
		}
		// Routing must agree with the pure bucket function — the split is a
		// property of the key, not of request order or shard load.
		wantStaged := canaryBucket(CanonicalSQL(q)) < percent
		if (g == stagedGen) != wantStaged {
			t.Fatalf("key %q routed to generation %d, bucket says staged=%v", q, g, wantStaged)
		}
	}
	// 400 keys at 20%: expect ~80 staged; accept a generous ±hash-variance
	// band. A grossly skewed split means the bucket hash correlates with the
	// key structure.
	if staged < keys*percent/100/2 || staged > keys*percent/100*2 {
		t.Fatalf("canary split routed %d/%d keys to staged, want ~%d", staged, keys, keys*percent/100)
	}
	// Per-key stability: a second pass routes every key identically.
	for i, q := range qs {
		_, g, err := en.PredictSQLGenCtx(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if g != first[i] {
			t.Fatalf("key %q flapped from generation %d to %d", q, first[i], g)
		}
	}
}

// TestCanaryRoutingStableUnderConcurrency is the -race gate for the canary
// split: concurrent workers hammer a fixed key set while the roll is staged,
// and every response for a key must report the same generation every time.
func TestCanaryRoutingStableUnderConcurrency(t *testing.T) {
	pred := newTestPredictor(t)
	reg := NewRegistry(Config{CacheSize: 64, Replicas: 2})
	en, err := reg.Add(api.DefaultModel, pred)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := retrainedFullBundle(t, pred, 0.5, "canary_race_extra")
	stagedGen := stageBundle(t, en, raw, api.StateCanary, 30)

	qs := canaryQueries(32)
	want := make([]bool, len(qs)) // staged?
	for i, q := range qs {
		want[i] = canaryBucket(CanonicalSQL(q)) < 30
	}
	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for r := 0; r < 20; r++ {
				i := (seed + r) % len(qs)
				_, g, err := en.PredictSQLGenCtx(context.Background(), qs[i])
				if err != nil {
					errCh <- err
					return
				}
				if got := g == stagedGen; got != want[i] {
					errCh <- fmt.Errorf("key %d routed staged=%v, want %v", i, got, want[i])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
}

// TestShadowMirrorUnderConcurrentRoll is the -race gate for shadow
// deployments: workers drive live traffic while a shadow roll stages,
// mirrors and promotes underneath them. Every live response must keep the
// pre-promotion generation until the promote lands (zero traffic impact),
// the mirror counters must account for work actually done, and after
// promotion the generation must move strictly forward.
func TestShadowMirrorUnderConcurrentRoll(t *testing.T) {
	pred := newTestPredictor(t)
	reg := NewRegistry(Config{CacheSize: 64, Replicas: 2})
	en, err := reg.Add(api.DefaultModel, pred)
	if err != nil {
		t.Fatal(err)
	}
	liveGen := en.Live().Generation()
	raw, _ := retrainedFullBundle(t, pred, 0.5, "shadow_extra")
	stagedGen := stageBundle(t, en, raw, api.StateShadow, 0)

	qs := canaryQueries(16)
	stop := make(chan struct{})
	errCh := make(chan error, 4)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for r := 0; ; r++ {
				select {
				case <-stop:
					return
				default:
				}
				_, g, err := en.PredictSQLGenCtx(context.Background(), qs[(seed+r)%len(qs)])
				if err != nil {
					errCh <- err
					return
				}
				if g != liveGen && g != stagedGen {
					errCh <- fmt.Errorf("generation %d, want %d (pre-promote) or %d (post-promote)", g, liveGen, stagedGen)
					return
				}
			}
		}(w)
	}

	// Let the shadow mirror accumulate, then promote under the load.
	deadline := time.Now().Add(2 * time.Second)
	for {
		snap := en.Snapshot()
		if snap.Shadow != nil && snap.Shadow.Mirrored > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("shadow mirrored no predictions within 2s")
		}
		time.Sleep(5 * time.Millisecond)
	}
	gen, err := en.Promote()
	if err != nil {
		t.Fatalf("promote: %v", err)
	}
	if gen != stagedGen {
		t.Fatalf("promoted generation = %d, want %d", gen, stagedGen)
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	if got := en.Live().Generation(); got != stagedGen {
		t.Fatalf("live generation after promote = %d, want %d", got, stagedGen)
	}
	if st, _ := en.State(); st != api.StateLive {
		t.Fatalf("state after promote = %q, want %q", st, api.StateLive)
	}
	// The mirror accounting is conservation, not exactness: everything
	// mirrored, dropped or errored was one live request each.
	snap := en.Snapshot()
	if snap.Shadow != nil {
		t.Fatal("shadow stats survived the promotion")
	}
	if snap.Promotions != 1 {
		t.Fatalf("promotions = %d, want 1", snap.Promotions)
	}
}

// TestShadowZeroTrafficImpact pins that a staged shadow serves no traffic:
// every response comes from the live engine at the live generation, while
// the staged engine still sees mirrored work.
func TestShadowZeroTrafficImpact(t *testing.T) {
	pred := newTestPredictor(t)
	reg := NewRegistry(Config{Replicas: 1})
	en, err := reg.Add(api.DefaultModel, pred)
	if err != nil {
		t.Fatal(err)
	}
	want, err := pred.PredictSQL("SELECT a FROM t WHERE a > 5")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := retrainedFullBundle(t, pred, 0.8, "shadow_impact_extra")
	stageBundle(t, en, raw, api.StateShadow, 0)
	for i := 0; i < 50; i++ {
		p, g, err := en.PredictSQLGenCtx(context.Background(), "SELECT a FROM t WHERE a > 5")
		if err != nil {
			t.Fatal(err)
		}
		if g != initialGeneration {
			t.Fatalf("shadow deployment served traffic: generation %d", g)
		}
		if p != want {
			t.Fatalf("shadowed live answer %+v, want byte-identical %+v", p, want)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		snap := en.Snapshot()
		if snap.Shadow != nil && snap.Shadow.Mirrored > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no mirrored predictions within 2s")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := en.Abort(); err != nil {
		t.Fatalf("abort: %v", err)
	}
	if g := en.Live().Generation(); g != initialGeneration {
		t.Fatalf("abort moved the live generation to %d", g)
	}
	if snap := en.Snapshot(); snap.Aborts != 1 || snap.Staged != nil {
		t.Fatalf("after abort: aborts=%d staged=%v, want 1/nil", snap.Aborts, snap.Staged)
	}
}

// TestPromoteGenerationMonotone pins the generation contract across repeated
// roll cycles: every promotion yields a strictly larger generation, and the
// reloads counter keeps counting across the engine swap.
func TestPromoteGenerationMonotone(t *testing.T) {
	pred := newTestPredictor(t)
	reg := NewRegistry(Config{Replicas: 1})
	en, err := reg.Add(api.DefaultModel, pred)
	if err != nil {
		t.Fatal(err)
	}
	lastGen := en.Live().Generation()
	lastReloads := en.reloads.Load()
	cur := pred
	for cycle := 0; cycle < 3; cycle++ {
		raw, ref := retrainedFullBundle(t, cur, 0.3, fmt.Sprintf("promote_extra_%d", cycle))
		stagedGen := stageBundle(t, en, raw, api.StateShadow, 0)
		if stagedGen <= lastGen {
			t.Fatalf("cycle %d: staged generation %d not above live %d", cycle, stagedGen, lastGen)
		}
		gen, err := en.Promote()
		if err != nil {
			t.Fatalf("cycle %d promote: %v", cycle, err)
		}
		if gen <= lastGen {
			t.Fatalf("cycle %d: promoted generation %d not above %d", cycle, gen, lastGen)
		}
		if rl := en.reloads.Load(); rl <= lastReloads {
			t.Fatalf("cycle %d: reloads %d did not advance past %d", cycle, rl, lastReloads)
		} else {
			lastReloads = rl
		}
		lastGen = gen
		cur = ref
	}
	if snap := en.Snapshot(); snap.Promotions != 3 {
		t.Fatalf("promotions = %d, want 3", snap.Promotions)
	}
}

// TestRollGuards pins the conflict matrix: a second stage, an in-place
// reload under a staged roll, and promote/abort with nothing staged all
// refuse with their sentinel errors, without touching the live engine.
func TestRollGuards(t *testing.T) {
	pred := newTestPredictor(t)
	reg := NewRegistry(Config{Replicas: 1})
	en, err := reg.Add(api.DefaultModel, pred)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := en.Promote(); err != ErrNoStagedRoll {
		t.Fatalf("promote with nothing staged = %v, want ErrNoStagedRoll", err)
	}
	if err := en.Abort(); err != ErrNoStagedRoll {
		t.Fatalf("abort with nothing staged = %v, want ErrNoStagedRoll", err)
	}
	raw, _ := retrainedFullBundle(t, pred, 0.5, "guard_extra")
	stageBundle(t, en, raw, api.StateShadow, 0)
	fb, err := persist.DecodeFullBundle(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := en.Stage(fb, api.StateCanary, 10); err != ErrRollPending {
		t.Fatalf("second stage = %v, want ErrRollPending", err)
	}
	if _, err := en.ReloadBundle(fb); err != ErrRollPending {
		t.Fatalf("in-place roll under staged roll = %v, want ErrRollPending", err)
	}
	if _, err := en.ReloadWeights(bytes.NewReader(nil)); err != ErrRollPending {
		t.Fatalf("weight roll under staged roll = %v, want ErrRollPending", err)
	}
	if g := en.Live().Generation(); g != initialGeneration {
		t.Fatalf("guard failures moved the live generation to %d", g)
	}
}

// TestRegistryIsolation pins that identities do not share roll state: a
// roll staged on one model leaves the other serving and reloadable.
func TestRegistryIsolation(t *testing.T) {
	pred := newTestPredictor(t)
	reg := NewRegistry(Config{Replicas: 1})
	def, err := reg.Add(api.DefaultModel, pred)
	if err != nil {
		t.Fatal(err)
	}
	_, beta := retrainedFullBundle(t, pred, 0.4, "beta_extra")
	betaEn, err := reg.Add("beta", beta)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Add("beta", beta); err == nil {
		t.Fatal("duplicate model name accepted")
	}
	raw, _ := retrainedFullBundle(t, pred, 0.6, "iso_extra")
	stageBundle(t, def, raw, api.StateCanary, 25)
	if st, pct := def.State(); st != api.StateCanary || pct != 25 {
		t.Fatalf("default state = %s/%d, want canary/25", st, pct)
	}
	if st, _ := betaEn.State(); st != api.StateLive {
		t.Fatalf("beta state = %s, want live (rolls must not leak across models)", st)
	}
	if _, _, err := betaEn.PredictSQLGenCtx(context.Background(), "SELECT a FROM t WHERE a > 1"); err != nil {
		t.Fatalf("beta predict under default's canary: %v", err)
	}
	if reg.Lookup("beta") != betaEn || reg.Lookup("") != def || reg.Lookup("nope") != nil {
		t.Fatal("lookup table broken")
	}
}
