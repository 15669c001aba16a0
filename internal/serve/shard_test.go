package serve

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"prestroid/internal/models"
	"prestroid/internal/workload"
)

// stubShards builds a sharded engine over n independent stub models so
// tests can see exactly which replica served which query.
func stubShards(t *testing.T, n int, cfg Config) (*ShardedEngine, []*stubModel) {
	t.Helper()
	stubs := make([]*stubModel, n)
	preds := make([]*Predictor, n)
	for i := range stubs {
		stubs[i] = &stubModel{}
		preds[i] = &Predictor{Model: stubs[i]}
	}
	se := NewShardedEngine(preds, cfg)
	t.Cleanup(se.Close)
	return se, stubs
}

// predictOn computes sql on one shard past every prediction cache — its
// front end, its replica — which is what a detour to that shard
// answers.
func predictOn(sh *Engine, sql string) (Prediction, error) {
	return sh.miss(context.Background(), sql, CanonicalSQL(sql), tmplLookup{})
}

// keyForShard returns SQL whose canonical key hashes to the wanted shard.
func keyForShard(t *testing.T, se *ShardedEngine, shard int) string {
	t.Helper()
	for i := 0; i < 10000; i++ {
		sql := fmt.Sprintf("SELECT a FROM t WHERE a > %d", i)
		if se.shardOf(CanonicalSQL(sql)) == shard {
			return sql
		}
	}
	t.Fatalf("no key found for shard %d", shard)
	return ""
}

// TestShardedMatchesSerial is the replica-correctness gate: with any
// replica count, identical SQL yields byte-identical predictions to the
// serialised single-replica path — through the dispatcher, through every
// shard queried directly, and on a repeat (cached) lookup.
func TestShardedMatchesSerial(t *testing.T) {
	pred := newTestPredictor(t)
	queries := []string{
		"SELECT a FROM t WHERE a > 5",
		"SELECT b FROM t WHERE b < 3 AND a > 1",
		"SELECT a FROM t JOIN u ON t.id = u.id WHERE t.a > 7",
		"SELECT a, b FROM t WHERE a > 2 ORDER BY b LIMIT 10",
		"SELECT x FROM u WHERE x = 4",
	}
	serial := make([]Prediction, len(queries))
	for i, sql := range queries {
		p, err := pred.PredictSQL(sql)
		if err != nil {
			t.Fatal(err)
		}
		serial[i] = p
	}
	ctx := context.Background()
	for _, replicas := range []int{1, 2, 4} {
		cfg := DefaultConfig()
		cfg.Replicas = replicas
		preds := Replicas(pred, replicas)
		if replicas > 1 {
			// Sharding must never mutate the caller's predictor: every
			// shard gets a clone, so pred keeps full-width forward fan-out
			// on the serialised path after the engine closes.
			for _, p := range preds {
				if p == pred || p.Model == pred.Model {
					t.Fatal("Replicas reused the caller's predictor or model")
				}
			}
		}
		se := NewShardedEngine(preds, cfg)
		if se.Shards() != replicas {
			t.Fatalf("built %d shards, want %d (model supports cloning)", se.Shards(), replicas)
		}
		for i, sql := range queries {
			got, _, err := se.PredictSQLGenCtx(ctx, sql)
			if err != nil {
				t.Fatal(err)
			}
			if got != serial[i] {
				t.Fatalf("replicas=%d query %d: sharded %+v != serial %+v", replicas, i, got, serial[i])
			}
			again, _, err := se.PredictSQLGenCtx(ctx, sql)
			if err != nil {
				t.Fatal(err)
			}
			if again != serial[i] {
				t.Fatalf("replicas=%d query %d: cached %+v != serial %+v", replicas, i, again, serial[i])
			}
			// Every shard — not just the home shard — must agree byte for
			// byte, or an admission detour could change answers.
			for si, sh := range se.shards {
				direct, err := predictOn(sh, sql)
				if err != nil {
					t.Fatal(err)
				}
				if direct != serial[i] {
					t.Fatalf("replicas=%d shard %d query %d: %+v != serial %+v", replicas, si, i, direct, serial[i])
				}
			}
		}
		se.Close()
	}
}

// TestShardedDispatchStable checks the dispatcher sends a template to one
// home shard, every time — the property per-shard caching and single-flight
// dedup rest on.
func TestShardedDispatchStable(t *testing.T) {
	se, stubs := stubShards(t, 3, Config{})
	sql := "SELECT a FROM t WHERE a > 5"
	for i := 0; i < 10; i++ {
		if _, err := se.PredictSQL(sql); err != nil {
			t.Fatal(err)
		}
	}
	served := 0
	for _, st := range stubs {
		if n := st.predicts.Load(); n > 0 {
			served++
			if n != 10 {
				t.Fatalf("home shard predicted %d times, want 10 (cache disabled)", n)
			}
		}
	}
	if served != 1 {
		t.Fatalf("one template touched %d shards, want exactly 1", served)
	}
}

// TestShardedSaturationFallback exercises the detour directly on model-less
// engines whose load is fully controlled: under a 10 ms bound, a home shard
// saturated past it diverts to an idle peer, and keeps its traffic once its
// load drops inside it; without a bound (MaxEstWait 0) the same saturated
// home keeps its traffic. TestDispatchSinglePolicy walks the whole table.
func TestShardedSaturationFallback(t *testing.T) {
	full := waitEngine(20, 1000) // 20 ms
	idle := waitEngine(0, 0)
	se := &ShardedEngine{shards: []*Engine{full, idle}, maxEstWaitMicros: 10_000}

	if got, _, shed := se.admit(full); shed || got != idle {
		t.Fatal("saturated home shard did not divert to the idle shard")
	}
	full.busy.Store(1)
	if got, _, shed := se.admit(full); shed || got != full {
		t.Fatal("home shard inside the bound lost its traffic")
	}
	full.busy.Store(20)
	se.maxEstWaitMicros = 0
	if got, _, shed := se.admit(full); shed || got != full {
		t.Fatal("without a bound, a saturated home shard lost its traffic")
	}
}

// TestShardedDetourChecksHomeCache pins overload behaviour: a query whose
// home shard is past the admission bound but already holds its cached answer
// is served from that cache, not recomputed on the idle peer. The engines
// here have no model, so any path other than the home cache hit would panic.
func TestShardedDetourChecksHomeCache(t *testing.T) {
	home := waitEngine(20, 1000)
	home.cache = newPredictionCache(4, &home.tel.CacheHits, &home.tel.CacheMisses)
	other := waitEngine(0, 0)
	other.cache = newPredictionCache(4, &other.tel.CacheHits, &other.tel.CacheMisses)
	se := &ShardedEngine{shards: []*Engine{home, other}, maxEstWaitMicros: 10_000}

	sql := keyForShard(t, se, 0)
	want := Prediction{CPUMinutes: 42, Normalized: 0.5, PlanNodes: 3}
	home.cache.Put(CanonicalSQL(sql), want)

	got, err := se.PredictSQL(sql)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("detour returned %+v, want home-cached %+v", got, want)
	}
	if hits, misses := other.tel.CacheHits.Load(), other.tel.CacheMisses.Load(); hits != 0 || misses != 0 {
		t.Fatalf("detour shard cache touched (%d/%d) for a home-cached answer", hits, misses)
	}
}

// gateModel is a stub whose PredictInto blocks until released, signalling
// entry — a deterministic probe that two shards have their models inside a
// prediction at the same instant, which one replica can never do.
type gateModel struct {
	stubModel
	entered chan struct{}
	release chan struct{}
}

func (g *gateModel) PredictInto(batch []*workload.Trace, dst []float64) {
	g.entered <- struct{}{}
	<-g.release
	g.stubModel.PredictInto(batch, dst)
}

// TestShardsOverlapModelCalls proves the architecture's point: two queries
// homed to different shards execute their model calls concurrently.
func TestShardsOverlapModelCalls(t *testing.T) {
	entered := make(chan struct{}, 2)
	release := make(chan struct{})
	preds := []*Predictor{
		{Model: &gateModel{entered: entered, release: release}},
		{Model: &gateModel{entered: entered, release: release}},
	}
	se := NewShardedEngine(preds, Config{})
	t.Cleanup(se.Close)

	done := make(chan error, 2)
	for shard := 0; shard < 2; shard++ {
		sql := keyForShard(t, se, shard)
		go func() {
			_, err := se.PredictSQL(sql)
			done <- err
		}()
	}
	for i := 0; i < 2; i++ {
		select {
		case <-entered:
		case <-time.After(10 * time.Second):
			t.Fatal("shards never overlapped: only one model call in flight")
		}
	}
	close(release)
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestShardedMetricsAggregate checks the totals of one engine snapshot are
// the exact sum of its per-shard groups and that the cache budget is
// segmented.
func TestShardedMetricsAggregate(t *testing.T) {
	// Cache sized so each shard's segment (48/4 = 12) holds every key that
	// could land on it: no evictions, so the second round is all hits.
	se, _ := stubShards(t, 4, Config{CacheSize: 48})
	for i := 0; i < 24; i++ {
		if _, err := se.PredictSQL(fmt.Sprintf("SELECT a FROM t WHERE a > %d", i%12)); err != nil {
			t.Fatal(err)
		}
	}
	snap := se.Snapshot()
	agg := snap.Totals()
	per := snap.Shards
	if len(per) != 4 {
		t.Fatalf("shard metrics = %d entries, want 4", len(per))
	}
	var batches, coalesced, hits, misses int64
	var entries int
	for _, m := range per {
		batches += m.Batches
		coalesced += m.Coalesced
		hits += m.CacheHits
		misses += m.CacheMisses
		entries += m.CacheEntries
	}
	if agg.Batches != batches || agg.Coalesced != coalesced ||
		agg.CacheHits != hits || agg.CacheMisses != misses || agg.CacheEntries != entries {
		t.Fatalf("aggregate %+v != sum of shards", agg)
	}
	// Only misses reach a model: 12 distinct templates, queried twice.
	if agg.Coalesced != 12 {
		t.Fatalf("coalesced = %d, want 12 (cache hits bypass the models)", agg.Coalesced)
	}
	// 12 distinct templates queried twice: every repeat hits its home
	// shard's cache segment.
	if agg.CacheHits != 12 || agg.CacheMisses != 12 {
		t.Fatalf("cache counters = %d/%d, want 12/12", agg.CacheHits, agg.CacheMisses)
	}
}

// TestModelOutsideTheContract pins where a model that is only a
// models.Model is stopped: entering an engine panics naming the serving
// contract, and the serialised reference answers an error naming it.
func TestModelOutsideTheContract(t *testing.T) {
	pred := &Predictor{Model: struct{ models.Model }{&stubModel{}}}
	if _, err := pred.PredictSQL("SELECT a FROM t"); err == nil || !strings.Contains(err.Error(), "servedModel") {
		t.Fatalf("PredictSQL = %v, want an error naming servedModel", err)
	}
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "servedModel") {
			t.Fatalf("NewShardedEngine recovered %v, want a panic naming servedModel", r)
		}
	}()
	NewShardedEngine([]*Predictor{pred}, Config{}).Close()
}

// TestShardedClosedFallsBack mirrors the single-engine contract: Close is
// idempotent and later queries degrade to the serialised path.
func TestShardedClosedFallsBack(t *testing.T) {
	se, stubs := stubShards(t, 2, Config{})
	want, err := se.PredictSQL("SELECT a FROM t")
	if err != nil {
		t.Fatal(err)
	}
	se.Close()
	se.Close()
	got, err := se.PredictSQL("SELECT a FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if got.Normalized != want.Normalized {
		t.Fatalf("post-close prediction diverged: %v vs %v", got.Normalized, want.Normalized)
	}
	for i, st := range stubs {
		if v := st.violations.Load(); v != 0 {
			t.Fatalf("shard %d: %d concurrent model calls", i, v)
		}
	}
}
