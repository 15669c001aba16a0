package serve

import (
	"bytes"
	"math"
	"testing"

	"prestroid/internal/models"
	"prestroid/internal/telemetry"
)

// TestSubtreeCacheKeepsAndCopies pins the sub-tree segment's own policy on
// top of the shared LRU (see lru_test.go): it satisfies models.ConvCache,
// copies the caller's slice on admission, prices entries at 8 bytes per
// float, and keeps the stored values when a present key is re-put.
func TestSubtreeCacheKeepsAndCopies(t *testing.T) {
	var hits, misses telemetry.Counter
	var c models.ConvCache = newSubtreeCache(2, &hits, &misses)

	if _, ok := c.Get(1); ok || misses.Load() != 1 {
		t.Fatalf("empty cache: hit=%v misses=%d, want a counted miss", ok, misses.Load())
	}
	src := []float64{1, 2, 3}
	c.Put(1, src)
	src[0] = 99 // the cache must have copied
	v, ok := c.Get(1)
	if !ok || v[0] != 1 {
		t.Fatalf("Get(1) = %v, %v; want the values as deposited", v, ok)
	}
	c.Put(1, []float64{7, 8, 9, 10}) // present key: stored values stay
	if again, _ := c.Get(1); &again[0] != &v[0] {
		t.Fatal("re-putting a present key replaced the stored slice")
	}
	if e, b := c.(*subtreeCache).Stats(); e != 1 || b != 24 {
		t.Fatalf("stats = %d entries / %d bytes, want 1/24", e, b)
	}
}

// TestEngineSubtreeCacheByteIdentical is the tentpole correctness bar: with
// the prediction cache off (every request reaches the model), an engine
// serving through the sub-tree cache must answer bit-identically to one
// without it — on first sight of a plan and when pooled partial results are
// replayed, including across queries that share structure but not SQL text
// (LIMIT is not featurized, so only the sub-tree cache can join them).
func TestEngineSubtreeCacheByteIdentical(t *testing.T) {
	pred := newTestPredictor(t)
	off, offShard := oneShard(t, pred, Config{CacheSize: 0})
	on, onShard := oneShard(t, pred, Config{CacheSize: 0, SubtreeCacheSize: 1024})

	sqls := []string{
		"SELECT a FROM t WHERE a > 5",
		"SELECT a FROM t WHERE a > 5 LIMIT 10",
		"SELECT a FROM t WHERE a > 5 LIMIT 20",
		"SELECT b, c FROM u WHERE b < 3",
		"SELECT b, c FROM u WHERE b < 3 LIMIT 7",
	}
	for pass := 0; pass < 2; pass++ {
		for _, sql := range sqls {
			want, err := off.PredictSQL(sql)
			if err != nil {
				t.Fatal(err)
			}
			got, err := on.PredictSQL(sql)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(got.Normalized) != math.Float64bits(want.Normalized) {
				t.Fatalf("pass %d %q: cached %v != uncached %v", pass, sql, got.Normalized, want.Normalized)
			}
		}
	}
	onSnap, offSnap := onShard.Snapshot(), offShard.Snapshot()
	if onSnap.SubtreeHits == 0 || onSnap.SubtreeEntries == 0 || onSnap.SubtreeBytes == 0 {
		t.Fatalf("sub-tree cache never engaged: %+v", onSnap)
	}
	if offSnap.SubtreeHits != 0 || offSnap.SubtreeMisses != 0 || offSnap.SubtreeEntries != 0 {
		t.Fatalf("disabled engine reported sub-tree activity: %+v", offSnap)
	}
}

// TestSubtreeCacheAcrossReloadRoll pins generation safety: the engine a
// weight roll installs starts its model calls on an empty sub-tree cache, so
// post-roll predictions are byte-identical to a cache-free serialised
// reference over the new weights — both the recomputation that repopulates
// a cache and the replay that follows it, on a cache of the test's own and
// through the engine's one cache.
func TestSubtreeCacheAcrossReloadRoll(t *testing.T) {
	pred := newTestPredictor(t)
	cfg := DefaultConfig()
	cfg.Replicas = 2
	cfg.CacheSize = 0 // every request must reach the model
	en := newTestEntry(t, pred, cfg)
	se := en.Live()

	sql := "SELECT a FROM t WHERE a > 5"
	for _, r := range replicasOf(se) { // every model call reads and fills the one cache
		for i := 0; i < 2; i++ {
			if _, err := predictOn(se, r, se.convCache, sql); err != nil {
				t.Fatal(err)
			}
		}
	}
	if tot := se.Snapshot().Totals(); tot.SubtreeHits == 0 || tot.SubtreeEntries == 0 {
		t.Fatalf("warm-up did not engage the sub-tree caches: %+v", tot)
	}

	bundle, reference := perturbedBundle(t, pred, 0.25)
	want, err := reference.PredictSQL(sql)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := en.ReloadWeights(bytes.NewReader(bundle)); err != nil {
		t.Fatal(err)
	}
	se = en.Live()
	if tot := se.Snapshot().Totals(); tot.SubtreeEntries != 0 || tot.SubtreeBytes != 0 {
		t.Fatalf("roll left stale sub-tree entries: %+v", tot)
	}
	// The model on a sub-tree cache of its own, so its conv stack computes
	// the miss; then through the engine's one cache, which the first call
	// repopulates and the second replays.
	for si, r := range replicasOf(se) {
		var hits, misses telemetry.Counter
		own := newSubtreeCache(cfg.SubtreeCacheSize, &hits, &misses)
		var computed, replayed int64
		for i := 0; i < 2; i++ { // miss-then-hit, both on the new weights
			got, err := predictOn(se, r, own, sql)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(got.Normalized) != math.Float64bits(want.Normalized) {
				t.Fatalf("replica %d call %d: %v != new-weight reference %v", si, i, got.Normalized, want.Normalized)
			}
			if i == 0 {
				computed, replayed = misses.Load(), hits.Load()
			}
		}
		if computed == 0 || misses.Load() != computed || hits.Load() == replayed {
			t.Fatalf("replica %d: %d sub-trees computed, then %d more and %d replayed; want its own conv stack to compute, then a replay",
				si, computed, misses.Load()-computed, hits.Load()-replayed)
		}
	}
	sharedHits := se.Snapshot().Totals().SubtreeHits
	for si, r := range replicasOf(se) {
		for i := 0; i < 2; i++ {
			got, err := predictOn(se, r, se.convCache, sql)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(got.Normalized) != math.Float64bits(want.Normalized) {
				t.Fatalf("replica %d call %d through the shared cache: %v != new-weight reference %v", si, i, got.Normalized, want.Normalized)
			}
		}
	}
	if tot := se.Snapshot().Totals(); tot.SubtreeHits == sharedHits || tot.SubtreeEntries == 0 {
		t.Fatalf("the shared cache was never repopulated and replayed: %+v", tot)
	}
}
