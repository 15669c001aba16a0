package serve

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"prestroid/internal/models"
)

// stubShards builds an n-slot engine over one stub model, whose counters
// see every model call the engine makes.
func stubShards(t *testing.T, n int, cfg Config) (*ShardedEngine, *stubModel) {
	t.Helper()
	stub := &stubModel{}
	cfg.Replicas = n
	se := NewShardedEngine(&Predictor{Model: stub}, cfg)
	t.Cleanup(se.Close)
	return se, stub
}

// replicasOf lists the predictors se runs model calls on: its one served
// predictor, whatever its slot count.
func replicasOf(se *ShardedEngine) []*Predictor { return []*Predictor{se.pred} }

// predictOn computes sql past the prediction cache — se's front end, then
// one model call — on r's model, reading and filling the sub-tree cache own
// in place of the engine's; nil runs the whole conv stack, where through the
// engine's cache the call could copy every pooled conv output an earlier
// call computed and run only the dense head.
func predictOn(se *ShardedEngine, r *Predictor, own models.ConvCache, sql string) (Prediction, error) {
	tr, err := frontEnd(sql)
	if err != nil {
		return Prediction{}, err
	}
	m := r.mustServe()
	enc := se.model.EncodeTrace(tr)
	y := m.PredictEncoded(enc, own)
	m.Recycle(enc)
	return r.prediction(shapeOf(tr.Plan), y), nil
}

// weightBits is every weight and state value of m, bit for bit: what a
// caller checks to see that nothing wrote the model.
func weightBits(m models.Model) []uint64 {
	p := m.(*models.Prestroid)
	var bits []uint64
	for _, w := range p.Weights() {
		for _, v := range w.W.Data {
			bits = append(bits, math.Float64bits(v))
		}
	}
	for _, st := range p.StateTensors() {
		for _, v := range st.Data {
			bits = append(bits, math.Float64bits(v))
		}
	}
	return bits
}

// sameParentHome returns two distinct queries whose canonical keys FNV-1a
// homed to the same one of two shards when the engine bound each key to one
// replica, so those two misses could never run at once.
func sameParentHome(t *testing.T) (string, string) {
	t.Helper()
	var first string
	for i := 0; i < 10000; i++ {
		sql := fmt.Sprintf("SELECT a FROM t WHERE a > %d", i)
		if fnv32a(CanonicalSQL(sql))%2 != 0 {
			continue
		}
		if first != "" {
			return first, sql
		}
		first = sql
	}
	t.Fatal("no two keys share a home")
	return "", ""
}

// TestShardedMatchesSerial is the slot-correctness gate: with any slot
// count, identical SQL yields byte-identical predictions to the serialised
// reference path — through the engine, on the model alone with no sub-tree
// cache, and on a repeat (cached) lookup — and the engine never writes the
// model it is handed: its weights keep their bits, and the reference still
// answers as before on the same predictor.
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
	weights := weightBits(pred.Model)
	ctx := context.Background()
	for _, replicas := range []int{1, 2, 4} {
		cfg := DefaultConfig()
		cfg.Replicas = replicas
		se := NewShardedEngine(pred, cfg)
		if se.Shards() != replicas {
			t.Fatalf("built %d slots, want %d", se.Shards(), replicas)
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
			// The model on its own conv stack, past the shared cache.
			for ri, r := range replicasOf(se) {
				direct, err := predictOn(se, r, nil, sql)
				if err != nil {
					t.Fatal(err)
				}
				if direct != serial[i] {
					t.Fatalf("replicas=%d replica %d query %d: %+v != serial %+v", replicas, ri, i, direct, serial[i])
				}
			}
		}
		se.Close()
		if !slices.Equal(weightBits(pred.Model), weights) {
			t.Fatalf("replicas=%d: the engine wrote the model it was handed", replicas)
		}
		for i, sql := range queries {
			if p, err := pred.PredictSQL(sql); err != nil || p != serial[i] {
				t.Fatalf("replicas=%d query %d: the reference now answers %+v, %v; want %+v", replicas, i, p, err, serial[i])
			}
		}
	}
}

// TestShardedDispatchStable checks what a miss costs on a three-slot
// engine: one model call each time with the prediction cache off; with it
// on, one call and one cache entry per key.
func TestShardedDispatchStable(t *testing.T) {
	sql := "SELECT a FROM t WHERE a > 5"
	se, stub := stubShards(t, 3, Config{})
	cached, cachedStub := stubShards(t, 3, Config{CacheSize: 8})
	for i := 0; i < 10; i++ {
		if _, err := se.PredictSQL(sql); err != nil {
			t.Fatal(err)
		}
		if _, err := cached.PredictSQL(sql); err != nil {
			t.Fatal(err)
		}
	}
	if n := stub.predicts.Load(); n != 10 {
		t.Fatalf("10 misses ran %d model calls, want 10 (cache disabled)", n)
	}
	if n := cachedStub.predicts.Load(); n != 1 {
		t.Fatalf("one key ran %d model calls with the cache on, want 1", n)
	}
	if n, _ := cached.cache.Stats(); n != 1 {
		t.Fatalf("one key left %d cache entries, want 1", n)
	}
}

// TestShardedSaturationFallback pins the pool's admit/shed rule on a
// model-less engine whose load is fully controlled: under a 10 ms bound, 40
// handlers on two replicas at 1 ms a call (20 ms) are shed, and admitted once
// the load drops inside the bound; without a bound (MaxEstWait 0) the same
// load is admitted. TestDispatchSinglePolicy walks the whole table.
func TestShardedSaturationFallback(t *testing.T) {
	se := waitEngine(40, 1000, 2)
	se.maxEstWaitMicros = 10_000
	if wait, shed := se.admit(); !shed || wait != 20_000 {
		t.Fatalf("a saturated pool: admit = %v µs, shed %v; want a shed at 20000", wait, shed)
	}
	se.busy.Store(2)
	if wait, shed := se.admit(); shed || wait != 1000 {
		t.Fatalf("a pool inside the bound: admit = %v µs, shed %v; want admitted at 1000", wait, shed)
	}
	se.busy.Store(40)
	se.maxEstWaitMicros = 0
	if _, shed := se.admit(); shed {
		t.Fatal("without a bound, a saturated pool shed a miss")
	}
}

// TestShardedDetourChecksHomeCache pins overload behaviour: a query whose
// estimated wait is past the admission bound but whose answer is cached is
// served from the cache, not shed. The engine has no model, so any path
// other than the cache hit would panic.
func TestShardedDetourChecksHomeCache(t *testing.T) {
	se := waitEngine(40, 1000, 2)
	se.maxEstWaitMicros = 10_000
	se.cache = newPredictionCache(4, &se.tel.CacheHits, &se.tel.CacheMisses)

	sql := "SELECT a FROM t WHERE a > 5"
	want := Prediction{CPUMinutes: 42, Normalized: 0.5, PlanNodes: 3}
	se.cache.Put(CanonicalSQL(sql), want)

	got, err := se.PredictSQL(sql)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("overloaded engine returned %+v, want the cached %+v", got, want)
	}
	if shed := se.tel.Shed.Load(); shed != 0 {
		t.Fatalf("a cached answer was counted shed %d times", shed)
	}
}

// gateModel is a stub whose PredictEncoded blocks until released, signalling
// entry — a deterministic probe that two calls are inside the one model at
// the same instant, which one slot can never allow.
type gateModel struct {
	stubModel
	entered chan struct{}
	release chan struct{}
}

func (g *gateModel) PredictEncoded(enc any, cache models.ConvCache) float64 {
	g.entered <- struct{}{}
	<-g.release
	return g.stubModel.PredictEncoded(enc, cache)
}

// TestShardsOverlapModelCalls proves the slots' point: two misses run their
// model calls at once on the one model, even when their keys hashed to the
// same shard back when each key was bound to one replica and waited for it.
func TestShardsOverlapModelCalls(t *testing.T) {
	entered := make(chan struct{}, 2)
	release := make(chan struct{})
	se := NewShardedEngine(&Predictor{Model: &gateModel{entered: entered, release: release}}, Config{Replicas: 2})
	t.Cleanup(se.Close)

	done := make(chan error, 2)
	a, b := sameParentHome(t)
	for _, sql := range []string{a, b} {
		go func() {
			_, err := se.PredictSQL(sql)
			done <- err
		}()
	}
	for i := 0; i < 2; i++ {
		select {
		case <-entered:
		case <-time.After(10 * time.Second):
			t.Fatal("slots never overlapped: only one model call in flight")
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
// its one row, and that the cache budget is the engine's whole: 12 entries
// hold 12 keys, whatever the slot count.
func TestShardedMetricsAggregate(t *testing.T) {
	se, _ := stubShards(t, 4, Config{CacheSize: 12})
	for i := 0; i < 24; i++ {
		if _, err := se.PredictSQL(fmt.Sprintf("SELECT a FROM t WHERE a > %d", i%12)); err != nil {
			t.Fatal(err)
		}
	}
	snap := se.Snapshot()
	agg := snap.Totals()
	if len(snap.Shards) != 1 || snap.Replicas != 4 {
		t.Fatalf("snapshot has %d rows over %d replicas, want 1 over 4", len(snap.Shards), snap.Replicas)
	}
	m := snap.Shards[0]
	if agg.Batches != m.Batches || agg.Coalesced != m.Coalesced ||
		agg.CacheHits != m.CacheHits || agg.CacheMisses != m.CacheMisses || agg.CacheEntries != m.CacheEntries {
		t.Fatalf("aggregate %+v != the engine's row %+v", agg, m)
	}
	// Only misses reach a model: 12 distinct templates, queried twice.
	if agg.Coalesced != 12 {
		t.Fatalf("coalesced = %d, want 12 (cache hits bypass the models)", agg.Coalesced)
	}
	// 12 distinct templates queried twice: the whole budget holds all 12,
	// so every repeat hits.
	if agg.CacheHits != 12 || agg.CacheMisses != 12 || agg.CacheEntries != 12 {
		t.Fatalf("cache hits/misses/entries = %d/%d/%d, want 12/12/12", agg.CacheHits, agg.CacheMisses, agg.CacheEntries)
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
	NewShardedEngine(pred, Config{}).Close()
}

// TestShardedClosedFallsBack mirrors the single-engine contract: Close is
// idempotent and later queries degrade to the serialised path.
func TestShardedClosedFallsBack(t *testing.T) {
	se, stub := stubShards(t, 2, Config{})
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
	if v := stub.violations.Load(); v != 0 {
		t.Fatalf("%d overlapping model calls from serial queries", v)
	}
}
