package serve

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"prestroid/internal/models"
	"prestroid/internal/sqlparse"
	"prestroid/internal/telemetry"
)

// tmplCfg is the engine configuration every template front-end test uses:
// prediction and sub-tree caches off, so a repeated query exercises the
// template rebind path instead of short-circuiting on a cached answer.
func tmplCfg() Config {
	return Config{
		CacheSize:         0,
		SubtreeCacheSize:  0,
		TemplateCacheSize: 256,
	}
}

// templateQueryGens produce literal variants of a fixed template each — the
// unique-literal/shared-template workload the front end exists for. The set
// covers every literal kind the rebinder handles (integers, negatives,
// floats, strings, LIMIT counts) plus out-of-vocabulary identifiers and
// tables the pipeline never saw in training, where featurization degenerates
// to OOV/default rows and byte-identity is easiest to get wrong.
var templateQueryGens = []func(r *rand.Rand) string{
	func(r *rand.Rand) string {
		return fmt.Sprintf("SELECT a, b FROM t JOIN u ON t.id = u.id WHERE a > %d AND b < %d ORDER BY a LIMIT %d",
			r.Intn(1000), r.Intn(97)+1, r.Intn(19)+1)
	},
	func(r *rand.Rand) string {
		return fmt.Sprintf("SELECT a FROM t WHERE a > -%d AND b < %.3f", r.Intn(500)+1, r.Float64()*100)
	},
	func(r *rand.Rand) string {
		names := []string{"alice", "bob", "carol", "it''s"}
		return fmt.Sprintf("SELECT Name FROM users WHERE Name = '%s' AND age > %d",
			names[r.Intn(len(names))], r.Intn(90))
	},
	func(r *rand.Rand) string {
		// Unknown table and columns: every token is out-of-vocabulary.
		return fmt.Sprintf("SELECT zz_unseen FROM never_trained_tbl WHERE zz_unseen > %d LIMIT %d",
			r.Intn(10000), r.Intn(7)+1)
	},
}

// assertTemplateByteIdentical drives one predictor through an engine with
// the template cache on and asserts every answer — first sight (the miss
// that deposits), immediate replay (the rebind hit) and fresh literal
// variants of the now-cached template — is byte-identical to the serialised
// uncached reference.
func assertTemplateByteIdentical(t *testing.T, pred *Predictor) {
	t.Helper()
	se, e := oneShard(t, pred, tmplCfg())
	rng := rand.New(rand.NewSource(23))
	for round := 0; round < 25; round++ {
		for gi, gen := range templateQueryGens {
			sql := gen(rng)
			want, err := pred.PredictSQL(sql)
			if err != nil {
				t.Fatalf("gen %d: reference failed on %q: %v", gi, sql, err)
			}
			first, err := se.PredictSQL(sql)
			if err != nil {
				t.Fatalf("gen %d: engine failed on %q: %v", gi, sql, err)
			}
			if first != want {
				t.Fatalf("gen %d first sight of %q: engine %+v != reference %+v", gi, sql, first, want)
			}
			replay, err := se.PredictSQL(sql)
			if err != nil {
				t.Fatal(err)
			}
			if replay != want {
				t.Fatalf("gen %d replay of %q: engine %+v != reference %+v", gi, sql, replay, want)
			}
		}
	}
	snap := e.Snapshot()
	if snap.TemplateHits == 0 {
		t.Fatal("no template hits recorded: the rebind path was never exercised")
	}
	if snap.TemplateEntries == 0 || snap.TemplateBytes == 0 {
		t.Fatalf("template gauges entries=%d bytes=%d, want both > 0", snap.TemplateEntries, snap.TemplateBytes)
	}
}

// TestTemplatePredictByteIdentical is the serve-level property test of the
// tentpole contract: template-extract → rebind produces predictions
// byte-identical to the full parse/plan/featurize path, over a generated
// corpus of literal variants, in the default word2vec featurization.
func TestTemplatePredictByteIdentical(t *testing.T) {
	assertTemplateByteIdentical(t, newTestPredictor(t))
}

// TestTemplatePredictByteIdenticalHashed repeats the property under hashed
// predicate featurization — the one literal-sensitive encoder mode, where a
// template hit must re-featurize the predicate rows instead of replaying
// cached ones.
func TestTemplatePredictByteIdenticalHashed(t *testing.T) {
	base := newTestPredictor(t)
	enc := *base.Pipe.Enc
	enc.HashedPredicates = true
	pipe := &models.Pipeline{W2V: base.Pipe.W2V, Enc: &enc}
	m := models.NewPrestroid(testModelConfig(), pipe)
	assertTemplateByteIdentical(t, &Predictor{Model: m, Pipe: pipe, Norm: base.Norm})
}

// TestTemplateRebindSurvivesRoll pins byte-identity across a live weight
// roll: the template entry deposited under the old generation must not leak
// its stale featurization into post-roll answers (the successor engine starts
// on an empty template segment).
func TestTemplateRebindSurvivesRoll(t *testing.T) {
	pred := newTestPredictor(t)
	cfg := tmplCfg()
	cfg.Replicas = 1
	en := newTestEntry(t, pred, cfg)
	se := en.Live()

	variant := func(n int) string {
		return fmt.Sprintf("SELECT a, b FROM t JOIN u ON t.id = u.id WHERE a > %d AND b < %d ORDER BY a LIMIT %d",
			n, n%97+1, n%19+1)
	}
	// Warm the template under generation 1 and take a rebind-path hit.
	if _, _, err := se.PredictSQLGenCtx(context.Background(), variant(1)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := se.PredictSQLGenCtx(context.Background(), variant(2)); err != nil {
		t.Fatal(err)
	}
	if hits := se.Snapshot().Totals().TemplateHits; hits == 0 {
		t.Fatal("template was not hit before the roll")
	}

	bundle, reference := perturbedBundle(t, pred, 0.25)
	gen, err := en.ReloadWeights(bytes.NewReader(bundle))
	if err != nil {
		t.Fatal(err)
	}
	if gen != 2 {
		t.Fatalf("reload generation = %d, want 2", gen)
	}
	se = en.Live()
	if entries := se.Snapshot().Totals().TemplateEntries; entries != 0 {
		t.Fatalf("template cache holds %d entries after the roll, want 0", entries)
	}

	// Fresh literals re-deposit under generation 2; replays hit the new
	// entry. Every answer must match the new-weight serialised reference.
	for _, n := range []int{3, 4, 3, 1} {
		want, err := reference.PredictSQL(variant(n))
		if err != nil {
			t.Fatal(err)
		}
		got, g, err := se.PredictSQLGenCtx(context.Background(), variant(n))
		if err != nil {
			t.Fatal(err)
		}
		if g != 2 {
			t.Fatalf("post-roll generation = %d, want 2", g)
		}
		if got != want {
			t.Fatalf("post-roll %q: engine %+v != new-bundle reference %+v", variant(n), got, want)
		}
	}
}

// TestTemplateExplainWarmsPredict pins the explain/predict cache sharing:
// PlanOnly deposits a skeleton that turns the first prediction of the
// template into a hit, and that prediction leaves its answer in the entry,
// which answers a later literal variant without encoding it.
func TestTemplateExplainWarmsPredict(t *testing.T) {
	pred, m := newCountingPredictor(t)
	se, e := oneShard(t, pred, tmplCfg())

	if _, err := e.PlanOnly("SELECT a FROM t WHERE a > 1"); err != nil {
		t.Fatal(err)
	}
	snap := e.Snapshot()
	if snap.TemplateMisses != 1 || snap.TemplateEntries != 1 {
		t.Fatalf("after explain: misses=%d entries=%d, want 1/1", snap.TemplateMisses, snap.TemplateEntries)
	}
	skeletonBytes := snap.TemplateBytes

	for i, sql := range []string{"SELECT a FROM t WHERE a > 42", "SELECT a FROM t WHERE a > 7"} {
		want, err := pred.PredictSQL(sql)
		if err != nil {
			t.Fatal(err)
		}
		m.encodes.Store(0)
		got, err := se.PredictSQL(sql)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("explain-warmed predict of %q %+v != reference %+v", sql, got, want)
		}
		if n, wantN := m.encodes.Load(), int64(1-i); n != wantN {
			t.Fatalf("prediction %d encoded %d times, want %d", i, n, wantN)
		}
	}
	snap = e.Snapshot()
	if snap.TemplateHits != 2 {
		t.Fatalf("explain-warmed predictions recorded %d hits, want 2", snap.TemplateHits)
	}
	if snap.TemplateEntries != 1 || snap.TemplateBytes != skeletonBytes {
		t.Fatalf("answered entry: %d entries, bytes %d -> %d; want the one entry at its skeleton's size",
			snap.TemplateEntries, skeletonBytes, snap.TemplateBytes)
	}
}

// TestTemplateCacheUpgradeInPlace pins the template segment's one replace
// rule on top of the shared LRU (see lru_test.go): an answered deposit
// replaces an unanswered entry, and nothing else replaces a present entry —
// not an unanswered deposit, and not a second answer.
func TestTemplateCacheUpgradeInPlace(t *testing.T) {
	var hits, misses telemetry.Counter
	c := newTemplateCache(8, &hits, &misses)
	stmt, err := sqlparse.Parse("SELECT a FROM t WHERE a > 1")
	if err != nil {
		t.Fatal(err)
	}
	skeleton := &templateEntry{stmt: stmt}
	answered := &templateEntry{stmt: stmt, p: Prediction{Normalized: 0.25}, answered: true}

	c.Put("k", skeleton)
	_, skeletonBytes := c.Stats()
	c.Put("k", &templateEntry{stmt: stmt})
	if ent, _ := c.Get("k"); ent != skeleton {
		t.Fatal("an unanswered deposit replaced an unanswered entry")
	}
	c.Put("k", answered)
	if ent, _ := c.Get("k"); ent != answered {
		t.Fatal("an answered deposit did not replace the unanswered entry")
	}
	c.Put("k", &templateEntry{stmt: stmt})
	c.Put("k", &templateEntry{stmt: stmt, p: Prediction{Normalized: 0.5}, answered: true})
	if ent, _ := c.Get("k"); ent != answered {
		t.Fatal("a later deposit replaced an answered entry")
	}
	if n, b := c.Stats(); n != 1 || b != skeletonBytes {
		t.Fatalf("entries=%d bytes=%d, want 1 entry at the skeleton's %d bytes", n, b, skeletonBytes)
	}
}

// TestTemplateCacheConcurrentReloadRoll hammers the template front end from
// several goroutines while weight rolls replace the engine underneath it —
// the -race check on template segments across concurrent rolls. Every answer must
// match the serialised reference of the generation it is tagged with;
// anything else means a stale template featurization crossed a roll.
func TestTemplateCacheConcurrentReloadRoll(t *testing.T) {
	pred := newTestPredictor(t)
	cfg := tmplCfg()
	cfg.Replicas = 2
	en := newTestEntry(t, pred, cfg)

	variant := func(n int) string {
		return fmt.Sprintf("SELECT a, b FROM t JOIN u ON t.id = u.id WHERE a > %d AND b < %d ORDER BY a LIMIT %d",
			n, n%97+1, n%19+1)
	}
	queries := make([]string, 6)
	for i := range queries {
		queries[i] = variant(i)
	}

	// One serialised reference per generation the roll sequence will serve.
	const lastGen = 4
	refs := map[int64]*Predictor{1: pred}
	bundles := map[int64][]byte{}
	for g := int64(2); g <= lastGen; g++ {
		b, ref := perturbedBundle(t, pred, 0.2*float64(g-1))
		bundles[g], refs[g] = b, ref
	}
	expected := map[int64][]Prediction{}
	for g, ref := range refs {
		preds := make([]Prediction, len(queries))
		for i, q := range queries {
			p, err := ref.PredictSQL(q)
			if err != nil {
				t.Fatal(err)
			}
			preds[i] = p
		}
		expected[g] = preds
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	errc := make(chan error, 8)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for !stop.Load() {
				i := rng.Intn(len(queries))
				p, g, err := en.PredictSQLGenCtx(context.Background(), queries[i])
				if err != nil {
					errc <- fmt.Errorf("predict: %w", err)
					return
				}
				want, ok := expected[g]
				if !ok {
					errc <- fmt.Errorf("prediction tagged unknown generation %d", g)
					return
				}
				if p != want[i] {
					errc <- fmt.Errorf("generation %d answer %+v != reference %+v for %q", g, p, want[i], queries[i])
					return
				}
			}
		}(int64(w) + 100)
	}
	for g := int64(2); g <= lastGen; g++ {
		time.Sleep(20 * time.Millisecond)
		if _, err := en.ReloadWeights(bytes.NewReader(bundles[g])); err != nil {
			t.Fatalf("reload to generation %d: %v", g, err)
		}
	}
	time.Sleep(20 * time.Millisecond)
	stop.Store(true)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if g := en.Live().Generation(); g != lastGen {
		t.Fatalf("final generation = %d, want %d", g, lastGen)
	}
}
