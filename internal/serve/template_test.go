package serve

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"prestroid/internal/models"
)

// tmplCfg is the engine configuration every template front-end test uses:
// prediction and sub-tree caches off, so a repeated query reaches the
// template cache instead of short-circuiting on a cached answer.
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
// that deposits), immediate replay (the template hit) and fresh literal
// variants of the now-cached template — is byte-identical to the serialised
// uncached reference. An engine that answers templates must have hit its
// template cache; a HashedPredicates engine must keep none.
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
	if pred.Pipe.Enc.HashedPredicates {
		if e.tmplCache != nil || snap.TemplateHits != 0 || snap.TemplateMisses != 0 || snap.TemplateEntries != 0 {
			t.Fatalf("a hashed-predicate engine keeps a template cache: hits=%d misses=%d entries=%d",
				snap.TemplateHits, snap.TemplateMisses, snap.TemplateEntries)
		}
		return
	}
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
// predicate featurization — the one literal-sensitive encoder mode, whose
// engine keeps no template cache and computes every literal variant.
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

// gatedModel is a real model whose calls each announce themselves on entered
// and then wait for release, so a test decides what arrives while a call is
// in flight.
type gatedModel struct {
	*countingModel
	entered chan struct{}
	release chan struct{}
}

func (g *gatedModel) PredictEncoded(enc any, cache models.ConvCache) float64 {
	g.entered <- struct{}{}
	<-g.release
	return g.countingModel.PredictEncoded(enc, cache)
}

// TestTemplateFliesOnce pins single-flight by template key: 8 concurrent
// first variants of one new template — 8 canonical keys — make exactly one
// model call, the first variant's, which the other 7 wait on. Every answer
// is byte-identical to the serialised reference, and each caller writes it
// under its own canonical key.
func TestTemplateFliesOnce(t *testing.T) {
	base := newTestPredictor(t)
	counting := &countingModel{Prestroid: base.Model.(*models.Prestroid)}
	m := &gatedModel{countingModel: counting, entered: make(chan struct{}, 8), release: make(chan struct{})}
	cfg := tmplCfg()
	cfg.CacheSize = 16
	cfg.Replicas = 2
	se := NewShardedEngine(&Predictor{Model: m, Pipe: base.Pipe, Norm: base.Norm}, cfg)
	t.Cleanup(se.Close)

	const variants = 8
	sqls := make([]string, variants)
	for i := range sqls {
		sqls[i] = fmt.Sprintf("SELECT a, b FROM t JOIN u ON t.id = u.id WHERE a > %d AND b < %d", i, 100-i)
	}
	got := make([]Prediction, variants)
	var wg sync.WaitGroup
	ask := func(i int) {
		defer wg.Done()
		p, err := se.PredictSQL(sqls[i])
		if err != nil {
			t.Error(err)
		}
		got[i] = p
	}
	wg.Add(variants)
	go ask(0)
	<-m.entered
	for i := 1; i < variants; i++ {
		go ask(i)
	}
	awaitParked(t, followerWait, variants-1)
	close(m.release)
	wg.Wait()
	for i, sql := range sqls {
		want, err := base.PredictSQL(sql)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got[i].Normalized) != math.Float64bits(want.Normalized) || got[i] != want {
			t.Fatalf("%q: engine %+v != serialised reference %+v", sql, got[i], want)
		}
	}
	if n := counting.encodes.Load(); n != 1 {
		t.Fatalf("%d first variants of one template encoded %d times, want 1", variants, n)
	}
	snap := se.Snapshot().Totals()
	if snap.Batches != 1 || snap.Coalesced != variants {
		t.Fatalf("model calls/coalesced = %d/%d, want 1/%d", snap.Batches, snap.Coalesced, variants)
	}
	if n, _ := se.cache.Stats(); n != variants {
		t.Fatalf("prediction cache holds %d entries, want each variant's %d", n, variants)
	}
	if snap.TemplateEntries != 1 {
		t.Fatalf("template entries = %d, want 1", snap.TemplateEntries)
	}
}
