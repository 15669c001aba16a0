package models

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"prestroid/internal/dataset"
	"prestroid/internal/tensor"
	"prestroid/internal/workload"
)

// testbed holds a small shared workload + pipeline for model tests.
type testbed struct {
	split dataset.Split
	norm  workload.Normalizer
	pipe  *Pipeline
}

var shared *testbed

func bed(t *testing.T) *testbed {
	t.Helper()
	if shared != nil {
		return shared
	}
	cfg := workload.DefaultGrabConfig()
	cfg.Queries = 260
	traces := workload.NewGrabGenerator(cfg).Generate()
	split := dataset.SplitRandom(traces, 1)
	pcfg := DefaultPipelineConfig(8)
	pcfg.MinCount = 2
	shared = &testbed{
		split: split,
		norm:  workload.FitNormalizer(split.Train),
		pipe:  BuildPipeline(split.Train, pcfg),
	}
	return shared
}

// trainFor runs a few epochs and returns first- and last-epoch mean loss.
func trainFor(t *testing.T, m Model, b *testbed, epochs int) (first, last float64) {
	t.Helper()
	m.Prepare(b.split.Train)
	m.Prepare(b.split.Test)
	rng := tensor.NewRNG(3)
	for e := 0; e < epochs; e++ {
		total, n := 0.0, 0
		for _, batch := range dataset.Batches(b.split.Train, 32, rng) {
			labels := dataset.Labels(batch, b.norm)
			total += m.TrainBatch(batch, labels)
			n++
		}
		mean := total / float64(n)
		if e == 0 {
			first = mean
		}
		last = mean
	}
	return first, last
}

func TestPipelineBuilds(t *testing.T) {
	b := bed(t)
	if b.pipe.W2V.VocabSize() == 0 {
		t.Fatal("pipeline Word2Vec learned nothing")
	}
	if b.pipe.Enc.FeatureDim() <= 8 {
		t.Fatalf("feature dim %d too small", b.pipe.Enc.FeatureDim())
	}
}

func TestPrestroidSubTreeTrains(t *testing.T) {
	b := bed(t)
	cfg := DefaultPrestroidConfig(15, 5)
	cfg.ConvWidths = []int{16, 16}
	cfg.DenseWidths = []int{16}
	m := NewPrestroid(cfg, b.pipe)
	first, last := trainFor(t, m, b, 6)
	if last >= first {
		t.Fatalf("loss did not decrease: %v -> %v", first, last)
	}
	pred := m.Predict(b.split.Test)
	if pred.Shape[0] != len(b.split.Test) || pred.Shape[1] != 1 {
		t.Fatalf("prediction shape %v", pred.Shape)
	}
	for _, v := range pred.Data {
		if v < 0 || v > 1 {
			t.Fatalf("prediction %v outside sigmoid range", v)
		}
	}
}

func TestPrestroidFullTrains(t *testing.T) {
	b := bed(t)
	cfg := DefaultPrestroidConfig(15, 0) // K=0 → full tree
	cfg.ConvWidths = []int{16, 16}
	cfg.DenseWidths = []int{16}
	m := NewPrestroid(cfg, b.pipe)
	first, last := trainFor(t, m, b, 4)
	if last >= first {
		t.Fatalf("full-tree loss did not decrease: %v -> %v", first, last)
	}
	if !strings.Contains(m.Name(), "Full") {
		t.Fatalf("full model name = %q", m.Name())
	}
}

func TestPrestroidNames(t *testing.T) {
	b := bed(t)
	sub := NewPrestroid(DefaultPrestroidConfig(32, 11), b.pipe)
	if sub.Name() != "Prestroid (32-11-8)" {
		t.Fatalf("name = %q", sub.Name())
	}
}

func TestSubTreeBatchBytesFarBelowFullTree(t *testing.T) {
	b := bed(t)
	subCfg := DefaultPrestroidConfig(15, 9)
	subCfg.ConvWidths = []int{8}
	fullCfg := DefaultPrestroidConfig(15, 0)
	fullCfg.ConvWidths = []int{8}
	sub := NewPrestroid(subCfg, b.pipe)
	full := NewPrestroid(fullCfg, b.pipe)
	sub.Prepare(b.split.Train)
	full.Prepare(b.split.Train)
	sb := sub.BatchBytes(32)
	fb := full.BatchBytes(32)
	if sb >= fb {
		t.Fatalf("sub-tree batch %d not smaller than full %d", sb, fb)
	}
	// The paper reports 13.5x for (15-9-300); with our plan-size spread the
	// ratio should still be large.
	if fb/sb < 2 {
		t.Fatalf("reduction factor only %dx", fb/sb)
	}
}

func TestMSCNTrains(t *testing.T) {
	b := bed(t)
	cfg := DefaultMSCNConfig()
	cfg.Units = 32
	m := NewMSCN(cfg, b.pipe)
	first, last := trainFor(t, m, b, 8)
	if last >= first {
		t.Fatalf("MSCN loss did not decrease: %v -> %v", first, last)
	}
	if m.ParamCount() == 0 {
		t.Fatal("MSCN has no parameters")
	}
	if m.BatchBytes(32) <= 0 {
		t.Fatal("MSCN batch bytes must be positive")
	}
}

func TestWCNNTrains(t *testing.T) {
	b := bed(t)
	cfg := DefaultWCNNConfig()
	cfg.EmbedDim = 16
	cfg.Kernels = 8
	m := NewWCNN(cfg)
	first, last := trainFor(t, m, b, 8)
	if last >= first {
		t.Fatalf("WCNN loss did not decrease: %v -> %v", first, last)
	}
	if m.Name() != "WCNN-8" {
		t.Fatalf("name = %q", m.Name())
	}
}

func TestWCNNHandlesUnseenTokens(t *testing.T) {
	b := bed(t)
	cfg := DefaultWCNNConfig()
	cfg.EmbedDim = 8
	cfg.Kernels = 4
	m := NewWCNN(cfg)
	m.Prepare(b.split.Train)
	// Test traces contain tokens (values) never seen in training: Predict
	// must handle them through the unk id.
	pred := m.Predict(b.split.Test)
	if pred.Shape[0] != len(b.split.Test) {
		t.Fatalf("prediction shape %v", pred.Shape)
	}
}

func TestWCNNCompactInput(t *testing.T) {
	b := bed(t)
	wcfg := DefaultWCNNConfig()
	wcfg.EmbedDim = 8
	wcfg.Kernels = 4
	w := NewWCNN(wcfg)
	w.Prepare(b.split.Train)

	fullCfg := DefaultPrestroidConfig(15, 0)
	fullCfg.ConvWidths = []int{8}
	full := NewPrestroid(fullCfg, b.pipe)
	full.Prepare(b.split.Train)

	// §5.4: WCNN's 1-D token layout is far more compact than padded trees.
	if w.BatchBytes(32) >= full.BatchBytes(32) {
		t.Fatalf("WCNN batch %d not below full-tree %d", w.BatchBytes(32), full.BatchBytes(32))
	}
}

func TestMSEMetricInMinutes(t *testing.T) {
	b := bed(t)
	cfg := DefaultPrestroidConfig(15, 5)
	cfg.ConvWidths = []int{8}
	cfg.DenseWidths = []int{8}
	m := NewPrestroid(cfg, b.pipe)
	m.Prepare(b.split.Test)
	mse := MSE(m, b.split.Test, b.norm)
	if mse <= 0 {
		t.Fatalf("MSE = %v", mse)
	}
	// Untrained model should do poorly but finitely.
	if mse > 1e7 {
		t.Fatalf("MSE implausibly large: %v", mse)
	}
}

func TestModelsParamCounts(t *testing.T) {
	b := bed(t)
	sub := NewPrestroid(DefaultPrestroidConfig(15, 9), b.pipe)
	full := NewPrestroid(DefaultPrestroidConfig(15, 0), b.pipe)
	// Sub-tree models scale the dense head by K: strictly more parameters
	// than full-tree with the same widths (the App B.1 "relatively heavy"
	// observation).
	if sub.ParamCount() <= full.ParamCount() {
		t.Fatalf("sub %d <= full %d", sub.ParamCount(), full.ParamCount())
	}
}

func TestPrestroidSamplingAblations(t *testing.T) {
	b := bed(t)
	for _, mode := range []SamplingMode{SamplingNaiveBFS, SamplingNaiveDFS} {
		cfg := DefaultPrestroidConfig(15, 5)
		cfg.ConvWidths = []int{8}
		cfg.DenseWidths = []int{8}
		cfg.Sampling = mode
		m := NewPrestroid(cfg, b.pipe)
		m.Prepare(b.split.Train[:20])
		pred := m.Predict(b.split.Train[:20])
		if pred.Shape[0] != 20 {
			t.Fatalf("mode %d prediction shape %v", mode, pred.Shape)
		}
	}
}

func TestPrestroidDisableVotes(t *testing.T) {
	b := bed(t)
	cfg := DefaultPrestroidConfig(15, 5)
	cfg.ConvWidths = []int{8}
	cfg.DenseWidths = []int{8}
	cfg.DisableVotes = true
	m := NewPrestroid(cfg, b.pipe)
	m.Prepare(b.split.Train[:10])
	// All cached trees must vote everywhere.
	for _, tr := range b.split.Train[:10] {
		for _, tree := range m.trees(tr) {
			for _, v := range tree.Votes {
				if v != 1 {
					t.Fatal("DisableVotes must force all votes to 1")
				}
			}
		}
	}
}

func TestPrestroidConcurrentEncodeMatchesPrepare(t *testing.T) {
	b := bed(t)
	traces := b.split.Test[:8]

	// Reference: the classic single-goroutine Prepare path.
	ref := NewPrestroid(DefaultPrestroidConfig(15, 5), b.pipe)
	ref.Prepare(traces)
	want := ref.Predict(traces)

	// Concurrent path: encode on many goroutines, adopt, then predict.
	m := NewPrestroid(DefaultPrestroidConfig(15, 5), b.pipe)
	encs := make([]any, len(traces))
	var wg sync.WaitGroup
	for i, tr := range traces {
		wg.Add(1)
		go func(i int, tr *workload.Trace) {
			defer wg.Done()
			encs[i] = m.EncodeTrace(tr)
		}(i, tr)
	}
	wg.Wait()
	for i, tr := range traces {
		m.AdoptEncoding(tr, encs[i])
	}
	got := m.Predict(traces)
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("prediction %d diverged: concurrent-encode %v vs prepare %v", i, got.Data[i], want.Data[i])
		}
	}
}

func TestPrestroidEvictThenPredictIdentical(t *testing.T) {
	b := bed(t)
	traces := b.split.Test[:4]
	m := NewPrestroid(DefaultPrestroidConfig(15, 5), b.pipe)
	m.Prepare(traces)
	want := m.Predict(traces)
	// Evicting (including never-prepared traces: a no-op) and re-predicting
	// must reproduce the exact same encodings and outputs.
	extra := b.split.Test[4:6]
	m.Evict(traces)
	m.Evict(extra)
	got := m.Predict(traces)
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("prediction %d changed after eviction: %v vs %v", i, got.Data[i], want.Data[i])
		}
	}
}

// NewPrestroid refuses a node limit Algorithm 1 cannot sample at any conv
// depth, naming it, rather than leaving the failure to the first encode —
// which may run on a helper goroutine no recover reaches.
func TestNewPrestroidRejectsUnsampleableN(t *testing.T) {
	b := bed(t)
	cfg := DefaultPrestroidConfig(3, 5)
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("NewPrestroid accepted N=3 for Algorithm 1")
			}
			if msg := fmt.Sprint(r); !strings.Contains(msg, "N=3") {
				t.Fatalf("panic %q does not name N", msg)
			}
		}()
		NewPrestroid(cfg, b.pipe)
	}()
	// The naive samplers and the full-tree model do not run Algorithm 1.
	for _, c := range []PrestroidConfig{
		func() PrestroidConfig { c := cfg; c.Sampling = SamplingNaiveBFS; return c }(),
		DefaultPrestroidConfig(3, 0),
	} {
		NewPrestroid(c, b.pipe).Prepare(b.split.Test[:4])
	}
}

// Prepare encodes its uncached traces in parallel; the trees it caches must
// not depend on how many workers did the encoding.
func TestPrepareIndependentOfGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	b := bed(t)
	traces := append(append([]*workload.Trace(nil), b.split.Train[:48]...), b.split.Test[:16]...)
	var ms [2]*Prestroid
	for i, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		ms[i] = NewPrestroid(DefaultPrestroidConfig(15, 5), b.pipe)
		ms[i].Prepare(traces)
	}
	for _, tr := range traces {
		if len(ms[0].cache[tr]) == 0 {
			t.Fatalf("%q: no trees at GOMAXPROCS=1", tr.SQL)
		}
		assertTreesIdentical(t, "GOMAXPROCS=4 vs 1", ms[1].cache[tr], ms[0].cache[tr])
	}
}
