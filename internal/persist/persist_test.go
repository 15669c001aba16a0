package persist

import (
	"bytes"
	"io"
	"testing"

	"prestroid/internal/dataset"
	"prestroid/internal/models"
	"prestroid/internal/tensor"
	"prestroid/internal/workload"
)

func fixture(t *testing.T) (dataset.Split, workload.Normalizer, *models.Pipeline) {
	t.Helper()
	cfg := workload.DefaultGrabConfig()
	cfg.Queries = 120
	traces := workload.NewGrabGenerator(cfg).Generate()
	split := dataset.SplitRandom(traces, 1)
	pcfg := models.DefaultPipelineConfig(8)
	pcfg.MinCount = 2
	pipe := models.BuildPipeline(split.Train, pcfg)
	return split, workload.FitNormalizer(split.Train), pipe
}

func newModel(pipe *models.Pipeline, seed uint64) *models.Prestroid {
	cfg := models.DefaultPrestroidConfig(15, 5)
	cfg.ConvWidths = []int{8, 8}
	cfg.DenseWidths = []int{8}
	cfg.Seed = seed
	return models.NewPrestroid(cfg, pipe)
}

// mustDecode decodes a weight bundle the test just wrote.
func mustDecode(t *testing.T, r io.Reader) *Bundle {
	t.Helper()
	bd, err := DecodeBundle(r)
	if err != nil {
		t.Fatal(err)
	}
	return bd
}

func TestWeightsRoundTrip(t *testing.T) {
	split, norm, pipe := fixture(t)
	src := newModel(pipe, 1)
	src.Prepare(split.Train[:32])

	// Train a little so weights are non-trivial.
	labels := dataset.Labels(split.Train[:32], norm)
	for i := 0; i < 5; i++ {
		src.TrainBatch(split.Train[:32], labels)
	}
	var buf bytes.Buffer
	if err := SaveWeights(&buf, src); err != nil {
		t.Fatal(err)
	}
	// Different seed → different init; loading must overwrite it fully.
	dst := newModel(pipe, 99)
	dst.Prepare(split.Train[:32])
	if err := mustDecode(t, &buf).Apply(dst); err != nil {
		t.Fatal(err)
	}
	a := src.Predict(split.Train[:8])
	b := dst.Predict(split.Train[:8])
	if !tensor.Equal(a, b, 1e-12) {
		t.Fatalf("loaded model predicts differently:\n%v\n%v", a, b)
	}
}

func TestLoadWeightsShapeMismatch(t *testing.T) {
	split, _, pipe := fixture(t)
	src := newModel(pipe, 1)
	src.Prepare(split.Train[:8])
	var buf bytes.Buffer
	if err := SaveWeights(&buf, src); err != nil {
		t.Fatal(err)
	}
	// A model with different widths must refuse the bundle.
	cfg := models.DefaultPrestroidConfig(15, 5)
	cfg.ConvWidths = []int{16, 16}
	cfg.DenseWidths = []int{8}
	other := models.NewPrestroid(cfg, pipe)
	if err := mustDecode(t, &buf).Apply(other); err == nil {
		t.Fatal("expected shape mismatch error")
	}
}

func TestLoadWeightsGarbage(t *testing.T) {
	if _, err := DecodeBundle(bytes.NewBufferString("not a gob stream")); err == nil {
		t.Fatal("expected decode error")
	}
}

// TestBundleFansOutToReplicas pins the sharded-serving shipment path: one
// weight bundle, loaded once, fans out to N replicas via Clone, and every
// replica predicts bit-identically to the trained source.
func TestBundleFansOutToReplicas(t *testing.T) {
	split, norm, pipe := fixture(t)
	src := newModel(pipe, 1)
	src.Prepare(split.Train[:32])
	labels := dataset.Labels(split.Train[:32], norm)
	for i := 0; i < 3; i++ {
		src.TrainBatch(split.Train[:32], labels)
	}
	var buf bytes.Buffer
	if err := SaveWeights(&buf, src); err != nil {
		t.Fatal(err)
	}
	loaded := newModel(pipe, 77)
	if err := mustDecode(t, &buf).Apply(loaded); err != nil {
		t.Fatal(err)
	}
	replicas := []models.Model{loaded, loaded.Clone(), loaded.Clone(), loaded.Clone()}
	want := src.Predict(split.Test[:8])
	for ri, r := range replicas {
		got := r.Predict(split.Test[:8])
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("replica %d, trace %d: %v != trained %v (must be bit-identical)",
					ri, i, got.Data[i], want.Data[i])
			}
		}
	}
}

// TestBundleDecodeOnceApplyMany pins the hot-reload shipment contract: one
// DecodeBundle feeds any number of Apply calls, Validate against a
// mismatched architecture fails without mutating the model, and a failed
// Apply leaves the destination bit-identical to before the call.
func TestBundleDecodeOnceApplyMany(t *testing.T) {
	split, norm, pipe := fixture(t)
	src := newModel(pipe, 1)
	src.Prepare(split.Train[:32])
	labels := dataset.Labels(split.Train[:32], norm)
	for i := 0; i < 3; i++ {
		src.TrainBatch(split.Train[:32], labels)
	}
	var buf bytes.Buffer
	if err := SaveWeights(&buf, src); err != nil {
		t.Fatal(err)
	}
	bd, err := DecodeBundle(&buf)
	if err != nil {
		t.Fatal(err)
	}

	// One decoded bundle fans out into several fresh models.
	want := src.Predict(split.Test[:8])
	for seed := uint64(10); seed < 13; seed++ {
		dst := newModel(pipe, seed)
		if err := bd.Validate(dst); err != nil {
			t.Fatal(err)
		}
		if err := bd.Apply(dst); err != nil {
			t.Fatal(err)
		}
		dst.Prepare(split.Test[:8])
		got := dst.Predict(split.Test[:8])
		if !tensor.Equal(want, got, 1e-12) {
			t.Fatalf("seed %d: applied bundle predicts differently", seed)
		}
	}

	// A mismatched architecture is rejected by Validate and by Apply, and
	// neither writes a single scalar into the destination.
	cfg := models.DefaultPrestroidConfig(15, 5)
	cfg.ConvWidths = []int{16, 16}
	cfg.DenseWidths = []int{8}
	other := models.NewPrestroid(cfg, pipe)
	snapshot := make([][]float64, len(other.Weights()))
	for i, p := range other.Weights() {
		snapshot[i] = append([]float64(nil), p.W.Data...)
	}
	if err := bd.Validate(other); err == nil {
		t.Fatal("Validate accepted a mismatched architecture")
	}
	if err := bd.Apply(other); err == nil {
		t.Fatal("Apply accepted a mismatched architecture")
	}
	for i, p := range other.Weights() {
		for j := range p.W.Data {
			if p.W.Data[j] != snapshot[i][j] {
				t.Fatalf("rejected bundle mutated tensor %d", i)
			}
		}
	}
}

// saveFull writes a full bundle of (pipe, norm, m) and decodes it back, the
// way the daemon loads one in a fresh process.
func saveFull(t *testing.T, pipe *models.Pipeline, norm workload.Normalizer, m *models.Prestroid) *FullBundle {
	t.Helper()
	var buf bytes.Buffer
	if err := SaveFullBundle(&buf, pipe, norm, m, ""); err != nil {
		t.Fatal(err)
	}
	fb, err := DecodeFullBundle(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return fb
}

// TestPipelineRoundTrip pins the pipeline section of a full bundle on its
// own: identical models over the saved and the restored pipeline encode,
// hence predict, identically.
func TestPipelineRoundTrip(t *testing.T) {
	split, norm, pipe := fixture(t)
	restored := saveFull(t, pipe, norm, newModel(pipe, 1)).Pipeline()
	if restored.Enc.FeatureDim() != pipe.Enc.FeatureDim() {
		t.Fatalf("feature dim %d != %d", restored.Enc.FeatureDim(), pipe.Enc.FeatureDim())
	}
	a := newModel(pipe, 5)
	b := newModel(restored, 5)
	a.Prepare(split.Test)
	b.Prepare(split.Test)
	pa := a.Predict(split.Test)
	pb := b.Predict(split.Test)
	if !tensor.Equal(pa, pb, 1e-12) {
		t.Fatal("restored pipeline encodes differently")
	}
}

// TestPipelineRoundTripPreservesFlags checks that the encoder's ablation
// flags survive a full bundle, the one artefact that carries a pipeline.
func TestPipelineRoundTripPreservesFlags(t *testing.T) {
	_, norm, pipe := fixture(t)
	pipe.Enc.MeanPooling = true
	pipe.Enc.HashedPredicates = true
	restored := saveFull(t, pipe, norm, newModel(pipe, 1)).Pipeline()
	if !restored.Enc.MeanPooling || !restored.Enc.HashedPredicates {
		t.Fatal("encoder flags lost in round trip")
	}
}

func TestFullModelShipment(t *testing.T) {
	// The deployment story: train, save a full bundle, load it in a fresh
	// process and serve identical predictions.
	split, norm, pipe := fixture(t)
	src := newModel(pipe, 1)
	src.Prepare(split.Train)
	labels := dataset.Labels(split.Train[:32], norm)
	for i := 0; i < 3; i++ {
		src.TrainBatch(split.Train[:32], labels)
	}

	// "Fresh process".
	fb := saveFull(t, pipe, norm, src)
	served := newModel(fb.Pipeline(), 42)
	if err := fb.Weights().Apply(served); err != nil {
		t.Fatal(err)
	}
	served.Prepare(split.Test[:4])
	want := src.Predict(split.Test[:4])
	got := served.Predict(split.Test[:4])
	if !tensor.Equal(want, got, 1e-12) {
		t.Fatal("shipped model diverges from trained model")
	}
}
