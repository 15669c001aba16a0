package persist

import (
	"bytes"
	"encoding/gob"
	"strings"
	"testing"

	"prestroid/internal/models"
	"prestroid/internal/otp"
	"prestroid/internal/tensor"
	"prestroid/internal/workload"
)

// TestFullBundleRoundTrip pins the whole-identity round trip: the decoded
// pipeline reconstructs the same feature dimension, the normaliser travels
// with the bundle, and applying the weight section to a model built off the
// decoded pipeline reproduces the source model's predictions bit for bit.
func TestFullBundleRoundTrip(t *testing.T) {
	split, norm, pipe := fixture(t)
	src := newModel(pipe, 1)
	src.Prepare(split.Train[:32])

	var buf bytes.Buffer
	if err := SaveFullBundle(&buf, pipe, norm, src, ""); err != nil {
		t.Fatal(err)
	}
	fb, err := DecodeFullBundle(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got := fb.Pipeline().Enc.FeatureDim(); got != pipe.Enc.FeatureDim() {
		t.Fatalf("decoded pipeline feature dim %d, want %d", got, pipe.Enc.FeatureDim())
	}
	if fb.Norm() != norm {
		t.Fatalf("decoded normaliser %+v, want %+v", fb.Norm(), norm)
	}
	// The model rebuilt off the bundle's own pipeline (different init seed)
	// must predict identically once the bundle's weights are applied.
	dst := newModel(fb.Pipeline(), 99)
	if err := fb.Weights().Apply(dst); err != nil {
		t.Fatal(err)
	}
	a := src.Predict(split.Train[:8])
	b := dst.Predict(split.Train[:8])
	if !tensor.Equal(a, b, 0) {
		t.Fatalf("bundle-restored model predicts differently:\n%v\n%v", a, b)
	}
}

// TestFullBundleRejectsTruncated checks that a stream cut anywhere —
// including inside the pipeline section — rejects the bundle as a whole.
func TestFullBundleRejectsTruncated(t *testing.T) {
	split, norm, pipe := fixture(t)
	src := newModel(pipe, 1)
	src.Prepare(split.Train[:16])
	var buf bytes.Buffer
	if err := SaveFullBundle(&buf, pipe, norm, src, ""); err != nil {
		t.Fatal(err)
	}
	for _, frac := range []int{4, 2} {
		cut := buf.Len() / frac
		if _, err := DecodeFullBundle(bytes.NewReader(buf.Bytes()[:cut])); err == nil {
			t.Fatalf("decode accepted a bundle truncated to %d/%d bytes", cut, buf.Len())
		}
	}
	if _, err := DecodeFullBundle(strings.NewReader("not a gob stream")); err == nil {
		t.Fatal("decode accepted garbage")
	}
}

// TestFullBundleRejectsNormInversion checks the normaliser sanity gate: a
// bundle whose label range is inverted (or empty) would make
// Normalize/Denormalize nonsense, so it must never decode.
func TestFullBundleRejectsNormInversion(t *testing.T) {
	split, _, pipe := fixture(t)
	src := newModel(pipe, 1)
	src.Prepare(split.Train[:16])
	for _, bad := range []workload.Normalizer{
		{LogMin: 2, LogMax: 1}, // inverted
		{LogMin: 3, LogMax: 3}, // empty range
	} {
		var buf bytes.Buffer
		if err := SaveFullBundle(&buf, pipe, bad, src, ""); err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeFullBundle(&buf); err == nil {
			t.Fatalf("decode accepted normaliser %+v", bad)
		} else if !strings.Contains(err.Error(), "normaliser") {
			t.Fatalf("normaliser rejection reported %v", err)
		}
	}
}

// TestFullBundleRejectsFeatureDimMismatch checks the declared-feature-dim
// gate: a bundle whose pipeline section reconstructs to a different feature
// width than the one the weights were saved against never decodes, so no
// model is ever built from an incoherent triple.
func TestFullBundleRejectsFeatureDimMismatch(t *testing.T) {
	split, norm, pipe := fixture(t)
	src := newModel(pipe, 1)
	src.Prepare(split.Train[:16])
	b := fullBundle{
		Version:    formatVersion,
		FeatureDim: pipe.Enc.FeatureDim() + 1, // lies about the width
		Norm:       norm,
		Pipeline:   newPipelineBundle(pipe),
		Weights:    newWeightBundle(src),
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&b); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeFullBundle(&buf); err == nil {
		t.Fatal("decode accepted a feature-dim mismatch")
	} else if !strings.Contains(err.Error(), "feature dim") {
		t.Fatalf("feature-dim rejection reported %v", err)
	}
}

// TestFullBundleRejectsVersionSkew checks both the envelope and the nested
// weight-section version gates.
func TestFullBundleRejectsVersionSkew(t *testing.T) {
	split, norm, pipe := fixture(t)
	src := newModel(pipe, 1)
	src.Prepare(split.Train[:16])
	for _, corrupt := range []func(*fullBundle){
		func(b *fullBundle) { b.Version = formatVersion + 1 },
		func(b *fullBundle) { b.Pipeline.Version = formatVersion + 1 },
		func(b *fullBundle) { b.Weights.Version = formatVersion + 1 },
	} {
		b := fullBundle{
			Version:    formatVersion,
			FeatureDim: pipe.Enc.FeatureDim(),
			Norm:       norm,
			Pipeline:   newPipelineBundle(pipe),
			Weights:    newWeightBundle(src),
		}
		corrupt(&b)
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&b); err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeFullBundle(&buf); err == nil {
			t.Fatal("decode accepted a version-skewed bundle")
		}
	}
}

// TestFullBundleAppliesOnlyToMatchingArchitecture checks that the weight
// section is still architecture-guarded at apply time: weights saved against
// a *different* pipeline (other feature width) are rejected by the model
// built off the bundle's own pipeline. This is the serving layer's
// feature-dim check, exercised at the persist level.
func TestFullBundleAppliesOnlyToMatchingArchitecture(t *testing.T) {
	split, norm, pipe := fixture(t)

	// A second pipeline over a strictly larger table universe: one extra
	// table grows FeatureDim by one.
	tables := make([]string, 0, len(pipe.Enc.TableIndex)+1)
	for tbl := range pipe.Enc.TableIndex {
		tables = append(tables, tbl)
	}
	tables = append(tables, "grown_extra_table")
	enc := otp.NewEncoder(tables, pipe.W2V)
	enc.MeanPooling = pipe.Enc.MeanPooling
	enc.HashedPredicates = pipe.Enc.HashedPredicates
	grown := &models.Pipeline{W2V: pipe.W2V, Enc: enc}
	if grown.Enc.FeatureDim() == pipe.Enc.FeatureDim() {
		t.Fatal("grown pipeline did not change the feature dim; nothing to prove")
	}

	// An incoherent triple: grown pipeline, but weights trained against the
	// original width. The declared feature dim follows the weights' pipeline,
	// so decode already refuses it.
	orig := newModel(pipe, 1)
	orig.Prepare(split.Train[:16])
	b := fullBundle{
		Version:    formatVersion,
		FeatureDim: grown.Enc.FeatureDim(),
		Norm:       norm,
		Pipeline:   newPipelineBundle(grown),
		Weights:    newWeightBundle(orig),
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&b); err != nil {
		t.Fatal(err)
	}
	fb, err := DecodeFullBundle(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Decode passes (the pipeline is internally coherent), but applying the
	// original-width weights to a model of the grown width must fail.
	dst := newModel(fb.Pipeline(), 3)
	if err := fb.Weights().Apply(dst); err == nil {
		t.Fatal("apply accepted weights from a different feature width")
	}
	// And the grown-width model still predicts (untouched by the failure).
	dst.Prepare(split.Train[:4])
	if out := dst.Predict(split.Train[:4]); len(out.Data) != 4 {
		t.Fatalf("model disturbed by rejected apply: %v", out)
	}
}
