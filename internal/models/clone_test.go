package models

import (
	"testing"

	"prestroid/internal/dataset"
)

// clonePrestroid builds a small trained Prestroid over the shared testbed.
func clonePrestroid(t *testing.T, b *testbed) *Prestroid {
	t.Helper()
	cfg := DefaultPrestroidConfig(15, 5)
	cfg.ConvWidths = []int{8}
	cfg.DenseWidths = []int{8}
	m := NewPrestroid(cfg, b.pipe)
	batch := b.split.Train[:16]
	m.Prepare(batch)
	labels := dataset.Labels(batch, b.norm)
	for i := 0; i < 3; i++ {
		m.TrainBatch(batch, labels)
	}
	return m
}

// TestCloneBitIdenticalPredict pins the replica contract: a clone's Predict
// output is bit-identical to the source model's on every trace, and the two
// report the same identity.
func TestCloneBitIdenticalPredict(t *testing.T) {
	b := bed(t)
	src := clonePrestroid(t, b)
	clone := src.Clone()
	if clone.Name() != src.Name() || clone.ParamCount() != src.ParamCount() {
		t.Fatalf("clone identity diverged: %s/%d vs %s/%d",
			clone.Name(), clone.ParamCount(), src.Name(), src.ParamCount())
	}
	traces := b.split.Test[:24]
	want := src.Predict(traces)
	got := clone.Predict(traces)
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("trace %d: clone predicts %v, source %v (must be bit-identical)",
				i, got.Data[i], want.Data[i])
		}
	}
}

// TestCloneIsIndependent checks a clone neither tracks nor disturbs its
// source: training the source afterwards leaves the clone's predictions
// unchanged, byte for byte.
func TestCloneIsIndependent(t *testing.T) {
	b := bed(t)
	src := clonePrestroid(t, b)
	clone := src.Clone()
	traces := b.split.Test[:8]
	before := append([]float64(nil), clone.Predict(traces).Data...)

	batch := b.split.Train[:16]
	labels := dataset.Labels(batch, b.norm)
	src.TrainBatch(batch, labels)

	after := clone.Predict(traces)
	for i := range before {
		if after.Data[i] != before[i] {
			t.Fatalf("trace %d: clone prediction drifted after source training: %v vs %v",
				i, after.Data[i], before[i])
		}
	}
}

// TestCopyWeightsFrom pins the weight-copy primitive under Clone: copying
// from a retrained source makes a diverged replica predict bit-identically to
// it again.
func TestCopyWeightsFrom(t *testing.T) {
	b := bed(t)
	src := clonePrestroid(t, b)
	replica := src.Clone().(*Prestroid)

	// "Retrain" the source so the replica diverges.
	batch := b.split.Train[:16]
	labels := dataset.Labels(batch, b.norm)
	for i := 0; i < 2; i++ {
		src.TrainBatch(batch, labels)
	}
	traces := b.split.Test[:12]
	want := src.Predict(traces)
	stale := replica.Predict(traces)
	diverged := false
	for i := range want.Data {
		if stale.Data[i] != want.Data[i] {
			diverged = true
			break
		}
	}
	if !diverged {
		t.Fatal("retraining did not change predictions; the copy has nothing to prove")
	}

	if err := replica.CopyWeightsFrom(src); err != nil {
		t.Fatal(err)
	}
	got := replica.Predict(traces)
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("trace %d: replica predicts %v after the copy, source %v (must be bit-identical)",
				i, got.Data[i], want.Data[i])
		}
	}
}

// TestCopyWeightsFromMismatch checks the shape validation that guards
// replica construction.
func TestCopyWeightsFromMismatch(t *testing.T) {
	b := bed(t)
	src := clonePrestroid(t, b)
	other := DefaultPrestroidConfig(15, 5)
	other.ConvWidths = []int{16}
	other.DenseWidths = []int{8}
	dst := NewPrestroid(other, b.pipe)
	if err := dst.CopyWeightsFrom(src); err == nil {
		t.Fatal("CopyWeightsFrom accepted mismatched architectures")
	}
}
