package models

import (
	"math"
	"testing"

	"prestroid/internal/dataset"
)

// TestReleaseKeepsEveryBit: Release drops the step memory and the prepared
// encodings and nothing a prediction or a later step reads. For a sub-tree
// and a full-tree model, train k steps, Release, then train k more: every
// loss and the whole slab must equal, bit for bit, those of a twin trained
// on the same batches and never released. Predict on training and test
// traces must give the same bits just before and just after Release, and
// BatchBytes, which reads the full-tree padding target, must not move.
func TestReleaseKeepsEveryBit(t *testing.T) {
	b := bed(t)
	const k = 3
	traces := append(b.split.Train[:48:48], b.split.Test...)
	for _, K := range []int{5, 0} {
		cfg := DefaultPrestroidConfig(15, K)
		cfg.ConvWidths, cfg.DenseWidths = []int{16, 16}, []int{16}
		released, twin := NewPrestroid(cfg, b.pipe), NewPrestroid(cfg, b.pipe)
		steps := func(from, to int) {
			t.Helper()
			for s := from; s < to; s++ {
				batch := b.split.Train[32*s : 32*(s+1)]
				labels := dataset.Labels(batch, b.norm)
				got, want := released.TrainBatch(batch, labels), twin.TrainBatch(batch, labels)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("K=%d step %d: loss %v, never-released twin %v", K, s, got, want)
				}
			}
		}
		steps(0, k)

		before := released.Predict(traces)
		twin.Predict(traces)
		batchBytes := released.BatchBytes(64)
		released.Release()
		if n, step := released.TrainingMemory(); n != 0 || step {
			t.Fatalf("K=%d: after Release the model holds %d encodings (step memory %v)", K, n, step)
		}
		if got := released.BatchBytes(64); got != batchBytes {
			t.Fatalf("K=%d: BatchBytes %d after Release, %d before", K, got, batchBytes)
		}
		after := released.Predict(traces)
		for i := range traces {
			if math.Float64bits(after.Data[i]) != math.Float64bits(before.Data[i]) {
				t.Fatalf("K=%d trace %d: Predict %v after Release, %v before", K, i, after.Data[i], before.Data[i])
			}
		}

		steps(k, 2*k)
		for i, w := range twin.slab.W {
			if g := released.slab.W[i]; math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("K=%d: slab[%d] = %v after Release and %d more steps, never-released twin %v", K, i, g, k, w)
			}
		}
	}
}
