package models

import (
	"math"
	"testing"

	"prestroid/internal/dataset"
	"prestroid/internal/treecnn"
)

// TestPreparedTreesHoldOnlyTheirIndex: Prepare hands every tree's dense rows
// back as soon as it is encoded, so the cache holds index-only trees. For a
// sub-tree and a full-tree model, every cached tree must have nil Feats, be
// Identical to the dense tree EncodeTrace makes of the same trace, and count
// in Bytes its structure, votes and index alone: 8 B per Left, Right and Votes
// entry, 4 B per row start plus one, and 12 B (column and value) per non-zero
// feature of the dense twin. So the dense rows cannot come back into the
// cache unseen.
func TestPreparedTreesHoldOnlyTheirIndex(t *testing.T) {
	b := bed(t)
	traces := b.split.Test[:24]
	for _, k := range []int{5, 0} {
		m := NewPrestroid(DefaultPrestroidConfig(15, k), b.pipe)
		m.Prepare(traces)
		for ti, tr := range traces {
			dense := m.EncodeTrace(tr).([]*treecnn.Tree)
			cached := m.cache[tr]
			if len(cached) != len(dense) {
				t.Fatalf("K=%d trace %d: %d cached trees, EncodeTrace %d", k, ti, len(cached), len(dense))
			}
			for i, c := range cached {
				d := dense[i]
				if c.Feats != nil {
					t.Fatalf("K=%d trace %d tree %d: the cached tree keeps its dense rows", k, ti, i)
				}
				if !c.Identical(d) {
					t.Fatalf("K=%d trace %d tree %d: the cached tree is not Identical to EncodeTrace's", k, ti, i)
				}
				nnz := 0
				for _, v := range d.Feats.Data {
					if v != 0 {
						nnz++
					}
				}
				n := c.Len()
				if want := 8*3*n + 4*(n+1) + 12*nnz; c.Bytes() != want {
					t.Fatalf("K=%d trace %d tree %d: Bytes() = %d, want %d (structure, votes and index of %d non-zeros)", k, ti, i, c.Bytes(), want, nnz)
				}
			}
		}
	}
}

// TestPredictPreparedMatchesEncoded: Predict, which convolves the prepared
// index-only trees, gives each trace the bits PredictEncoded gives the dense
// encoding EncodeTrace makes of it — for a sub-tree and a full-tree model, a
// few training steps in.
func TestPredictPreparedMatchesEncoded(t *testing.T) {
	b := bed(t)
	batch := b.split.Train[:32]
	labels := dataset.Labels(batch, b.norm)
	traces := b.split.Test[:24]
	for _, k := range []int{5, 0} {
		m := NewPrestroid(DefaultPrestroidConfig(15, k), b.pipe)
		for i := 0; i < 3; i++ {
			m.TrainBatch(batch, labels)
		}
		got := m.Predict(traces)
		for i, tr := range traces {
			enc := m.EncodeTrace(tr)
			want := m.PredictEncoded(enc, nil)
			m.Recycle(enc)
			if math.Float64bits(got.Data[i]) != math.Float64bits(want) {
				t.Fatalf("K=%d trace %d: Predict %v, PredictEncoded %v", k, i, got.Data[i], want)
			}
		}
	}
}
