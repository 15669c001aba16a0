package treecnn

import (
	"math"
	"testing"

	"prestroid/internal/subtree"
	"prestroid/internal/tensor"
)

// TestReleaseClearsEverySoiledBit pins Release. Each sub-tree is flattened
// into a slab, and then every row is soiled the way an encoder could have
// left it — a NaN in its first column and a −0 in its last — and re-hashed,
// so the index lists the NaN and not the −0. After Release every bit of the
// slab must be +0 — a release that cleared only the listed entries would
// leave the −0 behind — and the tree must have let go of it. A tree
// flattened into the released slab must be Identical to a fresh
// FlattenSubTree of the same sample.
func TestReleaseClearsEverySoiledBit(t *testing.T) {
	enc, root, qctx := buildEncoder(t)
	samples, err := subtree.Sample(root, subtree.Config{N: 7, C: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 {
		t.Fatal("no sub-trees sampled")
	}
	for si, st := range samples {
		slab := tensor.New(len(st.Nodes), enc.FeatureDim())
		tree := FlattenSubTreeInto(slab, st, enc, qctx)
		for i := 0; i < tree.Len(); i++ {
			row := slab.Row(i)
			row[0], row[len(row)-1] = math.NaN(), math.Copysign(0, -1)
		}
		tree.Rehash()
		if got := tree.Release(); got != slab || tree.Feats != nil {
			t.Fatalf("sample %d: Release returned %p and left Feats %p, want the slab %p and nil", si, got, tree.Feats, slab)
		}
		for c, v := range slab.Data {
			if math.Float64bits(v) != 0 {
				t.Fatalf("sample %d: element %d of the released slab is %v (bits %#x), want +0", si, c, v, math.Float64bits(v))
			}
		}
		again := FlattenSubTreeInto(slab, st, enc, qctx)
		if fresh := FlattenSubTree(st, enc, qctx); !again.Identical(fresh) {
			t.Fatalf("sample %d: the tree flattened into the released slab differs from a fresh one", si)
		}
	}
}
