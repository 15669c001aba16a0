package treecnn

import (
	"math"
	"slices"
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

// TestReleasedTreeConvolvesLikeDense: a released tree lives on its index.
// Every generated Grab tree — sub-tree samples, whole plans, and one plan
// past the digest's stack buffer — is deep-copied and the copy released; it
// must stay Identical to its dense twin, and give ForwardInference's pooled
// vector, ForwardTrain's pooled vector and, after BackwardInputs over the
// forest, every parameter gradient AccumulateGrad adds, bit for bit as the
// dense tree does on a network with the same weights.
func TestReleasedTreeConvolvesLikeDense(t *testing.T) {
	dense := grabTrees(t)
	released := make([]*Tree, len(dense))
	for i, d := range dense {
		r := Tree{Feats: d.Feats.Clone(), Left: slices.Clone(d.Left), Right: slices.Clone(d.Right),
			Votes: slices.Clone(d.Votes), nz: rowIndex{ix: slices.Clone(d.nz.ix), val: slices.Clone(d.nz.val)}, Hash: d.Hash}
		r.Release()
		if r.Feats != nil || !r.Identical(d) {
			t.Fatalf("tree %d: released tree holds Feats %v or is not Identical to its dense twin", i, r.Feats != nil)
		}
		released[i] = &r
	}
	nets := diffNets(dense[0].Feats.Shape[1], []int{8, 6, 5}, 11)
	dn, rn := nets[0], nets[1]
	od := dn.OutDim()
	scratch := tensor.NewArena(0)
	for i := range dense {
		want := append([]float64(nil), dn.ForwardInference(dense[i], scratch).Data...)
		scratch.Reset()
		requireSame(t, "ForwardInference pooled", rn.ForwardInference(released[i], scratch).Data, want)
		scratch.Reset()
	}

	var dctx, rctx Context
	dctx.Reset(dn, dense)
	rctx.Reset(rn, released)
	for ti := range dense {
		want, got := make([]float64, od), make([]float64, od)
		dn.ForwardTrain(&dctx, ti, want, scratch)
		scratch.Reset()
		rn.ForwardTrain(&rctx, ti, got, scratch)
		scratch.Reset()
		requireSame(t, "ForwardTrain pooled", got, want)
	}
	rng := tensor.NewRNG(12)
	grad := tensor.New(1, od)
	dT, rT := dn.Transpose(nil), rn.Transpose(nil)
	for ti := range dense {
		rng.FillNorm(grad, 0, 1)
		dn.BackwardInputs(&dctx, ti, grad.Data, dT)
		rn.BackwardInputs(&rctx, ti, grad.Data, rT)
	}
	for _, task := range dn.GradTasks(3) {
		dn.AccumulateGrad(task, &dctx, scratch)
		scratch.Reset()
		rn.AccumulateGrad(task, &rctx, scratch)
		scratch.Reset()
	}
	requireSameGrads(t, "AccumulateGrad", rn, dn)
}
