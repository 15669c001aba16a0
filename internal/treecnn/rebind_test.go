package treecnn

import (
	"math"
	"testing"

	"prestroid/internal/tensor"
)

// rebindTestTree builds a hashed complete binary tree with deterministic
// pseudo-random features (including zeros, a NaN and an Inf, which the
// digest must handle the same way on both paths).
func rebindTestTree(n, featDim int) *Tree {
	t := &Tree{
		Feats: tensor.New(n, featDim),
		Left:  make([]int, n),
		Right: make([]int, n),
		Votes: make([]float64, n),
	}
	for i := 0; i < n; i++ {
		t.Left[i], t.Right[i] = -1, -1
		if 2*i+1 < n {
			t.Left[i] = 2*i + 1
		}
		if 2*i+2 < n {
			t.Right[i] = 2*i + 2
		}
		t.Votes[i] = float64(i % 2)
		row := t.Feats.Row(i)
		for j := range row {
			switch (i*featDim + j) % 5 {
			case 0:
				row[j] = 0
			case 1:
				row[j] = float64(i*31+j) * 0.25
			case 2:
				row[j] = -1.5
			default:
				row[j] = float64(j + 1)
			}
		}
	}
	if n > 2 {
		t.Feats.Row(1)[0] = math.NaN()
		t.Feats.Row(2)[1] = math.Inf(1)
	}
	t.Rehash()
	return t
}

func TestRebinderMatchesRehash(t *testing.T) {
	for _, n := range []int{1, 2, 7, 15, 70} {
		tree := rebindTestTree(n, 6)
		r := NewRebinder(tree)

		// No changed rows: identical tree, identical hash.
		same := r.Rebind(nil, nil)
		if same.Hash != tree.Hash {
			t.Fatalf("n=%d: empty rebind changed the hash", n)
		}

		// Change a few rows and compare the incremental hash against a full
		// Rehash of the same tree.
		rows := []int{0}
		if n > 2 {
			rows = append(rows, n/2, n-1)
		}
		feats := make([][]float64, len(rows))
		for k := range rows {
			f := make([]float64, 6)
			for j := range f {
				f[j] = float64(k*7 + j)
			}
			f[1] = 0 // keep a zero so skip-zero hashing is exercised
			feats[k] = f
		}
		got := r.Rebind(rows, feats)
		full := &Tree{Feats: got.Feats.Clone(), Left: got.Left, Right: got.Right, Votes: got.Votes}
		full.Rehash()
		if got.Hash != full.Hash {
			t.Fatalf("n=%d: incremental hash %x, full rehash %x", n, got.Hash, full.Hash)
		}
		if got.Hash == tree.Hash {
			t.Fatalf("n=%d: changed features should change the hash", n)
		}

		// The base tree must be untouched.
		check := &Tree{Feats: tree.Feats.Clone(), Left: tree.Left, Right: tree.Right, Votes: tree.Votes}
		check.Rehash()
		if check.Hash != tree.Hash {
			t.Fatalf("n=%d: rebind mutated the base tree", n)
		}
	}
}

func TestRebinderNaNRow(t *testing.T) {
	tree := rebindTestTree(15, 4)
	r := NewRebinder(tree)
	f := []float64{math.NaN(), 0, math.Inf(-1), 2}
	got := r.Rebind([]int{3}, [][]float64{f})
	full := &Tree{Feats: got.Feats.Clone(), Left: got.Left, Right: got.Right, Votes: got.Votes}
	full.Rehash()
	if got.Hash != full.Hash {
		t.Fatalf("incremental hash %x, full rehash %x for NaN/Inf row", got.Hash, full.Hash)
	}
}

func TestRebinderRestoreRoundTrips(t *testing.T) {
	tree := rebindTestTree(31, 5)
	r := NewRebinder(tree)
	orig := append([]float64(nil), tree.Feats.Row(10)...)
	changed := r.Rebind([]int{10}, [][]float64{{9, 9, 9, 9, 9}})
	restored := r.Rebind([]int{10}, [][]float64{orig})
	if changed.Hash == tree.Hash {
		t.Fatal("change should alter the hash")
	}
	if restored.Hash != tree.Hash {
		t.Fatal("restoring the original row should restore the original hash")
	}
}

// TestRebinderRespliceIndex: a rebound tree's non-zero index must list
// exactly what indexing its feature tensor from scratch lists — replaced rows
// re-indexed (a row may gain or lose entries), the rest carried over — since
// the convolution reads the index, not the row width.
func TestRebinderRespliceIndex(t *testing.T) {
	tree := rebindTestTree(15, 6)
	r := NewRebinder(tree)
	feats := [][]float64{
		{0, 0, 0, 0, 0, 0},            // loses every entry
		{1, 2, 3, 4, 5, 6},            // gains entries
		{0, math.NaN(), 0, 0, 0, 0.5}, // NaN is an entry
	}
	got := r.Rebind([]int{0, 7, 14}, feats)
	want := (&Tree{Feats: got.Feats, Left: got.Left, Right: got.Right, Votes: got.Votes}).index(nil)
	for i := 0; i < got.Len(); i++ {
		g, w := got.nz.row(i), want.row(i)
		if len(g) != len(w) {
			t.Fatalf("row %d: index lists %v, features hold %v", i, g, w)
		}
		for k := range w {
			if g[k] != w[k] {
				t.Fatalf("row %d: index lists %v, features hold %v", i, g, w)
			}
		}
	}
	if same := r.Rebind(nil, nil); len(same.nz) != len(tree.nz) {
		t.Fatal("an empty rebind must keep the base's index")
	}
}
