package models

import (
	"testing"

	"prestroid/internal/logicalplan"
	"prestroid/internal/treecnn"
)

// templatePairs are (skeleton, variant) queries sharing a template — equal up
// to literal values — over the Grab-style schema the test pipeline is fit on.
// The last pair deliberately uses a table and values outside the training
// vocabulary so the OOV fallback chain is exercised on both encode paths.
var templatePairs = []struct{ skeleton, variant string }{
	{
		"SELECT city_id FROM bookings WHERE fare > 10 AND city_id = 3 ORDER BY fare LIMIT 5",
		"SELECT city_id FROM bookings WHERE fare > 250 AND city_id = 44 ORDER BY fare LIMIT 50",
	},
	{
		"SELECT b.fare FROM bookings b JOIN drivers d ON b.driver_id = d.id WHERE d.rating BETWEEN 1 AND 3 AND b.status = 'done'",
		"SELECT b.fare FROM bookings b JOIN drivers d ON b.driver_id = d.id WHERE d.rating BETWEEN 4 AND 5 AND b.status = 'cancelled'",
	},
	{
		"SELECT x FROM zz_unknown WHERE y IN (1, 2) AND zzq_token LIKE 'abc%' LIMIT 2",
		"SELECT x FROM zz_unknown WHERE y IN (7, 9) AND zzq_token LIKE 'xyzzy%' LIMIT 9",
	},
}

func assertTreesIdentical(t *testing.T, label string, got, want []*treecnn.Tree) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d trees, want %d", label, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Hash != w.Hash {
			t.Fatalf("%s: tree %d hash %x, want %x", label, i, g.Hash, w.Hash)
		}
		if (g.Feats == nil) != (w.Feats == nil) {
			t.Fatalf("%s: tree %d holds dense features on one side only", label, i)
		}
		if w.Feats != nil {
			if len(g.Feats.Data) != len(w.Feats.Data) {
				t.Fatalf("%s: tree %d feature size mismatch", label, i)
			}
			for j := range w.Feats.Data {
				if g.Feats.Data[j] != w.Feats.Data[j] {
					t.Fatalf("%s: tree %d feature %d = %v, want %v", label, i, j, g.Feats.Data[j], w.Feats.Data[j])
				}
			}
		}
		for j := range w.Left {
			if g.Left[j] != w.Left[j] || g.Right[j] != w.Right[j] {
				t.Fatalf("%s: tree %d structure diverges at %d", label, i, j)
			}
		}
		for j := range w.Votes {
			if g.Votes[j] != w.Votes[j] {
				t.Fatalf("%s: tree %d vote %d = %v, want %v", label, i, j, g.Votes[j], w.Votes[j])
			}
		}
		// What the loops above do not reach: bit patterns (±0) and the
		// non-zero index with its values.
		if !g.Identical(w) {
			t.Fatalf("%s: tree %d is not bit-identical (feature bits or non-zero index)", label, i)
		}
	}
}

// TestTemplateRebindByteIdentical is the core template-cache guarantee: an
// encoding built from a skeleton query, rebound to a literal variant's plan,
// must reproduce the full encode path byte for byte — in the sub-tree and the
// full-tree (K=0) layouts.
func TestTemplateRebindByteIdentical(t *testing.T) {
	b := bed(t)
	for _, tc := range []struct {
		name string
		k    int
	}{{"w2v-subtree", 5}, {"w2v-full", 0}} {
		cfg := DefaultPrestroidConfig(15, tc.k)
		cfg.ConvWidths = []int{8}
		cfg.DenseWidths = []int{8}
		m := NewPrestroid(cfg, b.pipe)
		for _, pair := range templatePairs {
			skel, err := logicalplan.PlanSQL(pair.skeleton)
			if err != nil {
				t.Fatalf("%s: plan skeleton: %v", tc.name, err)
			}
			variant, err := logicalplan.PlanSQL(pair.variant)
			if err != nil {
				t.Fatalf("%s: plan variant: %v", tc.name, err)
			}
			te := m.BuildTemplateEncoding(skel)
			if te.Bytes() <= 0 {
				t.Fatalf("%s: encoding reports no bytes", tc.name)
			}
			// Rebinding to the variant must match a full encode of the variant.
			got, ok := te.Rebind(variant)
			if !ok {
				t.Fatalf("%s: rebind rejected a genuine template match", tc.name)
			}
			assertTreesIdentical(t, tc.name+"/variant", got, m.encodePlan(variant))
			// And rebinding back to the skeleton must reproduce the original.
			self, ok := te.Rebind(skel)
			if !ok {
				t.Fatalf("%s: self-rebind rejected", tc.name)
			}
			assertTreesIdentical(t, tc.name+"/self", self, m.encodePlan(skel))
		}
	}
}

// TestTemplateEncodingNilWhenLiteralSensitive: the HashedPredicates ablation
// hashes full predicate text, so the trees of one query are not the trees of
// its literal variants and the pipeline has no template encoding — the
// serving layer then keeps skeleton-only entries and encodes every query
// from its own plan. The test first shows the premise (two variants really do
// encode differently), then the contract.
func TestTemplateEncodingNilWhenLiteralSensitive(t *testing.T) {
	b := bed(t)
	e := *b.pipe.Enc
	e.HashedPredicates = true
	cfg := DefaultPrestroidConfig(15, 5)
	cfg.ConvWidths = []int{8}
	cfg.DenseWidths = []int{8}
	m := NewPrestroid(cfg, &Pipeline{W2V: b.pipe.W2V, Enc: &e})

	skel, err := logicalplan.PlanSQL(templatePairs[0].skeleton)
	if err != nil {
		t.Fatal(err)
	}
	variant, err := logicalplan.PlanSQL(templatePairs[0].variant)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	vt := m.encodePlan(variant)
	for i, tree := range m.encodePlan(skel) {
		same = same && tree.Hash == vt[i].Hash
	}
	if same {
		t.Fatal("hashed-predicate trees of two literal variants hash alike; the mode is not literal-sensitive")
	}
	if te := m.BuildTemplateEncoding(skel); te != nil {
		t.Fatal("a literal-sensitive pipeline produced a shareable template encoding")
	}
}

// TestTemplateEncodingSharedTreesStable: Rebind hands out the cached trees
// themselves; two rebinds must return the same trees so conv-cache hashes
// replay across literal variants.
func TestTemplateEncodingSharedTreesStable(t *testing.T) {
	b := bed(t)
	cfg := DefaultPrestroidConfig(15, 5)
	cfg.ConvWidths = []int{8}
	cfg.DenseWidths = []int{8}
	m := NewPrestroid(cfg, b.pipe)
	skel, err := logicalplan.PlanSQL(templatePairs[0].skeleton)
	if err != nil {
		t.Fatal(err)
	}
	variant, err := logicalplan.PlanSQL(templatePairs[0].variant)
	if err != nil {
		t.Fatal(err)
	}
	te := m.BuildTemplateEncoding(skel)
	a, _ := te.Rebind(skel)
	c, _ := te.Rebind(variant)
	for i := range a {
		if a[i] != c[i] {
			t.Fatal("rebind should share the cached trees")
		}
	}
}

// TestTemplateEncodingBytesCountsIndex: the cache's byte accounting covers
// the trees' non-zero index — one start word per row plus one, and one column
// word and one value per non-zero feature — on top of the dense features,
// structure and votes, so the template cache's byte gauge tracks what an
// entry really holds.
func TestTemplateEncodingBytesCountsIndex(t *testing.T) {
	b := bed(t)
	cfg := DefaultPrestroidConfig(15, 5)
	cfg.ConvWidths = []int{8}
	cfg.DenseWidths = []int{8}
	m := NewPrestroid(cfg, b.pipe)
	plan, err := logicalplan.PlanSQL(templatePairs[1].skeleton)
	if err != nil {
		t.Fatal(err)
	}
	te := m.BuildTemplateEncoding(plan)
	want, nnz := 0, 0
	for _, tree := range te.Trees() {
		for _, v := range tree.Feats.Data {
			if v != 0 {
				nnz++
			}
		}
		n := tree.Len()
		want += tree.Feats.Bytes() + 8*3*n + 4*(n+1)
	}
	if nnz == 0 {
		t.Fatal("featurized trees have no non-zero feature")
	}
	want += (4 + 8) * nnz
	if te.Bytes() != want {
		t.Fatalf("Bytes() = %d, want %d (dense + structure + index)", te.Bytes(), want)
	}
}
