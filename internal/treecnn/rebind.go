package treecnn

// Rebinder clones a flattened tree with a small set of feature rows
// replaced, recomputing the content hash incrementally instead of from
// scratch. It is the tree-level half of the prepared-template front end: a
// template cache keeps one Rebinder per cached sample, and a template hit
// re-featurizes only the literal-sensitive rows while the digests of every
// untouched subtree are reused verbatim.
//
// Construction keeps the per-node Merkle digests that Rehash computes and
// discards, plus the parent links the flatteners guarantee are derivable
// (children always land at higher indices than their parents). A Rebind then
// re-digests only the changed rows and their ancestor chains — O(changed ×
// depth) instead of O(n × featDim) — and the result is byte-identical to a
// full Rehash by construction, because both run the same nodeDigest/rootHash
// recipe over the same inputs.
type Rebinder struct {
	base    *Tree
	digests []uint64 // per-node digests, as Rehash would compute them
	parent  []int    // parent index per node, -1 for the root
}

// NewRebinder captures the digest state of t. The tree must already be
// flattened and hashed (hence indexed); it is treated as immutable from here
// on.
func NewRebinder(t *Tree) *Rebinder {
	n := t.Len()
	r := &Rebinder{base: t, digests: make([]uint64, n), parent: make([]int, n)}
	for i := range r.parent {
		r.parent[i] = -1
	}
	for i := 0; i < n; i++ {
		if li := t.Left[i]; li >= 0 {
			r.parent[li] = i
		}
		if ri := t.Right[i]; ri >= 0 {
			r.parent[ri] = i
		}
	}
	for i := n - 1; i >= 0; i-- {
		r.digests[i] = nodeDigest(t, i, r.digests)
	}
	return r
}

// Base returns the tree the rebinder was built over.
func (r *Rebinder) Base() *Tree { return r.base }

// Rebind returns a copy of the base tree with feature row rows[k] replaced
// by feats[k] for every k. The structure and vote slices are shared with the
// base — they are immutable after flattening — while the feature tensor is a
// fresh copy, so callers own the result. The non-zero index is respliced:
// replaced rows are re-indexed, the others copy the base's entries (or, with
// no row replaced, the base's index is shared whole). Only the changed rows
// and their ancestor chains are re-digested; everything else reuses the
// captured digests, and the resulting Hash equals what Rehash would compute
// on the same tree.
func (r *Rebinder) Rebind(rows []int, feats [][]float64) *Tree {
	t := r.base
	out := &Tree{
		Feats: t.Feats.Clone(),
		Left:  t.Left,
		Right: t.Right,
		Votes: t.Votes,
		Hash:  t.Hash,
		nz:    t.nz,
	}
	if len(rows) == 0 {
		return out
	}
	n := t.Len()
	var hbuf [rehashBuf]uint64
	var hs []uint64
	if n <= rehashBuf {
		hs = hbuf[:n]
	} else {
		hs = make([]uint64, n)
	}
	copy(hs, r.digests)
	dirty := make([]bool, n)
	for k, i := range rows {
		copy(out.Feats.Row(i), feats[k])
		dirty[i] = true
	}
	out.nz = newRowIndex(make([]int32, n+1, len(t.nz)), n)
	for i := 0; i < n; i++ {
		if dirty[i] {
			out.nz = out.nz.appendRow(i, out.Feats.Row(i))
		} else {
			out.nz = out.nz.appendCols(i, t.nz.row(i))
		}
	}
	// Children sit at higher indices than parents, so a descending sweep
	// reaches a node only after every dirty descendant has been re-digested.
	for i := n - 1; i >= 0; i-- {
		if !dirty[i] {
			continue
		}
		hs[i] = nodeDigest(out, i, hs)
		if p := r.parent[i]; p >= 0 {
			dirty[p] = true
		}
	}
	out.Hash = rootHash(n, hs)
	return out
}
