// Package treecnn implements tree convolution over O-T-P binary trees: the
// triangular parent/left/right kernels of Mou et al. that the paper's
// Prestroid models are built from, together with vote-masked one-way dynamic
// pooling and the flattening of sub-tree samples into convolution-ready
// arrays.
package treecnn

import (
	"math"
	"slices"

	"prestroid/internal/otp"
	"prestroid/internal/subtree"
	"prestroid/internal/tensor"
)

// Tree is a convolution-ready flattened binary tree: node features in BFS
// order with child indices (-1 when a child is absent or outside the
// sampled window) and the Algorithm-1 vote mask.
//
// O-T-P feature rows are a 1-hot or one predicate block wide — well under 1%
// dense — so a Tree is indexed once, where it is featurized, and everything
// downstream works from the index, which lists each non-zero entry's column
// and value: layer 0 of the convolution gathers weight rows through it going
// forward and scatters weight gradients through it going backward, and the
// content hash digests exactly the entries it lists. The flatteners and
// Rehash build it; a Tree assembled as a struct literal has none and is
// indexed into scratch by each pass that needs one (the Tree itself is never
// written by a reader). Code that writes to Feats after flattening must call
// Rehash before the tree is convolved or cached again.
//
// Whoever flattened a tree owns it, Feats included, until it hands it on.
// An owner that no longer needs the dense rows may Release the tree, to
// reuse its Feats as the slab of a later flatten (FlattenSubTreeInto). The
// released tree is live: it holds only its index, structure, votes and hash,
// and convolves, hashes and caches exactly as before; only Feats is nil.
// Slabs nobody releases are left to the garbage collector.
type Tree struct {
	Feats *tensor.Tensor // (n, featDim); nil once released
	Left  []int          // index of left child, -1 if none
	Right []int          // index of right child, -1 if none
	Votes []float64      // 1 = participates in pooling

	nz rowIndex // Feats' non-zero entries; nz.ix nil = not indexed

	// Hash is a Merkle-style digest of the tree's exact convolution input —
	// feature rows, votes and child structure — set by the flatteners (or
	// Rehash). Two trees with equal Hash convolve to the same output under
	// the same weights, which is what makes pooled conv results cacheable
	// across queries. Zero means "unhashed"; caches must skip such trees.
	Hash uint64
}

// Len returns the number of nodes.
func (t *Tree) Len() int { return len(t.Left) }

// Bytes reports the approximate heap footprint of the tree — features while
// it holds them, structure, votes and the non-zero index with its values —
// for cache accounting.
func (t *Tree) Bytes() int {
	b := 8*(len(t.Left)+len(t.Right)+len(t.Votes)) + 4*len(t.nz.ix) + 8*len(t.nz.val)
	if t.Feats != nil {
		b += t.Feats.Bytes()
	}
	return b
}

// Identical reports whether t and u are the same convolution input bit for
// bit: child structure, votes, non-zero index with its values, hash, and the
// feature rows where both still hold them — a released tree is Identical to
// the tree it was before Release.
func (t *Tree) Identical(u *Tree) bool {
	if t.Feats != nil && u.Feats != nil &&
		!(slices.Equal(t.Feats.Shape, u.Feats.Shape) && sameBits(t.Feats.Data, u.Feats.Data)) {
		return false
	}
	return slices.Equal(t.Left, u.Left) && slices.Equal(t.Right, u.Right) && sameBits(t.Votes, u.Votes) &&
		slices.Equal(t.nz.ix, u.nz.ix) && sameBits(t.nz.val, u.nz.val) && t.Hash == u.Hash
}

// sameBits reports whether a and b hold the same float64 bit patterns.
func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// rowIndex is the non-zero entries of an n-row feature tensor in CSR form.
// ix[0..n] are offsets into ix itself, and the columns of row i's non-zero
// entries (NaN counts as non-zero, ±0 do not), ascending, are
// ix[ix[i]:ix[i+1]]. val holds the entries' values in the same order, from
// ix[0] on, so the whole convolution input of the rows is in the index.
type rowIndex struct {
	ix  []int32
	val []float64
}

// newRowIndex returns the index of n rows, none listed yet, built in buf
// (columns) and vbuf (values).
func newRowIndex(buf []int32, vbuf []float64, n int) rowIndex {
	ix := buf[:n+1]
	ix[0] = int32(n + 1)
	return rowIndex{ix: ix, val: vbuf[:0]}
}

// row returns the columns of row i's non-zero entries and their values.
func (x rowIndex) row(i int) ([]int32, []float64) {
	lo, hi, base := x.ix[i], x.ix[i+1], x.ix[0]
	return x.ix[lo:hi], x.val[lo-base : hi-base]
}

// appendSpan lists the non-zero entries of row[lo:hi] as row i, for a row
// known to be zero outside that span (the whole row when that is not
// known); rows go in order.
func (x rowIndex) appendSpan(i int, row []float64, lo, hi int) rowIndex {
	for c, f := range row[lo:hi] {
		if f != 0 {
			x.ix = append(x.ix, int32(lo+c))
			x.val = append(x.val, f)
		}
	}
	x.ix[i+1] = int32(len(x.ix))
	return x
}

// indexRows indexes every row of x, building in buf (which must hold at
// least x's row count plus one) and vbuf.
func indexRows(x *tensor.Tensor, buf []int32, vbuf []float64) rowIndex {
	n := x.Shape[0]
	ix := newRowIndex(buf, vbuf, n)
	for i := 0; i < n; i++ {
		row := x.Row(i)
		ix = ix.appendSpan(i, row, 0, len(row))
	}
	return ix
}

// index returns the tree's non-zero index: the one built at featurization,
// or for a literal Tree one built here in a (nil = heap) without touching
// the tree.
func (t *Tree) index(a *tensor.Arena) rowIndex {
	if t.nz.ix != nil {
		return t.nz
	}
	size := t.Feats.Size()
	return indexRows(t.Feats, a.GetI32(t.Feats.Shape[0]+1+size), a.Get(size).Data)
}

// Digest parameters: a seed, a multiply-xorshift round constant (the
// murmur3 64-bit finaliser multiplier), and a sentinel mixed in place of an
// absent child so "no child" hashes differently from any real subtree.
const (
	hashSeed         = 14695981039346656037
	hashMul          = 0xff51afd7ed558ccd
	missingChildHash = 0x9e3779b97f4a7c15
)

// hashMix folds one 64-bit word into the running digest with a
// multiply-xorshift round: far fewer multiplies than byte-wise FNV for the
// same cache-key purpose.
func hashMix(h, v uint64) uint64 {
	h ^= v
	h *= hashMul
	h ^= h >> 33
	return h
}

// rehashBuf keeps the per-node digest scratch on the stack for every tree
// the sub-tree sampler emits; larger trees fall back to one heap slice.
const rehashBuf = 64

// Rehash re-indexes the feature rows and recomputes t.Hash from the current
// features, votes and structure; t must still hold its Feats. Per node it digests the (position,
// bit-pattern) pairs of the feature row's nonzero entries, the vote, and the
// child digests (bottom-up: every flattener places children at higher indices
// than their parents, so a reverse index sweep visits children first). The
// root digest is mixed with the node count. Zeros are skipped because O-T-P
// rows are overwhelmingly zero and the positions mixed for the nonzero entries
// pin them down; ±0 collapse together, which is sound for a conv cache key
// because both convolve to identical outputs. Callers that mutate a flattened
// tree (e.g. the DisableVotes ablation) must Rehash before handing it to the
// convolution or a cache.
func (t *Tree) Rehash() {
	t.nz = indexRows(t.Feats, make([]int32, t.Len()+1), nil)
	t.hash()
}

// hash recomputes t.Hash over the index as it stands.
func (t *Tree) hash() {
	n := t.Len()
	var hbuf [rehashBuf]uint64
	var hs []uint64
	if n <= rehashBuf {
		hs = hbuf[:n]
	} else {
		hs = make([]uint64, n)
	}
	for i := n - 1; i >= 0; i-- {
		hs[i] = nodeDigest(t, i, hs)
	}
	t.Hash = rootHash(n, hs)
}

// nodeDigest computes node i's Merkle digest from its indexed feature
// entries, vote and the already-computed child digests in hs. t must be
// indexed.
func nodeDigest(t *Tree, i int, hs []uint64) uint64 {
	h := uint64(hashSeed)
	cols, vals := t.nz.row(i)
	for k, c := range cols {
		h = hashMix(h, uint64(c)+1)
		h = hashMix(h, math.Float64bits(vals[k]))
	}
	h = hashMix(h, math.Float64bits(t.Votes[i]))
	if li := t.Left[i]; li >= 0 {
		h = hashMix(h, hs[li])
	} else {
		h = hashMix(h, missingChildHash)
	}
	if ri := t.Right[i]; ri >= 0 {
		h = hashMix(h, hs[ri])
	} else {
		h = hashMix(h, missingChildHash)
	}
	return h
}

// rootHash folds the node count and the root node's digest into the tree
// hash.
func rootHash(n int, hs []uint64) uint64 {
	root := hashMix(hashSeed, uint64(n))
	if n > 0 {
		root = hashMix(root, hs[0])
	}
	return root
}

// Release clears the tree's feature slab to +0 in every bit, detaches it
// and returns it: the caller may flatten another tree of the same shape into
// it. It clears the whole slab, not just the entries the index lists — the
// index omits a −0, which would otherwise leak into the next tree's rows.
// The tree, which must be indexed (flattened or Rehashed), stays live on its
// index; its Feats is nil.
func (t *Tree) Release() *tensor.Tensor {
	f := t.Feats
	clear(f.Data)
	t.Feats = nil
	return f
}

// flatten is the single tree builder behind FlattenSubTree and FlattenFull:
// it encodes each node's features straight into its row of feats — a
// (len(nodes), featDim) tensor that must be all zero, or nil for a fresh one
// — and indexes only the span of the row the encoder wrote (the rest of the
// row is zero), resolves child pointers to indices (-1 when the child is
// absent or outside the node slice; childIndex, with no map), installs the
// vote mask (nil votes = every node votes) and hashes the result.
func flatten(nodes []*otp.Node, votes []float64, enc *otp.Encoder, ctx *otp.QueryContext, feats *tensor.Tensor) *Tree {
	n := len(nodes)
	if feats == nil {
		feats = tensor.New(n, enc.FeatureDim())
	}
	tree := &Tree{
		Feats: feats,
		Left:  make([]int, n),
		Right: make([]int, n),
	}
	// The index of a sampled sub-tree fits the stack buffers; the tree keeps
	// exact-size copies, its values behind its votes in one allocation.
	var ixbuf [256]int32
	var valbuf [256]float64
	buf := ixbuf[:]
	if n+1 > len(buf) {
		buf = make([]int32, n+1)
	}
	ix := newRowIndex(buf, valbuf[:], n)
	next := 1 // where the next child sits when nodes are in BFS order
	for i, node := range nodes {
		row := tree.Feats.Row(i)
		lo, hi := enc.NodeFeatureInto(row, node, ctx)
		ix = ix.appendSpan(i, row, lo, hi)
		tree.Left[i], next = childIndex(nodes, node.Left, next)
		tree.Right[i], next = childIndex(nodes, node.Right, next)
	}
	fs := make([]float64, n+len(ix.val))
	tree.Votes = fs[:n:n]
	if votes == nil {
		for i := range tree.Votes {
			tree.Votes[i] = 1
		}
	} else {
		copy(tree.Votes, votes)
	}
	tree.nz = rowIndex{ix: append([]int32(nil), ix.ix...), val: fs[n:]}
	copy(tree.nz.val, ix.val)
	tree.hash()
	return tree
}

// FlattenSubTree converts one Algorithm-1 sample into a Tree using the
// encoder for node features. Children that fell outside the sampled window
// become -1 (their contribution to convolution is zero — exactly the
// boundary information loss the vote mask guards against).
func FlattenSubTree(st subtree.SubTree, enc *otp.Encoder, ctx *otp.QueryContext) *Tree {
	return flatten(st.Nodes, st.Votes, enc, ctx, nil)
}

// FlattenSubTreeInto is FlattenSubTree writing its feature rows into feats, an
// all-zero (len(st.Nodes), enc.FeatureDim()) slab such as Release returns;
// nil allocates one.
func FlattenSubTreeInto(feats *tensor.Tensor, st subtree.SubTree, enc *otp.Encoder, ctx *otp.QueryContext) *Tree {
	return flatten(st.Nodes, st.Votes, enc, ctx, feats)
}

// bfsNodes enumerates a whole O-T-P tree in breadth-first order — the row
// order FlattenFull encodes.
func bfsNodes(root *otp.Node) []*otp.Node {
	var nodes []*otp.Node
	queue := []*otp.Node{root}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		if n == nil {
			continue
		}
		nodes = append(nodes, n)
		if n.Left != nil {
			queue = append(queue, n.Left)
		}
		if n.Right != nil {
			queue = append(queue, n.Right)
		}
	}
	return nodes
}

// FlattenFull converts a whole O-T-P tree into a single Tree with every node
// voting — the representation used by the Prestroid-Full baseline (the tree
// convolution segment of Neo).
func FlattenFull(root *otp.Node, enc *otp.Encoder, ctx *otp.QueryContext) *Tree {
	return flatten(bfsNodes(root), nil, enc, ctx, nil)
}

// childIndex returns child's index in nodes (-1 when it is nil or not
// there) and where the cursor goes next. It checks the cursor's slot first:
// a whole tree or a sampled sub-tree lists its nodes in BFS order, so each
// child present is the node at the cursor. Only a miss scans the slice — a
// child cut off at a sub-tree's boundary, or a naive chunk's node order.
func childIndex(nodes []*otp.Node, child *otp.Node, next int) (int, int) {
	if child == nil {
		return -1, next
	}
	if next < len(nodes) && nodes[next] == child {
		return next, next + 1
	}
	for i, node := range nodes {
		if node == child {
			return i, i + 1
		}
	}
	return -1, next
}
