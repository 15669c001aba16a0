package treecnn

import (
	"fmt"
	"slices"
)

// CheckIndexAndHash reports an error unless t's non-zero index, values
// included, is the one a full scan of its feature rows builds and its Hash is
// the one Rehash recomputes. t is left as it was.
func CheckIndexAndHash(t *Tree) error {
	want := indexRows(t.Feats, make([]int32, t.Len()+1), nil)
	if !slices.Equal(t.nz.ix, want.ix) || !sameBits(t.nz.val, want.val) {
		return fmt.Errorf("index %v %v, full scan %v %v", t.nz.ix, t.nz.val, want.ix, want.val)
	}
	u := *t
	u.Rehash()
	if u.Hash != t.Hash {
		return fmt.Errorf("hash %#x, rehashed %#x", t.Hash, u.Hash)
	}
	return nil
}
