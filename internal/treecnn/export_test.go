package treecnn

import (
	"fmt"
	"slices"
)

// CheckIndexAndHash reports an error unless t's non-zero index is the one a
// full scan of its feature rows builds and its Hash is the one Rehash
// recomputes. t is left as it was.
func CheckIndexAndHash(t *Tree) error {
	if want := indexRows(t.Feats, make([]int32, t.Len()+1)); !slices.Equal(t.nz, want) {
		return fmt.Errorf("index %v, full scan %v", t.nz, want)
	}
	u := *t
	u.Rehash()
	if u.Hash != t.Hash {
		return fmt.Errorf("hash %#x, rehashed %#x", t.Hash, u.Hash)
	}
	return nil
}
