package serve

import (
	"prestroid/internal/models"
	"prestroid/internal/telemetry"
)

// convCacheSetter is the optional model extension the engine probes for when
// wiring its sub-tree cache: models that take a ConvCache consult it on the
// inference fast path. Prestroid implements it.
type convCacheSetter interface {
	SetConvCache(models.ConvCache)
}

// subtreeCache is the per-shard partial-result segment behind
// models.ConvCache: pooled tree-convolution outputs keyed by the flattened
// sub-tree's content hash (treecnn.Tree.Hash). A hit replaces an entire conv
// stack forward over that sub-tree, which is what makes structurally
// overlapping workloads cheaper than their distinct-template cost.
//
// The model deposits with no generation in hand, so Put lands under the
// segment's current one. That is sound because every deposit happens inside
// a model call serialised on the predictor lock, the same lock under which
// the reload machinery swaps the replica and invalidates the segment — a
// deposit can never cross generations. The zero value (no segment) is the
// disabled cache.
type subtreeCache struct {
	*genLRU[uint64, []float64]
}

func newSubtreeCache(max int, gen int64, hits, misses *telemetry.Counter) subtreeCache {
	return subtreeCache{newGenLRU(max, gen, hits, misses, admitSubtree,
		func(_ uint64, v []float64) int64 { return int64(8 * len(v)) })}
}

// admitSubtree keeps a present entry — within one generation the conv stack
// is deterministic, so the stored values are byte-identical anyway — and
// copies a new one: the caller's backing slice is only valid for the
// duration of the call.
func admitSubtree(_ []float64, present bool, in []float64) ([]float64, bool) {
	if present {
		return nil, false
	}
	return append([]float64(nil), in...), true
}

// Get returns the cached pooled output for a sub-tree hash. The returned
// slice is owned by the cache and never mutated after admission, satisfying
// the ConvCache immutability contract.
func (c subtreeCache) Get(hash uint64) ([]float64, bool) {
	v, _, ok := c.genLRU.Get(hash)
	return v, ok
}

// Put admits a copy of a pooled output.
func (c subtreeCache) Put(hash uint64, pooled []float64) { c.PutCurrent(hash, pooled) }
