package serve

import "prestroid/internal/telemetry"

// subtreeCache is the engine's partial-result cache behind
// models.ConvCache: pooled tree-convolution outputs keyed by the flattened
// sub-tree's content hash (treecnn.Tree.Hash). A hit replaces an entire conv
// stack forward over that sub-tree, which is what makes structurally
// overlapping workloads cheaper than their distinct-template cost.
//
// One engine owns the cache and hands it to each of its model calls; no
// other call reads or deposits. Every call runs on the engine's one model,
// so every entry was computed under the one set of weights the engine
// serves for its whole life, and any call's deposit is byte-identical to
// what another would compute. Get's returned slice is
// owned by the cache and never mutated after admission, satisfying the
// ConvCache immutability contract.
type subtreeCache = lru[uint64, []float64]

func newSubtreeCache(max int, hits, misses *telemetry.Counter) *subtreeCache {
	return newLRU(max, hits, misses, admitSubtree,
		func(_ uint64, v []float64) int64 { return int64(8 * len(v)) })
}

// admitSubtree keeps a present entry — the conv stack is deterministic, so
// the stored values are byte-identical anyway — and copies a new one: the
// caller's backing slice is only valid for the duration of the call.
func admitSubtree(_ []float64, present bool, in []float64) ([]float64, bool) {
	if present {
		return nil, false
	}
	return append([]float64(nil), in...), true
}
