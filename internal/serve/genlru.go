package serve

import (
	"sync"

	"prestroid/internal/telemetry"
)

// genLRU is the one generation-tagged LRU behind every per-shard cache
// segment (predictions, pooled sub-tree outputs, prepared templates). The
// segments differ only in key/value types and the two policy hooks below;
// the mutex, recency order, eviction, byte accounting, hit/miss counters and
// the generation contract live here once.
//
// The generation contract: the segment carries the weight generation it
// serves, and every live entry belongs to exactly that generation. Put drops
// a value computed under any other generation — a request can finish its
// model call under the old weights after a roll already invalidated the
// segment, and admitting that result would let one key alternate between
// generations within a single cache lifetime — and Invalidate, which the
// reload machinery calls under the same predictor lock as the swap, flushes
// everything while advancing the generation. No per-entry tag is stored:
// lookups report the segment's generation, read under the same lock as the
// entry.
//
// A nil *genLRU is the disabled segment: lookups miss without counting,
// deposits are dropped, Stats reports zero.
type genLRU[K comparable, V any] struct {
	mu    sync.Mutex
	max   int
	gen   int64 // weight generation this segment serves
	bytes int64 // size() summed over live entries
	items map[K]*lruNode[K, V]
	root  lruNode[K, V] // list sentinel: root.next is most recent, root.prev least

	// admit is the present-key policy and admission transform in one: given
	// the value already stored under the key (present reports whether there
	// is one) and the incoming value, it returns what to store and whether
	// to store anything. nil always stores the incoming value.
	admit func(old V, present bool, in V) (V, bool)
	// size prices one entry for the bytes gauge; nil leaves entries
	// unaccounted.
	size func(K, V) int64

	// hits/misses live in the owning shard's telemetry group so cache
	// accounting feeds the same snapshot as every other counter.
	hits, misses *telemetry.Counter
}

// lruNode is one entry, linked intrusively into the recency ring. An evicted
// node is unlinked and left to the collector at once — values can pin
// megabytes (template encodings), so nothing is pooled.
type lruNode[K comparable, V any] struct {
	key        K
	val        V
	bytes      int64
	prev, next *lruNode[K, V]
}

func newGenLRU[K comparable, V any](max int, gen int64, hits, misses *telemetry.Counter,
	admit func(old V, present bool, in V) (V, bool), size func(K, V) int64) *genLRU[K, V] {
	c := &genLRU[K, V]{max: max, hits: hits, misses: misses, admit: admit, size: size}
	c.Invalidate(gen)
	return c
}

func (c *genLRU[K, V]) unlink(n *lruNode[K, V]) {
	n.prev.next, n.next.prev = n.next, n.prev
}

func (c *genLRU[K, V]) pushFront(n *lruNode[K, V]) {
	n.prev, n.next = &c.root, c.root.next
	n.prev.next, n.next.prev = n, n
}

// touch marks a linked node most recently used.
func (c *genLRU[K, V]) touch(n *lruNode[K, V]) {
	if c.root.next != n {
		c.unlink(n)
		c.pushFront(n)
	}
}

// Get returns the value cached under k and the generation it belongs to,
// marking it most recently used. Values are immutable after admission;
// callers only read.
func (c *genLRU[K, V]) Get(k K) (V, int64, bool) {
	v, g, ok := c.Peek(k)
	if !ok && c != nil {
		c.misses.Inc()
	}
	return v, g, ok
}

// Peek is Get without miss accounting: a hit still counts and refreshes
// recency, but a miss is left for whichever segment ultimately serves the
// query, so the dispatcher's pre-detour home lookup doesn't double-count.
func (c *genLRU[K, V]) Peek(k K) (v V, gen int64, ok bool) {
	if c == nil {
		return v, 0, false
	}
	c.mu.Lock()
	n, ok := c.items[k]
	if !ok {
		c.mu.Unlock()
		return v, 0, false
	}
	c.touch(n)
	v, gen = n.val, c.gen
	c.mu.Unlock()
	c.hits.Inc()
	return v, gen, true
}

// Put deposits a value computed under weight generation gen, evicting least
// recently used entries when full. A value from any generation but the one
// the segment serves is dropped.
func (c *genLRU[K, V]) Put(k K, v V, gen int64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if gen != c.gen {
		return
	}
	c.store(k, v)
}

// PutCurrent deposits under whatever generation the segment serves right
// now, for callers with no generation in hand whose value is valid for any:
// the model's conv-cache deposits (made under the predictor lock, which also
// serialises Invalidate) and weight-independent parse skeletons.
func (c *genLRU[K, V]) PutCurrent(k K, v V) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.store(k, v)
}

// store is the deposit itself, with c.mu held: refresh or link the key's
// node, let admit decide what it holds, re-price it, evict past max.
func (c *genLRU[K, V]) store(k K, v V) {
	n, present := c.items[k]
	if present {
		c.touch(n)
	}
	if c.admit != nil {
		var old V
		if present {
			old = n.val
		}
		var store bool
		if v, store = c.admit(old, present, v); !store {
			return
		}
	}
	if !present {
		n = &lruNode[K, V]{key: k}
		c.items[k] = n
		c.pushFront(n)
	}
	var sz int64
	if c.size != nil {
		sz = c.size(k, v)
	}
	c.bytes += sz - n.bytes
	n.val, n.bytes = v, sz
	for len(c.items) > c.max {
		oldest := c.root.prev
		c.unlink(oldest)
		delete(c.items, oldest.key)
		c.bytes -= oldest.bytes
	}
}

// Invalidate drops every entry and advances the segment to a new weight
// generation; in-flight Puts tagged with the old one are rejected from then
// on. Hit/miss counters survive — they are lifetime serving stats, not
// per-generation ones.
func (c *genLRU[K, V]) Invalidate(gen int64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gen = gen
	c.bytes = 0
	c.items = make(map[K]*lruNode[K, V], c.max)
	c.root.prev, c.root.next = &c.root, &c.root
}

// Stats reports live entries and accounted payload bytes for telemetry
// sampling.
func (c *genLRU[K, V]) Stats() (entries int, bytes int64) {
	if c == nil {
		return 0, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items), c.bytes
}
