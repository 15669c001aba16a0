package serve

import (
	"sync"

	"prestroid/internal/telemetry"
)

// lru is the one LRU behind every engine cache (predictions, pooled
// sub-tree outputs, template answers). The caches differ only in
// key/value types and the two policy hooks below; the mutex, recency order,
// eviction, byte accounting and hit/miss counters live here once.
//
// A cache knows nothing about generations: it is built empty with the
// engine that owns it, every entry it ever holds was computed by that
// engine's one (pipeline, normaliser, weights) identity, and it is dropped
// with the engine when a roll retires it. There is nothing to invalidate and
// no deposit to refuse.
//
// A nil *lru is the disabled cache: lookups miss without counting,
// deposits are dropped, Stats reports zero.
type lru[K comparable, V any] struct {
	mu    sync.Mutex
	max   int
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

	// hits/misses live in the identity's telemetry group, which outlives
	// the cache: cache accounting feeds the same snapshot as every
	// other counter and stays monotone across rolls.
	hits, misses *telemetry.Counter
}

// lruNode is one entry, linked intrusively into the recency ring. An evicted
// node is unlinked and left to the collector at once; nothing is pooled.
type lruNode[K comparable, V any] struct {
	key        K
	val        V
	bytes      int64
	prev, next *lruNode[K, V]
}

func newLRU[K comparable, V any](max int, hits, misses *telemetry.Counter,
	admit func(old V, present bool, in V) (V, bool), size func(K, V) int64) *lru[K, V] {
	c := &lru[K, V]{max: max, hits: hits, misses: misses, admit: admit, size: size,
		items: make(map[K]*lruNode[K, V], max)}
	c.root.prev, c.root.next = &c.root, &c.root
	return c
}

func (c *lru[K, V]) unlink(n *lruNode[K, V]) {
	n.prev.next, n.next.prev = n.next, n.prev
}

func (c *lru[K, V]) pushFront(n *lruNode[K, V]) {
	n.prev, n.next = &c.root, c.root.next
	n.prev.next, n.next.prev = n, n
}

// touch marks a linked node most recently used.
func (c *lru[K, V]) touch(n *lruNode[K, V]) {
	if c.root.next != n {
		c.unlink(n)
		c.pushFront(n)
	}
}

// Get returns the value cached under k, marking it most recently used, and
// counts the lookup as a hit or a miss. Values are immutable after admission;
// callers only read.
func (c *lru[K, V]) Get(k K) (v V, ok bool) {
	if c == nil {
		return v, false
	}
	c.mu.Lock()
	n, ok := c.items[k]
	if ok {
		c.touch(n)
		v = n.val
	}
	c.mu.Unlock()
	if ok {
		c.hits.Inc()
	} else {
		c.misses.Inc()
	}
	return v, ok
}

// Put deposits a value, evicting least recently used entries when full:
// refresh or link the key's node, let admit decide what it holds, re-price
// it, evict past max.
func (c *lru[K, V]) Put(k K, v V) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
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

// Stats reports live entries and accounted payload bytes for telemetry
// sampling.
func (c *lru[K, V]) Stats() (entries int, bytes int64) {
	if c == nil {
		return 0, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items), c.bytes
}
