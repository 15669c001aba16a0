package serve

import (
	"strings"
	"testing"

	"prestroid/internal/telemetry"
)

// lruOrder renders the recency ring most-recent-first, checking on the way
// that the ring and the index agree.
func lruOrder(t *testing.T, c *lru[string, string]) string {
	t.Helper()
	var keys []string
	for n := c.root.next; n != &c.root; n = n.next {
		if c.items[n.key] != n {
			t.Fatalf("ring node %q is not the indexed node", n.key)
		}
		keys = append(keys, n.key)
	}
	if len(keys) != len(c.items) {
		t.Fatalf("ring holds %d nodes, index %d", len(keys), len(c.items))
	}
	return strings.Join(keys, " ")
}

// TestLRUContract walks one segment through everything the three cache
// wrappers share: recency order, eviction at max, byte accounting across
// admit / refused re-put / upgrade / evict, and one counted lookup per Get.
// The policy under test keeps a present value unless the incoming one is
// longer (an "upgrade") and prices an entry by its value's length.
func TestLRUContract(t *testing.T) {
	var hits, misses telemetry.Counter
	upgrade := func(old string, present bool, in string) (string, bool) {
		return in, !present || len(in) > len(old)
	}
	c := newLRU(2, &hits, &misses, upgrade, func(_, v string) int64 { return int64(len(v)) })

	steps := []struct {
		name  string
		do    func()
		order string // most recent first
		bytes int64
		hits  int64
		miss  int64
	}{
		{"Get on an empty segment counts a miss", func() { c.Get("a") }, "", 0, 0, 1},
		{"Put admits and prices", func() { c.Put("a", "1") }, "a", 1, 0, 1},
		{"a second key goes in front", func() { c.Put("b", "22") }, "b a", 3, 0, 1},
		{"a Get hit refreshes recency", func() { c.Get("a") }, "a b", 3, 1, 1},
		{"and so does the next", func() { c.Get("b") }, "b a", 3, 2, 1},
		{"a refused re-put keeps value and bytes but refreshes", func() { c.Put("a", "x") }, "a b", 3, 2, 1},
		{"an upgrade replaces in place and re-prices", func() { c.Put("a", "333") }, "a b", 5, 2, 1},
		{"a third key evicts the least recent", func() { c.Put("c", "4444") }, "c a", 7, 2, 1},
		{"and a fourth the next", func() { c.Put("d", "1") }, "d c", 5, 2, 1},
	}
	for _, st := range steps {
		st.do()
		entries, bytes := c.Stats()
		if got := lruOrder(t, c); got != st.order || bytes != st.bytes || entries != len(strings.Fields(st.order)) {
			t.Fatalf("%s: order %q, %d entries, %d bytes; want %q, %d bytes", st.name, got, entries, bytes, st.order, st.bytes)
		}
		if hits.Load() != st.hits || misses.Load() != st.miss {
			t.Fatalf("%s: hits/misses %d/%d, want %d/%d", st.name, hits.Load(), misses.Load(), st.hits, st.miss)
		}
	}
	if v, ok := c.Get("c"); !ok || v != "4444" {
		t.Fatalf("Get(c) = %q, %v; want the stored value", v, ok)
	}
}

// TestLRUDefaults pins the two degenerate configurations: without an admit
// hook a present key is overwritten (and re-priced), and a nil segment is the
// disabled cache — every operation is a no-op that counts nothing.
func TestLRUDefaults(t *testing.T) {
	var hits, misses telemetry.Counter
	c := newLRU[string, string](1, &hits, &misses, nil, func(_, v string) int64 { return int64(len(v)) })
	c.Put("a", "1")
	c.Put("a", "22")
	if v, _ := c.Get("a"); v != "22" {
		t.Fatalf("overwrite left %q, want the later value", v)
	}
	if n, b := c.Stats(); n != 1 || b != 2 {
		t.Fatalf("after overwrite: %d entries / %d bytes, want 1/2", n, b)
	}

	var off *lru[string, string]
	off.Put("a", "1")
	if _, ok := off.Get("a"); ok {
		t.Fatal("disabled segment reported a hit")
	}
	if n, b := off.Stats(); n != 0 || b != 0 {
		t.Fatalf("disabled segment stats %d/%d, want 0/0", n, b)
	}
}
