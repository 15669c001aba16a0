package serve

import "testing"

// TestFNVHomesDoNotMove pins where keys land through fnv32a: each key's
// home shard at n = 2, 3 and 4, its quota stripe and its canary bucket, as
// recorded before the three call sites shared one hash. A key that moves
// would strand its cache entries on a roll-free upgrade, rebucket a
// client's quota and change which requests a running canary serves.
func TestFNVHomesDoNotMove(t *testing.T) {
	q := newClientQuota(1, 1)
	for _, c := range []struct {
		key            string
		home           [3]int // at n = 2, 3, 4
		stripe, bucket int
	}{
		{"", [3]int{1, 1, 1}, 5, 76},
		{"a", [3]int{0, 1, 0}, 12, 51},
		{"SELECT a FROM t", [3]int{0, 2, 2}, 6, 38},
		{"select a from t where a > 5", [3]int{1, 2, 3}, 3, 47},
		{"default", [3]int{0, 0, 2}, 14, 57},
		{"beta", [3]int{1, 2, 3}, 7, 57},
		{"10.0.0.1", [3]int{1, 2, 1}, 13, 93},
		{"token-abc", [3]int{1, 2, 3}, 3, 88},
		{"SELECT a, b FROM t JOIN u ON t.id = u.id WHERE a > 5 AND b < 9 ORDER BY a LIMIT 3", [3]int{1, 1, 1}, 5, 56},
		{"ſ", [3]int{1, 2, 1}, 13, 85},
		{"\xff\x00\x7f", [3]int{1, 0, 3}, 15, 51},
		{"SELECT COUNT(*) FROM orders WHERE o_totalprice > 1000", [3]int{1, 2, 1}, 9, 76},
	} {
		for i, n := range []int{2, 3, 4} {
			se := &ShardedEngine{shards: make([]*Engine, n)}
			if got := se.shardOf(c.key); got != c.home[i] {
				t.Errorf("%q: home shard of %d = %d, want %d", c.key, n, got, c.home[i])
			}
		}
		if got := q.stripeOf(c.key); got != &q.strip[c.stripe] {
			t.Errorf("%q: quota stripe moved off %d", c.key, c.stripe)
		}
		if got := canaryBucket(c.key); got != c.bucket {
			t.Errorf("%q: canary bucket %d, want %d", c.key, got, c.bucket)
		}
	}
}
