package serve

import "testing"

// TestFNVHomesDoNotMove pins where keys land through fnv32a: each key's
// quota stripe and its canary bucket, as recorded before the call sites
// shared one hash. A key that moves would rebucket a client's quota and
// change which requests a running canary serves.
func TestFNVHomesDoNotMove(t *testing.T) {
	q := newClientQuota(1, 1)
	for _, c := range []struct {
		key            string
		stripe, bucket int
	}{
		{"", 5, 76},
		{"a", 12, 51},
		{"SELECT a FROM t", 6, 38},
		{"select a from t where a > 5", 3, 47},
		{"default", 14, 57},
		{"beta", 7, 57},
		{"10.0.0.1", 13, 93},
		{"token-abc", 3, 88},
		{"SELECT a, b FROM t JOIN u ON t.id = u.id WHERE a > 5 AND b < 9 ORDER BY a LIMIT 3", 5, 56},
		{"ſ", 13, 85},
		{"\xff\x00\x7f", 15, 51},
		{"SELECT COUNT(*) FROM orders WHERE o_totalprice > 1000", 9, 76},
	} {
		if got := q.stripeOf(c.key); got != &q.strip[c.stripe] {
			t.Errorf("%q: quota stripe moved off %d", c.key, c.stripe)
		}
		if got := canaryBucket(c.key); got != c.bucket {
			t.Errorf("%q: canary bucket %d, want %d", c.key, got, c.bucket)
		}
	}
}
