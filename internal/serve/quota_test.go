package serve

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestQuotaBurstAndRefill pins the bucket arithmetic: burst requests pass
// immediately, the next is refused with a Retry-After of at least a second,
// and tokens accrue back at qps.
func TestQuotaBurstAndRefill(t *testing.T) {
	q := newClientQuota(2, 3)
	now := time.Unix(1000, 0)
	for i := 0; i < 3; i++ {
		if ok, _ := q.Allow("alice", now); !ok {
			t.Fatalf("request %d inside burst refused", i)
		}
	}
	ok, retry := q.Allow("alice", now)
	if ok {
		t.Fatal("burst+1 admitted")
	}
	if retry < time.Second {
		t.Fatalf("Retry-After %v below the 1s floor", retry)
	}
	// 500ms refills one token at 2 qps.
	if ok, _ := q.Allow("alice", now.Add(500*time.Millisecond)); !ok {
		t.Fatal("refilled token refused")
	}
	// Refill caps at burst: a long absence buys burst tokens, not more.
	later := now.Add(time.Hour)
	for i := 0; i < 3; i++ {
		if ok, _ := q.Allow("alice", later); !ok {
			t.Fatalf("post-idle request %d refused (burst cap lost)", i)
		}
	}
	if ok, _ := q.Allow("alice", later); ok {
		t.Fatal("idle time minted tokens past burst")
	}
}

// TestQuotaRetryAfterRoundsUp pins the throttle hint's rounding: whole
// seconds, never less than one, and always up — at the hinted instant the
// bucket must actually hold the token (a 1.4 s refill rounded to nearest
// says 1 s, and the client's retry eats a second 429).
func TestQuotaRetryAfterRoundsUp(t *testing.T) {
	for _, c := range []struct {
		refill time.Duration // time for an empty bucket to earn one token
		want   time.Duration
	}{
		{500 * time.Millisecond, time.Second},
		{time.Second, time.Second},
		{1400 * time.Millisecond, 2 * time.Second},
		{1600 * time.Millisecond, 2 * time.Second},
		{2 * time.Second, 2 * time.Second},
		{2400 * time.Millisecond, 3 * time.Second},
	} {
		q := newClientQuota(1/c.refill.Seconds(), 1)
		now := time.Unix(1000, 0)
		q.Allow("alice", now) // spends the burst: the bucket is empty
		ok, retry := q.Allow("alice", now)
		if ok || retry != c.want {
			t.Errorf("refill %v: admitted=%v, Retry-After %v; want refused with %v", c.refill, ok, retry, c.want)
			continue
		}
		if ok, _ := q.Allow("alice", now.Add(retry)); !ok {
			t.Errorf("refill %v: retry at the hinted %v was throttled again", c.refill, retry)
		}
	}
}

// TestQuotaClientsIndependent checks one exhausted tenant cannot spend a
// neighbour's tokens.
func TestQuotaClientsIndependent(t *testing.T) {
	q := newClientQuota(1, 1)
	now := time.Unix(1000, 0)
	if ok, _ := q.Allow("alice", now); !ok {
		t.Fatal("alice's first request refused")
	}
	if ok, _ := q.Allow("alice", now); ok {
		t.Fatal("alice exceeded her burst")
	}
	if ok, _ := q.Allow("bob", now); !ok {
		t.Fatal("bob throttled by alice's spending")
	}
}

// TestQuotaBackwardsClock checks a non-monotonic wall clock neither mints
// tokens nor wedges the bucket.
func TestQuotaBackwardsClock(t *testing.T) {
	q := newClientQuota(1, 1)
	now := time.Unix(1000, 0)
	q.Allow("alice", now)
	if ok, _ := q.Allow("alice", now.Add(-time.Hour)); ok {
		t.Fatal("backwards clock minted a token")
	}
	// The bucket must recover relative to the latest observed time.
	if ok, _ := q.Allow("alice", now.Add(2*time.Second)); !ok {
		t.Fatal("bucket wedged after clock went backwards")
	}
}

// TestQuotaDisabled pins the gate: qps <= 0 yields a nil table.
func TestQuotaDisabled(t *testing.T) {
	if q := newClientQuota(0, 10); q != nil {
		t.Fatal("qps=0 built a quota table")
	}
	if q := newClientQuota(-1, 10); q != nil {
		t.Fatal("negative qps built a quota table")
	}
	// Sub-1 bursts round up so a conforming client can ever succeed.
	q := newClientQuota(1, 0)
	if ok, _ := q.Allow("alice", time.Unix(1000, 0)); !ok {
		t.Fatal("burst floor of 1 not applied")
	}
}

// TestQuotaSweepIsLossless checks the memory-pressure sweep: buckets that
// have refilled to full burst are dropped (a full bucket is behaviourally a
// fresh bucket), while actively throttled clients keep their debt.
func TestQuotaSweepIsLossless(t *testing.T) {
	q := newClientQuota(1, 2)
	now := time.Unix(1000, 0)
	s := q.stripeOf("debtor")
	q.Allow("debtor", now)
	q.Allow("debtor", now) // tokens now 0
	// Full and refilled-by-now buckets in the same stripe.
	s.mu.Lock()
	s.buckets["idle"] = &tokenBucket{tokens: 2, last: now}
	s.buckets["recovered"] = &tokenBucket{tokens: 0, last: now.Add(-time.Hour)}
	q.sweepLocked(s, now)
	_, debtorKept := s.buckets["debtor"]
	_, idleKept := s.buckets["idle"]
	_, recoveredKept := s.buckets["recovered"]
	s.mu.Unlock()
	if !debtorKept {
		t.Fatal("sweep dropped an actively throttled client's debt")
	}
	if idleKept || recoveredKept {
		t.Fatal("sweep kept full buckets alive")
	}
	// The swept debtor still cannot burst past its remaining allowance.
	if ok, _ := q.Allow("debtor", now); ok {
		t.Fatal("sweep minted tokens for a throttled client")
	}
}

// TestQuotaConcurrent hammers one hot key and many cold keys from parallel
// goroutines: admissions for the hot key must never exceed its burst (the
// clock is pinned), and the race detector must stay quiet.
func TestQuotaConcurrent(t *testing.T) {
	q := newClientQuota(5, 10)
	now := time.Unix(1000, 0)
	var admitted atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				if ok, _ := q.Allow("hot", now); ok {
					admitted.Add(1)
				}
				q.Allow(fmt.Sprintf("cold-%d-%d", w, i), now)
			}
		}(w)
	}
	wg.Wait()
	if got := admitted.Load(); got != 10 {
		t.Fatalf("hot key admitted %d requests at a pinned clock, want exactly burst (10)", got)
	}
}
