package serve

import (
	"sync"
	"time"
)

// quotaStripes shards the client table so quota checks from unrelated
// clients rarely contend on one mutex. 16 is plenty: the critical section
// is a map lookup plus float arithmetic.
const quotaStripes = 16

// quotaSweepAt bounds a stripe's client table: past this many entries a
// refill pass sweeps out every bucket that has refilled back to full burst.
// The sweep is lossless — a full bucket is behaviorally identical to the
// fresh bucket the client would get on its next request — so an address-
// spinning attacker can grow a stripe only as far as its live, actively
// throttled clients.
const quotaSweepAt = 4096

// clientQuota is a striped token-bucket table keyed by client identity
// (bearer token or remote IP). Each client accrues qps tokens per second up
// to burst; a request spends one token or is throttled. The zero rate is
// never constructed — callers gate on newClientQuota returning nil.
type clientQuota struct {
	qps   float64
	burst float64
	strip [quotaStripes]quotaStripe
}

type quotaStripe struct {
	mu      sync.Mutex
	buckets map[string]*tokenBucket
}

// tokenBucket is one client's refillable allowance. Fields are guarded by
// the owning stripe's mutex.
type tokenBucket struct {
	tokens float64
	last   time.Time
}

// newClientQuota builds the table, or returns nil when qps <= 0 (quotas
// disabled). burst values below 1 are raised to 1 so a conforming client
// can always make at least one request.
func newClientQuota(qps float64, burst int) *clientQuota {
	if qps <= 0 {
		return nil
	}
	if burst < 1 {
		burst = 1
	}
	q := &clientQuota{qps: qps, burst: float64(burst)}
	for i := range q.strip {
		q.strip[i].buckets = make(map[string]*tokenBucket)
	}
	return q
}

// stripeOf hashes a client key onto its stripe.
func (q *clientQuota) stripeOf(key string) *quotaStripe {
	return &q.strip[fnv32a(key)%quotaStripes]
}

// Allow spends one token from key's bucket at time now, reporting whether
// the request is admitted and — when it is not — how long until the bucket
// refills enough for one request (the Retry-After hint, in whole seconds
// rounded up: a client told to come back early eats a second 429).
func (q *clientQuota) Allow(key string, now time.Time) (ok bool, retryAfter time.Duration) {
	s := q.stripeOf(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	b := s.buckets[key]
	if b == nil {
		if len(s.buckets) >= quotaSweepAt {
			q.sweepLocked(s, now)
		}
		b = &tokenBucket{tokens: q.burst, last: now}
		s.buckets[key] = b
	} else {
		b.tokens += now.Sub(b.last).Seconds() * q.qps
		if b.tokens > q.burst {
			b.tokens = q.burst
		}
		// A clock that runs backwards (or a duplicate timestamp) must not
		// mint tokens, but must also not strand `last` in the future.
		b.last = now
	}
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	return false, ceilSeconds(time.Duration((1 - b.tokens) / q.qps * float64(time.Second)))
}

// sweepLocked drops every bucket that has refilled to full burst. Callers
// hold the stripe mutex.
func (q *clientQuota) sweepLocked(s *quotaStripe, now time.Time) {
	for k, b := range s.buckets {
		if b.tokens+now.Sub(b.last).Seconds()*q.qps >= q.burst {
			delete(s.buckets, k)
		}
	}
}
