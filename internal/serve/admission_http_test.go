package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"
)

// postWith sends a predict-style POST with extra headers attached.
func postWith(t *testing.T, srv *Server, path, body string, headers map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewBufferString(body))
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	return w
}

// predictClasses pulls /v1/predict's response-class row out of a snapshot.
func predictClasses(t *testing.T, srv *Server) [5]int64 {
	t.Helper()
	for _, ep := range srv.Snapshot().Responses {
		if ep.Endpoint == "/v1/predict" {
			return ep.Classes
		}
	}
	t.Fatal("no /v1/predict row in the response-class snapshot")
	return [5]int64{}
}

// TestQuotaThrottleHTTP drives the 429 path end to end: past-burst requests
// are refused with a Retry-After, tenants presenting distinct bearer tokens
// are metered separately from the IP bucket, and a throttled request lands
// in the request total, error count, throttled count, latency histogram and
// status-class table exactly once each.
func TestQuotaThrottleHTTP(t *testing.T) {
	srv, _ := newTestServer(t)
	srv.SetClientQuota(0.001, 1) // one request, then throttled for ages
	const q = `{"sql":"SELECT a FROM t WHERE a > 5"}`

	if w := post(t, srv, "/v1/predict", q); w.Code != http.StatusOK {
		t.Fatalf("first request = %d: %s", w.Code, w.Body)
	}
	w := post(t, srv, "/v1/predict", q)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("past-burst request = %d, want 429", w.Code)
	}
	retry, err := strconv.Atoi(w.Header().Get("Retry-After"))
	if err != nil || retry < 1 {
		t.Fatalf("Retry-After = %q, want an integer >= 1", w.Header().Get("Retry-After"))
	}

	// A different tenant (bearer token) has its own untouched bucket even
	// though the httptest RemoteAddr is identical.
	if w := postWith(t, srv, "/v1/predict", q, map[string]string{"Authorization": "Bearer tenant-b"}); w.Code != http.StatusOK {
		t.Fatalf("other tenant = %d: %s", w.Code, w.Body)
	}

	snap := srv.Snapshot()
	if snap.Requests != 3 || snap.Errors != 1 || snap.Throttled != 1 {
		t.Fatalf("requests/errors/throttled = %d/%d/%d, want 3/1/1",
			snap.Requests, snap.Errors, snap.Throttled)
	}
	if snap.Latency.Count() != 3 {
		t.Fatalf("latency observations = %d, want 3 (throttled request observed once)", snap.Latency.Count())
	}
	classes := predictClasses(t, srv)
	if classes[1] != 2 || classes[3] != 1 {
		t.Fatalf("predict classes = %v, want two 2xx and one 4xx", classes)
	}
	// The throttled request never reached a shard: only the two admitted
	// requests show up as cache traffic.
	if tot := snap.Default().Engine.Totals(); tot.CacheHits+tot.CacheMisses != 2 {
		t.Fatalf("shard cache lookups = %d, want 2 (429 must not occupy a model slot)",
			tot.CacheHits+tot.CacheMisses)
	}
}

// TestDeadlineExpired504HTTP drives the deadline headers end to end: an
// already-hopeless budget answers 504 Gateway Timeout, counts as exactly one
// request/error/latency observation/5xx, increments the shard expired
// counter, and never reaches a model.
func TestDeadlineExpired504HTTP(t *testing.T) {
	srv, _ := newTestServer(t)
	const q = `{"sql":"SELECT a FROM t WHERE a > 5"}`
	w := postWith(t, srv, "/v1/predict", q, map[string]string{"Request-Timeout": "1ns"})
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("expired budget = %d, want 504 (body %s)", w.Code, w.Body)
	}
	snap := srv.Snapshot()
	if snap.Requests != 1 || snap.Errors != 1 || snap.Latency.Count() != 1 {
		t.Fatalf("requests/errors/latency = %d/%d/%d, want 1/1/1",
			snap.Requests, snap.Errors, snap.Latency.Count())
	}
	if classes := predictClasses(t, srv); classes[4] != 1 {
		t.Fatalf("predict classes = %v, want one 5xx", classes)
	}
	tot := snap.Default().Engine.Totals()
	if tot.Expired != 1 {
		t.Fatalf("shard expired = %d, want 1", tot.Expired)
	}
	if tot.Batches != 0 || tot.CacheHits+tot.CacheMisses != 0 {
		t.Fatalf("batches/cache lookups = %d/%d, want 0/0 (expired work is dropped at dispatch)",
			tot.Batches, tot.CacheHits+tot.CacheMisses)
	}
}

// TestDeadlineHeadersHTTP pins the header grammar: generous budgets in both
// spellings succeed, malformed or non-positive values are 400s, and the 400
// does not leak an expired/shed count into the engine.
func TestDeadlineHeadersHTTP(t *testing.T) {
	srv, _ := newTestServer(t)
	const q = `{"sql":"SELECT a FROM t WHERE a > 5"}`
	cases := []struct {
		name   string
		header string
		value  string
		want   int
	}{
		{"duration budget", "Request-Timeout", "30s", http.StatusOK},
		{"plain seconds budget", "Request-Timeout", "30", http.StatusOK},
		{"fractional seconds budget", "Request-Timeout", "2.5", http.StatusOK},
		{"absolute deadline", "X-Request-Deadline", time.Now().Add(30 * time.Second).Format(time.RFC3339Nano), http.StatusOK},
		{"garbage budget", "Request-Timeout", "soonish", http.StatusBadRequest},
		{"negative budget", "Request-Timeout", "-5s", http.StatusBadRequest},
		{"zero budget", "Request-Timeout", "0", http.StatusBadRequest},
		{"NaN budget", "Request-Timeout", "NaN", http.StatusBadRequest},
		{"infinite budget", "Request-Timeout", "Inf", http.StatusBadRequest},
		{"budget past the Duration range", "Request-Timeout", "1e30", http.StatusBadRequest},
		{"garbage deadline", "X-Request-Deadline", "yesterday", http.StatusBadRequest},
	}
	for _, tc := range cases {
		w := postWith(t, srv, "/v1/predict", q, map[string]string{tc.header: tc.value})
		if w.Code != tc.want {
			t.Errorf("%s: got %d, want %d (body %s)", tc.name, w.Code, tc.want, w.Body)
		}
		// The method guard outranks the headers: a GET is a 405 whether its
		// deadline header is well-formed or garbage.
		req := httptest.NewRequest(http.MethodGet, "/v1/predict", nil)
		req.Header.Set(tc.header, tc.value)
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code != http.StatusMethodNotAllowed {
			t.Errorf("%s: GET answered %d, want 405 (body %s)", tc.name, rec.Code, rec.Body)
		}
	}
	tot := srv.Snapshot().Default().Engine.Totals()
	if tot.Expired != 0 || tot.Shed != 0 {
		t.Fatalf("expired/shed = %d/%d after header validation failures, want 0/0", tot.Expired, tot.Shed)
	}
}

// TestThrottleCoversExplain checks quotas meter /v1/explain with the same
// bucket as /v1/predict — one client cannot dodge its allowance by switching
// endpoints.
func TestThrottleCoversExplain(t *testing.T) {
	srv, _ := newTestServer(t)
	srv.SetClientQuota(0.001, 1)
	const q = `{"sql":"SELECT a FROM t WHERE a > 5"}`
	if w := post(t, srv, "/v1/predict", q); w.Code != http.StatusOK {
		t.Fatalf("first request = %d", w.Code)
	}
	if w := post(t, srv, "/v1/explain", q); w.Code != http.StatusTooManyRequests {
		t.Fatalf("explain after exhausted bucket = %d, want 429", w.Code)
	}
}

// TestPastDeadlineExpires pins that an absolute deadline already behind us
// answers 504, the zero instant included: it once read as "no deadline" and
// ran the query unbounded.
func TestPastDeadlineExpires(t *testing.T) {
	srv, _ := newTestServer(t)
	const q = `{"sql":"SELECT a FROM t WHERE a > 5"}`
	for _, v := range []string{"0001-01-01T00:00:00Z", "0001-01-01T01:00:00+01:00", "2000-01-01T00:00:00Z"} {
		if w := postWith(t, srv, "/v1/predict", q, map[string]string{"X-Request-Deadline": v}); w.Code != http.StatusGatewayTimeout {
			t.Errorf("X-Request-Deadline %s answered %d %s, want 504", v, w.Code, w.Body)
		}
	}
}
