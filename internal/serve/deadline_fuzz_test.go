package serve

import (
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// deadlineSeeds are (Request-Timeout, X-Request-Deadline) pairs around the
// edges requestDeadline decides: both parsers' syntax, the plain-seconds
// clamp and the Duration range, non-finite and non-positive budgets, and an
// absolute deadline before, after or beside a budget.
var deadlineSeeds = [][2]string{
	{"", ""},
	{"30s", ""},
	{"2.5", ""},
	{"1ns", ""},
	{"0", ""},
	{"-0", ""},
	{"-5s", ""},
	{"NaN", ""},
	{"-Inf", ""},
	{"1e-300", ""},
	{"0x1p62", ""},
	{"9223372036", ""},
	{"9223372037", ""},
	{"2562047h47m16.854775807s", ""},
	{"2562047h47m16.854775808s", ""},
	{"", "2030-01-02T15:04:05.999999999Z"},
	{"", "0001-01-01T00:00:00Z"},
	{"", "9999-12-31T23:59:59+14:00"},
	{"250ms", "2000-01-01T00:00:00Z"},
	{"9223372036", "9999-12-31T23:59:59Z"},
	{"soonish", "yesterday"},
}

// FuzzRequestDeadline holds requestDeadline to its contract on any pair of
// header values: it never panics, and when it accepts the pair, a request
// with neither header has no deadline and one with either has one; a budget
// gives a deadline after the call began and no later than the Duration range
// the plain-seconds clamp keeps a budget in; an absolute deadline is never
// exceeded, and is the deadline itself when no budget comes with it.
func FuzzRequestDeadline(f *testing.F) {
	for _, s := range deadlineSeeds {
		f.Add(s[0], s[1])
	}
	f.Fuzz(func(t *testing.T, timeout, deadline string) {
		r := httptest.NewRequest(http.MethodPost, "/v1/predict", nil)
		if timeout != "" {
			r.Header.Set("Request-Timeout", timeout)
		}
		if deadline != "" {
			r.Header.Set("X-Request-Deadline", deadline)
		}
		before := time.Now()
		ctx, cancel, err := requestDeadline(r)
		after := time.Now()
		if err != nil {
			return
		}
		defer cancel()
		got, ok := ctx.Deadline()
		if ok != (timeout != "" || deadline != "") {
			t.Fatalf("(%q, %q): has a deadline = %v", timeout, deadline, ok)
		}
		if timeout != "" {
			if limit := after.Add(time.Duration(math.MaxInt64)); got.After(limit) {
				t.Fatalf("(%q, %q): deadline %v is past the clamp's %v", timeout, deadline, got, limit)
			}
			if deadline == "" && !got.After(before) {
				t.Fatalf("(%q, %q): a budget gave deadline %v, not after %v", timeout, deadline, got, before)
			}
		}
		if deadline != "" {
			abs, err := time.Parse(time.RFC3339Nano, deadline)
			if err != nil {
				t.Fatalf("(%q, %q): accepted a deadline time.Parse refuses: %v", timeout, deadline, err)
			}
			if got.After(abs) || timeout == "" && !got.Equal(abs) {
				t.Fatalf("(%q, %q): deadline %v, absolute deadline %v", timeout, deadline, got, abs)
			}
		}
	})
}
