package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call at a layer boundary. Spans of one request share Req;
// Parent is the span that caused this one (0 for a root).
//
// The ladder's rungs below the handler cannot be timed inside one request
// without instrumenting the server, so they are timed in passes of their own
// over the same requests and attached to the request's tree by Parent. A
// child's interval therefore need not lie inside its parent's; self time is
// computed from durations.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. A nil recorder records
// nothing, which is how the same code runs untimed.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its id, so that spans it causes can name
// it as their parent before it ends.
func (r *recorder) begin(name string, req, parent int) int {
	if r == nil {
		return 0
	}
	start := time.Since(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Req: req, Name: name, Start: int64(start)})
	return len(r.spans)
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	end := time.Since(r.t0)
	r.mu.Lock()
	r.spans[id-1].End = int64(end)
	r.mu.Unlock()
}

// call runs f inside a span and returns the span's id.
func (r *recorder) call(name string, req, parent int, f func()) int {
	id := r.begin(name, req, parent)
	f()
	r.end(id)
	return id
}

// selfTimes returns, per span id, the span's duration minus its children's.
func selfTimes(spans []span) map[int]int64 {
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] += s.dur()
		if s.Parent != 0 {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}

// layerTime aggregates the spans of one name.
type layerTime struct {
	count      int
	total      int64 // ns
	self       int64 // ns
	perRequest float64
}

// byLayer sums duration and self time per span name; perRequest divides the
// total by requests, so a layer called on only some requests is charged to
// all of them the way the client's mean latency is.
func byLayer(spans []span, requests int) map[string]*layerTime {
	self := selfTimes(spans)
	out := map[string]*layerTime{}
	for _, s := range spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTime{}
			out[s.Name] = lt
		}
		lt.count++
		lt.total += s.dur()
		lt.self += self[s.ID]
	}
	for _, lt := range out {
		if requests > 0 {
			lt.perRequest = float64(lt.total) / float64(requests)
		}
	}
	return out
}

// write stores the spans as JSON lines under benchmark/out/.
func (r *recorder) write(workload string) (string, error) {
	dir := filepath.Join("benchmark", "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace_"+workload+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("close %s: %w", path, err)
	}
	return path, nil
}
