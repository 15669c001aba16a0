package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"prestroid/internal/api"
	"prestroid/internal/serve"
	"prestroid/internal/telemetry"
)

// liveServer is the program under test as the daemon runs it: a serve.Server
// over serve.DefaultConfig behind a real loopback listener.
type liveServer struct {
	srv  *serve.Server
	hs   *http.Server
	addr string
	done chan error
}

// startServer mounts a server for pred on 127.0.0.1:0. wrap, when set, sits
// between the listener and the server (the traced run's handler span).
func startServer(pred *serve.Predictor, wrap func(http.Handler) http.Handler) (*liveServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	srv := serve.NewServerConfig(pred, serve.DefaultConfig())
	var h http.Handler = srv
	if wrap != nil {
		h = wrap(srv)
	}
	s := &liveServer{srv: srv, hs: &http.Server{Handler: h}, addr: ln.Addr().String(), done: make(chan error, 1)}
	go func() { s.done <- s.hs.Serve(ln) }()
	return s, nil
}

// stop shuts the listener down, waits for the accept loop and every handler
// to return, then drains the engine's shards.
func (s *liveServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.done; serr != http.ErrServerClosed && err == nil {
		err = serr
	}
	s.srv.Close()
	return err
}

func (s *liveServer) totals() telemetry.ShardTotals { return s.srv.Engine().Snapshot().Totals() }

// conn is one keep-alive client connection speaking just enough HTTP/1.1 to
// POST /v1/predict: the request is written as raw bytes so the client's own
// cost stays small next to the server's, the response is parsed by net/http.
type conn struct {
	c    net.Conn
	br   *bufio.Reader
	req  []byte
	body []byte
}

func dial(addr string) (*conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &conn{c: c, br: bufio.NewReader(c)}, nil
}

const (
	reqHead   = "POST /v1/predict HTTP/1.1\r\nHost: prestroid\r\nContent-Type: application/json\r\nContent-Length: "
	bodyOpen  = `{"sql":"`
	bodyClose = `"}`
)

// post sends one prediction request and returns the status and the body,
// which is only valid until the next call.
func (c *conn) post(sql []byte) (int, []byte, error) {
	c.req = append(c.req[:0], reqHead...)
	c.req = strconv.AppendInt(c.req, int64(len(bodyOpen)+len(sql)+len(bodyClose)), 10)
	c.req = append(c.req, "\r\n\r\n"+bodyOpen...)
	c.req = append(c.req, sql...)
	c.req = append(c.req, bodyClose...)
	if _, err := c.c.Write(c.req); err != nil {
		return 0, nil, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	if resp.ContentLength < 0 {
		return 0, nil, fmt.Errorf("response without Content-Length")
	}
	if int64(cap(c.body)) < resp.ContentLength {
		c.body = make([]byte, resp.ContentLength)
	}
	c.body = c.body[:resp.ContentLength]
	if _, err := io.ReadFull(resp.Body, c.body); err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, c.body, nil
}

// source yields one client's request stream; next appends the SQL of the
// following request to dst.
type source interface {
	next(dst []byte) []byte
}

// hotSource draws pool entries Zipf(1.1) from the client's own seeded stream.
type hotSource struct {
	sqls []string
	zipf *rand.Zipf
}

func (s *hotSource) next(dst []byte) []byte { return append(dst, s.sqls[s.zipf.Uint64()]...) }

// coldSource issues the pool in order, each query once, all clients sharing
// one cursor. Should a run outlast the pool it wraps around, which a cyclic
// scan over more templates than any LRU holds still turns into misses.
type coldSource struct {
	sqls   []string
	cursor *atomic.Int64
}

func (s *coldSource) next(dst []byte) []byte {
	i := s.cursor.Add(1) - 1
	return append(dst, s.sqls[int(i)%len(s.sqls)]...)
}

// rebindSource picks a template uniformly and re-draws its numeric literals.
type rebindSource struct {
	tmpls []*rebindTemplate
	rng   *rand.Rand
	uniq  *atomic.Int64
}

func (s *rebindSource) next(dst []byte) []byte {
	t := s.tmpls[s.rng.Intn(len(s.tmpls))]
	return t.redraw(dst, s.rng, s.uniq.Add(1))
}

// streams builds the per-client sources of one workload. Every stream is a
// function of (seed, client index) only; cursor and uniq are the state the
// clients of one server share.
type streams struct {
	wl     string
	p      *pool
	seed   uint64
	cursor atomic.Int64
	uniq   atomic.Int64
}

func (st *streams) client(i int) source {
	rng := rand.New(rand.NewSource(int64(st.seed)*1000 + int64(i)))
	switch st.wl {
	case "serve_hot":
		return &hotSource{sqls: st.p.sqls, zipf: rand.NewZipf(rng, zipfS, 1, uint64(len(st.p.sqls)-1))}
	case "serve_rebind":
		return &rebindSource{tmpls: st.p.tmpls, rng: rng, uniq: &st.uniq}
	default:
		return &coldSource{sqls: st.p.sqls, cursor: &st.cursor}
	}
}

// prewarm lists the requests that put a server into the workload's steady
// state before anything is timed: every hot key once (identical SQL always
// lands on the same shard), every rebind template often enough that each
// shard's template segment has seen it (the shard is chosen by the literal-
// bearing canonical key, so sightings scatter). serve_cold has no cache
// state to reach this way; the tail of its pool pays the first-call costs
// (arena growth, lazily built tables).
func (st *streams) prewarm(shards int) [][]byte {
	var out [][]byte
	switch st.wl {
	case "serve_cold":
		for _, s := range st.p.sqls[len(st.p.sqls)-coldPrewarm:] {
			out = append(out, []byte(s))
		}
	case "serve_hot":
		for _, s := range st.p.sqls {
			out = append(out, []byte(s))
		}
	case "serve_rebind":
		rng := rand.New(rand.NewSource(int64(st.seed)))
		for rep := 0; rep < 4*shards; rep++ {
			for _, t := range st.p.tmpls {
				out = append(out, t.redraw(nil, rng, st.uniq.Add(1)))
			}
		}
	}
	return out
}

// sample is one measured request kept for the output check.
type sample struct {
	sql  string
	body []byte
}

// clientLog is what one client goroutine records while measuring.
type clientLog struct {
	lat       [][]int64 // ns, per window: every request that completed in it
	attempted int64
	failed    int64
	firstErr  error
	samples   []sample
}

const (
	sampleEvery     = 32 // one request in this many is kept for the oracle
	samplesPerCheck = 4  // cap per client per window
)

// loadResult is one closed-loop measurement over a live server.
type loadResult struct {
	window    time.Duration
	warm      time.Duration // how long the caches took to settle
	lat       [][]int64     // ns, per window, sorted, pooled over clients
	attempted int64
	failed    int64
	firstErr  error
	samples   []sample
	before    telemetry.ShardTotals
	after     telemetry.ShardTotals
	mem       [2]runtime.MemStats // filled when readMem
}

// Warm-up runs in slices until the server is in a steady state: the three
// caches have stopped filling and the heap has stopped taking memory from the
// operating system (serve_cold's template entries hold dense feature tensors,
// and while the heap still grows to fit 4096 of them every request pays for
// fresh pages: throughput sits a third below what it settles at). serve_hot
// is steady at once, serve_rebind when its prediction segments are full,
// serve_cold a few seconds after all three are. warmMax only bounds a server
// that never settles.
const (
	warmSlice = time.Second
	warmMin   = 2 * time.Second
	warmMax   = 20 * time.Second
)

func occupancy(t telemetry.ShardTotals) int {
	return t.CacheEntries + t.TemplateEntries + t.SubtreeEntries
}

// runLoad drives the server closed-loop: clients keep-alive connections, one
// goroutine each, every caller blocking on its prediction before sending the
// next. It prewarms, warms up untimed, then measures servingWindows
// consecutive windows.
func runLoad(s *liveServer, st *streams, clients int, window time.Duration, readMem bool) (*loadResult, error) {
	conns := make([]*conn, clients)
	for i := range conns {
		c, err := dial(s.addr)
		if err != nil {
			return nil, err
		}
		defer c.c.Close()
		conns[i] = c
	}

	pre := st.prewarm(s.srv.Engine().Shards())
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for i := range conns {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := i; j < len(pre); j += clients {
				if status, body, err := conns[i].post(pre[j]); err != nil || status != http.StatusOK {
					errs[i] = fmt.Errorf("prewarm %q: status %d %s: %v", pre[j], status, body, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	res := &loadResult{window: window}
	logs := make([]*clientLog, clients)
	run := func(dur time.Duration, record bool) {
		start := time.Now()
		for i := range conns {
			logs[i] = &clientLog{lat: make([][]int64, servingWindows)}
			wg.Add(1)
			go func(c *conn, src source, lg *clientLog, rng *rand.Rand) {
				defer wg.Done()
				var sql []byte
				kept := make([]int, servingWindows)
				for {
					t0 := time.Now()
					if t0.Sub(start) >= dur {
						return
					}
					sql = src.next(sql[:0])
					status, body, err := c.post(sql)
					end := time.Now()
					if !record {
						if err != nil {
							lg.firstErr = err
							return
						}
						continue
					}
					lg.attempted++
					if err != nil || status != http.StatusOK {
						lg.failed++
						if lg.firstErr == nil {
							lg.firstErr = fmt.Errorf("%q: status %d %s: %v", sql, status, body, err)
						}
						if err != nil {
							return // the connection is not reusable
						}
						continue
					}
					w := int(end.Sub(start) / window)
					if w >= servingWindows {
						continue // sent inside the last window, answered after it
					}
					lg.lat[w] = append(lg.lat[w], int64(end.Sub(t0)))
					if rng.Intn(sampleEvery) == 0 && kept[w] < samplesPerCheck {
						kept[w]++
						lg.samples = append(lg.samples, sample{sql: string(sql), body: append([]byte(nil), body...)})
					}
				}
			}(conns[i], st.client(i), logs[i], rand.New(rand.NewSource(int64(st.seed)*7919+int64(i))))
		}
		wg.Wait()
	}

	for filled, heap := -1, uint64(0); res.warm < warmMax; {
		run(warmSlice, false)
		res.warm += warmSlice
		for _, lg := range logs {
			if lg.firstErr != nil {
				return nil, fmt.Errorf("warm-up: %w", lg.firstErr)
			}
		}
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		now := occupancy(s.totals())
		if now == filled && float64(ms.HeapSys) <= 1.02*float64(heap) && res.warm >= warmMin {
			break
		}
		filled, heap = now, ms.HeapSys
	}
	res.before = s.totals()
	if readMem {
		runtime.ReadMemStats(&res.mem[0])
	}
	run(time.Duration(servingWindows)*window, true)
	if readMem {
		runtime.ReadMemStats(&res.mem[1])
	}
	res.after = s.totals()

	res.lat = make([][]int64, servingWindows)
	for _, lg := range logs {
		for w, lat := range lg.lat {
			res.lat[w] = append(res.lat[w], lat...)
		}
		res.attempted += lg.attempted
		res.failed += lg.failed
		if res.firstErr == nil {
			res.firstErr = lg.firstErr
		}
		res.samples = append(res.samples, lg.samples...)
	}
	for _, lat := range res.lat {
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	}
	return res, nil
}

// qps returns each window's completions per second.
func (r *loadResult) qps() []float64 {
	out := make([]float64, len(r.lat))
	for w, lat := range r.lat {
		out[w] = float64(len(lat)) / r.window.Seconds()
	}
	return out
}

// latencyUS returns each window's p-th percentile latency.
func (r *loadResult) latencyUS(p float64) []float64 {
	out := make([]float64, len(r.lat))
	for w, lat := range r.lat {
		out[w] = float64(percentile(lat, p)) / 1e3
	}
	return out
}

// meanUS returns each window's mean latency.
func (r *loadResult) meanUS() []float64 {
	out := make([]float64, len(r.lat))
	for w, lat := range r.lat {
		out[w] = meanNS(lat) / 1e3
	}
	return out
}

// completed counts the requests answered inside the windows.
func (r *loadResult) completed() int {
	n := 0
	for _, lat := range r.lat {
		n += len(lat)
	}
	return n
}

// checkSamples re-computes every sampled answer on the serialised reference
// path (Predictor.PredictSQL over a clone of the served model) and counts the
// responses whose cpu_minutes differ from it in any bit.
func checkSamples(oracle *serve.Predictor, samples []sample) (bad int64, first error) {
	for _, sm := range samples {
		var got api.PredictResponse
		err := json.Unmarshal(sm.body, &got)
		if err == nil {
			var want serve.Prediction
			if want, err = oracle.PredictSQL(sm.sql); err == nil && got.CPUMinutes != want.CPUMinutes {
				err = fmt.Errorf("served cpu_minutes %v, oracle %v", got.CPUMinutes, want.CPUMinutes)
			}
		}
		if err != nil {
			bad++
			if first == nil {
				first = fmt.Errorf("%q: %w", sm.sql, err)
			}
		}
	}
	return bad, first
}

// hitRatios are the three caches' hit shares over a measurement.
type hitRatios struct {
	cache, template, subtree float64
	cacheHits                int64
}

func ratio(hits, misses int64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

func (r *loadResult) hits() hitRatios {
	a, b := r.after, r.before
	return hitRatios{
		cache:     ratio(a.CacheHits-b.CacheHits, a.CacheMisses-b.CacheMisses),
		template:  ratio(a.TemplateHits-b.TemplateHits, a.TemplateMisses-b.TemplateMisses),
		subtree:   ratio(a.SubtreeHits-b.SubtreeHits, a.SubtreeMisses-b.SubtreeMisses),
		cacheHits: a.CacheHits - b.CacheHits,
	}
}

// checkExercised verifies that the workload stressed the layer it names;
// otherwise its numbers describe some other path.
func checkExercised(wl string, h hitRatios) error {
	switch {
	case wl == "serve_hot" && h.cache < 0.999:
		return fmt.Errorf("serve_hot: prediction-cache hit ratio %.4f, want >= 0.999", h.cache)
	case wl == "serve_rebind" && (h.cacheHits != 0 || h.template < 0.99):
		return fmt.Errorf("serve_rebind: %d prediction-cache hits (want 0), template hit ratio %.4f (want >= 0.99)", h.cacheHits, h.template)
	case wl == "serve_cold" && (h.template > 0.01 || h.cache > 0.01):
		return fmt.Errorf("serve_cold: template hit ratio %.4f, prediction-cache hit ratio %.4f, want <= 0.01", h.template, h.cache)
	}
	return nil
}
