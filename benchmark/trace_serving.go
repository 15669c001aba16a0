package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"prestroid/internal/api"
	"prestroid/internal/dataset"
	"prestroid/internal/models"
	"prestroid/internal/otp"
	"prestroid/internal/serve"
	"prestroid/internal/tensor"
	"prestroid/internal/treecnn"
	"prestroid/internal/workload"
)

// ladderRequests caps how many requests each pass of the ladder replays; a
// pass also stops when its share of the measured seconds is used up, and every
// later pass replays exactly as many as the first did.
const ladderRequests = 2000

// twin is a server built and prewarmed exactly like every other twin of the
// run, so each pass of the ladder meets the same cache state for the same
// requests.
type twin struct {
	*liveServer
	c *conn
}

func newTwin(fx *servingFixture, st *streams, wrap func(http.Handler) http.Handler) (*twin, error) {
	s, err := startServer(fx.predictor(), wrap)
	if err != nil {
		return nil, err
	}
	c, err := dial(s.addr)
	if err != nil {
		s.stop()
		return nil, err
	}
	for _, sql := range st.prewarm(s.srv.Engine().Shards()) {
		if status, body, err := c.post(sql); err != nil || status != http.StatusOK {
			c.c.Close()
			s.stop()
			return nil, fmt.Errorf("prewarm %q: status %d %s: %v", sql, status, body, err)
		}
	}
	return &twin{liveServer: s, c: c}, nil
}

func (t *twin) close() error {
	t.c.c.Close()
	return t.stop()
}

// servingTrace carries one traced serving run from pass to pass.
type servingTrace struct {
	rc     runConfig
	fx     *servingFixture
	rec    *recorder
	vals   map[string]float64
	shards int

	attempted, failed int64
}

func (t *servingTrace) fail(format string, args ...any) {
	t.failed++
	fmt.Printf("FAILED: "+format+"\n", args...)
}

// streams returns a fresh, identical set of request streams: every twin is
// prewarmed from its own copy, and client 0 of one more copy is the ladder.
func (t *servingTrace) streams() *streams {
	return &streams{wl: t.rc.workload, p: t.fx.pool, seed: t.rc.seed}
}

// traceServing is the traced run of a serving workload. It first loads one
// server closed-loop exactly as the untraced run does, for the counters and
// the process's allocation and collection figures; then one caller replays
// the same requests up a ladder of entry points on twin servers (socket
// without spans, socket with a handler span, ShardedEngine.PredictSQL, then
// every stage by hand) and times the kernels on the trees those requests
// produced.
func traceServing(rc runConfig) (*result, error) {
	t0 := time.Now()
	fx, err := newServingFixture(rc.workload, rc.seed)
	if err != nil {
		return nil, err
	}
	fmt.Printf("pool hash %016x, set-up %.3fs\n", fx.pool.hash(), time.Since(t0).Seconds())
	t := &servingTrace{rc: rc, fx: fx, rec: newRecorder(), vals: map[string]float64{}}
	if err := t.loadedCounters(); err != nil {
		return nil, err
	}

	src := t.streams().client(0)
	reqs := make([][]byte, ladderRequests)
	for i := range reqs {
		reqs[i] = src.next(nil)
	}
	plain, err := t.plainPass(reqs)
	if err != nil {
		return nil, err
	}
	reqs = reqs[:len(plain)]
	t.attempted += int64(len(reqs))
	served, rtts, handlerOf, err := t.socketPass(reqs)
	if err != nil {
		return nil, err
	}
	engineOf, err := t.enginePass(reqs, served, handlerOf)
	if err != nil {
		return nil, err
	}
	hand, err := t.handPass(reqs, served, handlerOf, engineOf)
	if err != nil {
		return nil, err
	}
	ladder := t.ladderMetrics(len(reqs), plain, rtts)

	sqlBytes := 0
	for _, r := range reqs {
		sqlBytes += len(r)
	}
	n := float64(len(reqs))
	t.vals["sqlparse.sql_bytes_per_query"] = float64(sqlBytes) / n
	t.vals["models.trees_per_query"] = float64(hand.nTrees) / n
	t.vals["models.nodes_per_query"] = float64(hand.nNodes) / n
	if len(hand.trees) > 0 { // the workload reaches the model
		kernelRungs(fx, hand.trees, t.rec, t.vals)
		if err := t.batchRung(reqs); err != nil {
			return nil, err
		}
	}
	footprint(fx.ts, fx.pipe, fx.m, t.vals)

	path, err := t.rec.write(rc.workload)
	if err != nil {
		return nil, err
	}
	rtt := t.vals["client.rtt_us"]
	printTable(fmt.Sprintf("per-layer (%d requests from one caller; %d spans in %s)", len(reqs), len(t.rec.spans), path), perLayer, t.vals,
		func(d metricDef) string {
			if ladder[d.Name] {
				return fmt.Sprintf("%5.1f%% of rtt", 100*t.vals[d.Name]/rtt)
			}
			return ""
		})

	res, err := newResult(perLayer, t.vals)
	if err != nil {
		return nil, err
	}
	res.Attempted = t.attempted
	res.Failed = t.failed
	res.Correct = t.failed == 0
	return res, nil
}

// loadedCounters drives one server closed-loop over half the measured
// seconds, checks its output like the untraced run, and reads the counters.
func (t *servingTrace) loadedCounters() error {
	s, err := startServer(t.fx.predictor(), nil)
	if err != nil {
		return err
	}
	t.shards = s.srv.Engine().Shards()
	window := time.Duration(t.rc.seconds) * time.Second / 2 / servingWindows
	load, err := runLoad(s, t.streams(), t.rc.clients, window, true)
	if err != nil {
		return err
	}
	if err := s.stop(); err != nil {
		return err
	}
	bad, badErr := checkSamples(t.fx.predictor(), load.samples)
	h := load.hits()
	for _, e := range []error{load.firstErr, badErr, checkExercised(t.rc.workload, h)} {
		if e != nil {
			t.fail("%v", e)
		}
	}
	t.attempted += load.attempted
	t.failed += load.failed + bad

	ops := float64(load.completed())
	a, b := load.after, load.before
	v := t.vals
	v["client.loaded_p50_us"] = betterQuartile(load.latencyUS(50), "lower")
	v["client.loaded_p95_us"] = betterQuartile(load.latencyUS(95), "lower")
	v["serve.replicas"] = float64(t.shards)
	v["serve.cache_hit_ratio"] = h.cache
	v["serve.template_hit_ratio"] = h.template
	v["serve.subtree_hit_ratio"] = h.subtree
	v["serve.batches"] = float64(a.Batches - b.Batches)
	if n := a.Batches - b.Batches; n > 0 {
		v["serve.mean_batch_size"] = float64(a.Coalesced-b.Coalesced) / float64(n)
	}
	v["serve.shed"] = float64(a.Shed - b.Shed)
	v["serve.expired"] = float64(a.Expired - b.Expired)
	// The clients share the process, so their allocations are in these too.
	v["process.alloc_kb_per_op"] = float64(load.mem[1].TotalAlloc-load.mem[0].TotalAlloc) / 1024 / ops
	v["process.allocs_per_op"] = float64(load.mem[1].Mallocs-load.mem[0].Mallocs) / ops
	v["process.gc_pause_ms"] = float64(load.mem[1].PauseTotalNs-load.mem[0].PauseTotalNs) / 1e6
	v["process.gc_cycles"] = float64(load.mem[1].NumGC - load.mem[0].NumGC)
	fmt.Printf("loaded: warm-up %s, windows qps %.0f\n", load.warm, load.qps())
	return nil
}

// plainPass is rung 0: socket, no spans. Its p50 against rung 1's is what
// recording costs. It stops after an eighth of the measured seconds, and the
// later passes replay exactly the requests it got through.
func (t *servingTrace) plainPass(reqs [][]byte) ([]int64, error) {
	tw, err := newTwin(t.fx, t.streams(), nil)
	if err != nil {
		return nil, err
	}
	budget := time.Duration(t.rc.seconds) * time.Second / 8
	var lat []int64
	for start := time.Now(); len(lat) < len(reqs) && time.Since(start) < budget; {
		t0 := time.Now()
		if status, body, err := tw.c.post(reqs[len(lat)]); err != nil || status != http.StatusOK {
			return nil, fmt.Errorf("untraced socket pass: status %d %s: %v", status, body, err)
		}
		lat = append(lat, int64(time.Since(t0)))
	}
	return lat, tw.close()
}

// socketPass is rung 1: socket with spans. client.rtt wraps the round trip;
// serve.handler is recorded inside the same request by a wrapper between the
// listener and the server. It returns the answers, the round-trip times and
// each request's handler span.
func (t *servingTrace) socketPass(reqs [][]byte) (served []api.PredictResponse, rtts []int64, handlerOf []int, err error) {
	type inflight struct{ req, parent int }
	var cur atomic.Pointer[inflight]
	tw, err := newTwin(t.fx, t.streams(), func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			in := cur.Load()
			if in == nil { // prewarm
				next.ServeHTTP(w, r)
				return
			}
			id := t.rec.begin("serve.handler", in.req, in.parent)
			next.ServeHTTP(w, r)
			t.rec.end(id)
		})
	})
	if err != nil {
		return nil, nil, nil, err
	}
	served = make([]api.PredictResponse, len(reqs))
	for i, sql := range reqs {
		id := t.rec.begin("client.rtt", i, 0)
		cur.Store(&inflight{req: i, parent: id})
		status, body, err := tw.c.post(sql)
		t.rec.end(id)
		if err != nil || status != http.StatusOK {
			return nil, nil, nil, fmt.Errorf("traced socket pass: status %d %s: %v", status, body, err)
		}
		if err := json.Unmarshal(body, &served[i]); err != nil {
			return nil, nil, nil, fmt.Errorf("traced socket pass: %w", err)
		}
	}
	if err := tw.close(); err != nil {
		return nil, nil, nil, err
	}
	handlerOf = make([]int, len(reqs))
	for _, s := range t.rec.spans {
		switch s.Name {
		case "serve.handler":
			handlerOf[s.Req] = s.ID
		case "client.rtt":
			rtts = append(rtts, s.dur())
		}
	}
	return served, rtts, handlerOf, nil
}

// enginePass is rung 2: the engine's entry point, no HTTP.
func (t *servingTrace) enginePass(reqs [][]byte, served []api.PredictResponse, handlerOf []int) ([]int, error) {
	tw, err := newTwin(t.fx, t.streams(), nil)
	if err != nil {
		return nil, err
	}
	engineOf := make([]int, len(reqs))
	eng := tw.srv.Engine()
	for i, sql := range reqs {
		var p serve.Prediction
		var err error
		engineOf[i] = t.rec.call("serve.engine", i, handlerOf[i], func() { p, err = eng.PredictSQL(string(sql)) })
		if err != nil {
			return nil, fmt.Errorf("engine pass: %w", err)
		}
		if p != served[i].Prediction {
			t.fail("request %d: engine answered %+v, socket %+v", i, p, served[i].Prediction)
		}
	}
	return engineOf, tw.close()
}

// prewarmedHand returns a by-hand engine in the twins' state.
func (t *servingTrace) prewarmedHand() (*handEngine, error) {
	hand := newHandEngine(t.fx)
	for _, sql := range t.streams().prewarm(t.shards) {
		if _, err := hand.predict(string(sql), nil, 0, 0); err != nil {
			return nil, fmt.Errorf("by-hand prewarm: %w", err)
		}
	}
	hand.nTrees, hand.nNodes, hand.trees = 0, 0, nil
	return hand, nil
}

// handPass is rung 3: the JSON codec under the handler span and every stage
// of the engine by hand under the engine span.
func (t *servingTrace) handPass(reqs [][]byte, served []api.PredictResponse, handlerOf, engineOf []int) (*handEngine, error) {
	hand, err := t.prewarmedHand()
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	for i, sql := range reqs {
		body := append(append([]byte(bodyOpen), sql...), bodyClose...)
		var req api.PredictRequest
		var jerr error
		t.rec.call("api.decode", i, handlerOf[i], func() { jerr = json.Unmarshal(body, &req) })
		if jerr != nil || req.SQL != string(sql) {
			return nil, fmt.Errorf("by-hand decode of %q: got %q, %v", body, req.SQL, jerr)
		}
		p, err := hand.predict(req.SQL, t.rec, i, engineOf[i])
		if err != nil {
			return nil, fmt.Errorf("by-hand pass: %w", err)
		}
		if p != served[i].Prediction {
			t.fail("request %d: by-hand stages answered %+v, server %+v", i, p, served[i].Prediction)
		}
		t.rec.call("api.encode", i, handlerOf[i], func() {
			buf.Reset()
			jerr = json.NewEncoder(&buf).Encode(served[i])
		})
		if jerr != nil {
			return nil, jerr
		}
	}
	return hand, nil
}

// ladderMetrics turns the spans recorded so far into the per-request ladder
// metrics and checks that the rungs reconcile: the three residues (the self
// times of the round trip, the handler and the engine) and the self times of
// the named stages must add up to the round trip. It returns the names of
// the metrics that are parts of the round trip.
func (t *servingTrace) ladderMetrics(n int, plain, rtts []int64) map[string]bool {
	layers := byLayer(t.rec.spans, n)
	selfUS := func(name string) float64 {
		if lt := layers[name]; lt != nil {
			return float64(lt.self) / float64(n) / 1e3
		}
		return 0
	}
	ladder := map[string]bool{}
	for _, d := range perLayer {
		// A ladder metric is named <span name>_us.
		if name, ok := strings.CutSuffix(d.Name, "_us"); ok && layers[name] != nil {
			t.vals[d.Name] = layers[name].perRequest / 1e3
			ladder[d.Name] = true
		}
	}
	stages := 0.0
	for name := range layers {
		if name != "client.rtt" && name != "serve.handler" && name != "serve.engine" {
			stages += selfUS(name)
		}
	}
	residues := 0.0
	for metric, name := range map[string]string{
		"serve.http_residue_us":  "client.rtt",
		"serve.handler_self_us":  "serve.handler",
		"serve.dispatch_wait_us": "serve.engine",
	} {
		t.vals[metric] = selfUS(name)
		ladder[metric] = true
		residues += selfUS(name)
	}
	rtt := t.vals["client.rtt_us"]
	off := (residues + stages - rtt) / rtt
	fmt.Printf("ladder: rtt %.2fus = residues %.2fus + stages %.2fus (off by %.2f%%)\n", rtt, residues, stages, 100*off)
	if off > 0.05 || off < -0.05 {
		t.fail("ladder does not reconcile")
	}

	sort.Slice(rtts, func(i, j int) bool { return rtts[i] < rtts[j] })
	sort.Slice(plain, func(i, j int) bool { return plain[i] < plain[j] })
	t.vals["client.latency_p99_us"] = float64(percentile(rtts, 99)) / 1e3
	t.vals["trace.overhead_pct"] = (float64(percentile(rtts, 50))/float64(percentile(plain, 50)) - 1) * 100
	return ladder
}

// kernelRungs times the conv stack and its GEMMs on the trees the request
// path produced, over a network of the shipped shape (the weights' values do
// not change the work, the trees' sparsity does).
func kernelRungs(fx *servingFixture, trees []*treecnn.Tree, rec *recorder, vals map[string]float64) {
	featDim := fx.pipe.Enc.FeatureDim()
	widths := modelConfig().ConvWidths
	rng := tensor.NewRNG(1)
	net := treecnn.NewNetwork(featDim, widths, rng)
	arena := tensor.NewArena(0)
	perTree := func(name string, f func(t *treecnn.Tree)) float64 {
		f(trees[0]) // grow the arena before timing
		id := rec.call(name, -1, 0, func() {
			for _, t := range trees {
				f(t)
			}
		})
		return float64(rec.spans[id-1].dur()) / float64(len(trees)) / 1e3
	}
	vals["treecnn.infer_us_per_tree"] = perTree("treecnn.infer", func(t *treecnn.Tree) {
		net.ForwardInference(t, arena)
		arena.Reset()
	})
	net.PackInt8()
	vals["treecnn.infer_int8_us_per_tree"] = perTree("treecnn.infer_int8", func(t *treecnn.Tree) {
		net.ForwardInferenceInt8(t, arena)
		arena.Reset()
	})
	w0 := tensor.New(featDim, widths[0])
	wh := tensor.New(widths[0], widths[1])
	rng.FillNorm(w0, 0, 1)
	rng.FillNorm(wh, 0, 1)
	outs := map[int]*tensor.Tensor{}
	hidden := map[int]*tensor.Tensor{}
	nonzero, total := 0, 0
	for _, t := range trees {
		n := t.Len()
		if outs[n] == nil {
			outs[n] = tensor.New(n, widths[0])
			hidden[n] = tensor.New(n, widths[1])
		}
		for _, v := range t.Feats.Data {
			if v != 0 {
				nonzero++
			}
		}
		total += len(t.Feats.Data)
	}
	vals["tensor.matmul_l0_us"] = perTree("tensor.matmul_l0", func(t *treecnn.Tree) {
		tensor.MatMulInto(outs[t.Len()], t.Feats, w0)
	})
	vals["tensor.matmul_hidden_us"] = perTree("tensor.matmul_hidden", func(t *treecnn.Tree) {
		tensor.MatMulInto(hidden[t.Len()], outs[t.Len()], wh)
	})
	vals["tensor.l0_density"] = float64(nonzero) / float64(total)
}

// batchRung times PredictInto at batch 8, the front end of each query done
// untimed, on a by-hand engine prewarmed like the batch-1 one.
func (t *servingTrace) batchRung(reqs [][]byte) error {
	const batchSize = 8
	hand, err := t.prewarmedHand()
	if err != nil {
		return err
	}
	var total int64
	queries := 0
	dst := make([]float64, batchSize)
	for lo := 0; lo+batchSize <= len(reqs); lo += batchSize {
		batch := make([]*workload.Trace, batchSize)
		for i := range batch {
			r, err := hand.frontEnd(string(reqs[lo+i]), nil, 0, 0)
			if err != nil {
				return fmt.Errorf("batch-8 front end: %w", err)
			}
			batch[i] = r.tr
		}
		id := t.rec.call("models.predict_into_b8", -1, 0, func() { hand.m.PredictInto(batch, dst) })
		hand.m.Evict(batch)
		total += t.rec.spans[id-1].dur()
		queries += batchSize
	}
	if queries > 0 {
		t.vals["models.predict_into_b8_us"] = float64(total) / float64(queries) / 1e3
	}
	return nil
}

// footprint fills the paper's batch-footprint comparison for the fixture's
// model: the sub-tree model's padded batch against a full-tree model's, which
// pads every plan to the largest recast tree in the training set.
func footprint(ts *traceSet, pipe *models.Pipeline, m *models.Prestroid, vals map[string]float64) {
	maxNodes := 0
	for _, tr := range ts.split.Train {
		if n := otp.Recast(tr.Plan).NodeCount(); n > maxNodes {
			maxNodes = n
		}
	}
	vals["models.param_count"] = float64(m.ParamCount())
	vals["models.batch_mb"] = float64(m.BatchBytes(trainBatch)) / 1e6
	vals["dataset.full_tree_batch_mb"] = float64(dataset.PaddedTreeBatchBytes(trainBatch, maxNodes, pipe.Enc.FeatureDim())) / 1e6
	vals["models.footprint_ratio"] = vals["dataset.full_tree_batch_mb"] / vals["models.batch_mb"]
}
