// Package serve implements the deployment side of Fig 1: an HTTP service
// that parses incoming SQL, runs it through the trained pipeline and model,
// and returns the predicted resource demand that the platform uses to
// provision cluster capacity before the query executes.
//
// Two inference paths exist. Predictor.PredictSQL is the serialised
// reference path: one query per model call under the predictor's mutex.
// ShardedEngine (see shard.go) is the serving path, with one shard or many: a
// dispatcher hashes canonical SQL across N shards, each an Engine (see
// batcher.go) owning its own model replica, so predict throughput scales with
// cores instead of being capped at single-replica speed. In each shard,
// handlers plan and encode concurrently while a single batcher goroutine
// coalesces everything in flight into batched PredictInto calls, with an
// LRU over canonicalised SQL absorbing repeated templates. What a served
// model must do is one contract, servedModel.
//
// Above the engines sits the model registry (see registry.go): one daemon
// hosts several named predictor identities, each with its own shard set,
// generation sequence and roll slot, routed by the model field of
// /v1/predict. A request without a model field routes to the default
// identity, byte-identical to a single-model daemon. Engines are immutable —
// one engine is one generation of one identity — so every redeployment
// (weight reload, full-bundle reload, shadow/canary promotion) is the same
// move: build the next engine beside the live one and swap the identity's
// pointer (see reload.go). The wire types live in internal/api.
package serve

import (
	"bytes"
	"context"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"prestroid/internal/api"
	"prestroid/internal/logicalplan"
	"prestroid/internal/models"
	"prestroid/internal/persist"
	"prestroid/internal/telemetry"
	"prestroid/internal/workload"
)

// Predictor bundles everything needed to cost one query: the trained model,
// its feature pipeline and the label normaliser fit on training data. The
// model must meet servedModel, which is checked where the Predictor enters
// an engine and in PredictSQL.
//
// The three fields are one predictor identity and are never reassigned once
// the predictor is serving: an engine owns its predictor for life, and a
// reload builds new predictors for a new engine (see ModelEntry) instead of
// touching this one. mu therefore only serialises model calls; reading the
// fields needs no lock.
type Predictor struct {
	Model models.Model
	Pipe  *models.Pipeline
	Norm  workload.Normalizer

	mu sync.Mutex // models are not safe for concurrent use (see models.Model)
}

// servedModel is the one contract a served model meets; models.Prestroid
// implements it. EncodeTrace is the pure per-plan encode, safe on any
// goroutine. Everything else runs on the goroutine that owns the model:
// AdoptEncoding installs an encoding, PredictInto writes one prediction per
// trace into the caller's slice, Evict drops the adopted encodings, and
// SetConvCache installs the engine's sub-tree segment. Clone builds a replica
// with the same weights (one per shard), and a roll builds the next identity
// with RebuildWithPipeline and overwrites its Weights.
type servedModel interface {
	models.Model
	persist.WeightStore
	EncodeTrace(tr *workload.Trace) any
	AdoptEncoding(tr *workload.Trace, enc any)
	PredictInto(batch []*workload.Trace, dst []float64)
	Evict(traces []*workload.Trace)
	SetConvCache(models.ConvCache)
	Clone() models.Model
	RebuildWithPipeline(pipe *models.Pipeline) (models.Model, error)
}

// served returns p's model as a servedModel, or an error naming the
// contract it does not meet.
func (p *Predictor) served() (servedModel, error) {
	m, ok := p.Model.(servedModel)
	if !ok {
		return nil, fmt.Errorf("serve: %T does not implement the serving contract (serve.servedModel)", p.Model)
	}
	return m, nil
}

// mustServe is served where a Predictor enters an engine: a model that
// cannot be served there is a programming error.
func (p *Predictor) mustServe() servedModel {
	m, err := p.served()
	if err != nil {
		panic(err)
	}
	return m
}

// Prediction is the costing result for one query; the wire shape lives in
// internal/api, aliased here so the engine layers keep their historical
// names.
type Prediction = api.Prediction

// Stats and ShardStats are the /v1/stats wire shapes (see internal/api).
type (
	Stats      = api.Stats
	ShardStats = api.ShardStats
)

// PredictSQL parses, plans, encodes and costs a single query on the
// serialised path. It exists as the correctness reference; ShardedEngine is
// the throughput path.
func (p *Predictor) PredictSQL(sql string) (Prediction, error) {
	m, err := p.served()
	if err != nil {
		return Prediction{}, err
	}
	plan, err := logicalplan.PlanSQL(sql)
	if err != nil {
		return Prediction{}, fmt.Errorf("parse: %w", err)
	}
	tr := &workload.Trace{SQL: sql, Plan: plan, Template: -1}
	return p.prediction(shapeOf(plan), p.predictTrace(m, tr, m.EncodeTrace(tr))), nil
}

// planShape is what a prediction reports of its plan: node count, depth and
// number of distinct tables. Every literal variant of a template shares it.
type planShape struct{ nodes, depth, tables int }

func shapeOf(plan *logicalplan.Node) planShape {
	return planShape{plan.NodeCount(), plan.MaxDepth(), len(plan.Tables())}
}

// prediction renders a normalised model output for a plan of the given shape
// as the wire result, denormalised with this identity's own label range.
func (p *Predictor) prediction(shape planShape, y float64) Prediction {
	return Prediction{
		CPUMinutes: p.Norm.Denormalize(y),
		Normalized: y,
		PlanNodes:  shape.nodes,
		PlanDepth:  shape.depth,
		Tables:     shape.tables,
	}
}

// predictInto is the one serialised model round trip, shared by the batcher
// and the per-query fallback: under the lock, m (p's model) adopts the
// encoding a handler built for every trace (encs[i] belongs to traces[i]),
// predicts straight into ys and evicts, so no model-owned memory escapes the
// lock. The evict and the unlock are deferred, so a panic in the model (which
// flush recovers) leaves neither an adopted encoding nor the lock behind.
func (p *Predictor) predictInto(m servedModel, traces []*workload.Trace, encs []any, ys []float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	defer m.Evict(traces)
	for i, enc := range encs {
		m.AdoptEncoding(traces[i], enc)
	}
	m.PredictInto(traces, ys)
}

// predictTrace costs one encoded trace on the serialised path the batcher
// replaces (and degrades to when closed or saturated).
func (p *Predictor) predictTrace(m servedModel, tr *workload.Trace, enc any) float64 {
	var y [1]float64
	p.predictInto(m, []*workload.Trace{tr}, []any{enc}, y[:])
	return y[0]
}

// endpoints is the server's fixed route table, which doubles as the label
// universe of the per-endpoint response-class counters.
var endpoints = []string{
	"/healthz",
	"/v1/predict",
	"/v1/explain",
	"/v1/stats",
	"/v1/models",
	"/v1/models/", // subtree pattern: per-model promote/abort actions
	"/v1/reload",
	"/metrics",
	"/debug/pprof/", // subtree pattern: every profile subpath lands here
}

// Server is the HTTP front end over the model registry. It holds no
// predictor of its own — each serving identity lives in its registry
// entry's live engine, resolved per request, since every reload or promotion
// replaces that engine wholesale. All instrumentation is
// atomic (see internal/telemetry): the request hot path acquires no mutex to
// observe a latency or bump a counter.
type Server struct {
	reg *Registry
	mux *http.ServeMux

	// reloadToken, when non-empty, is the bearer token required on the admin
	// surfaces (POST /v1/reload, POST /v1/models/{name}/..., /debug/pprof/);
	// when empty, they are restricted to loopback peers.
	reloadToken string

	// quota, when non-nil, rate-limits the serving endpoints per client
	// (bearer token, else remote IP). See SetClientQuota.
	quota *clientQuota

	tel     *telemetry.HTTPGroup
	started time.Time
}

// NewServerConfig wires the routes over a registry tuned by cfg, with pred
// registered as the default model. When cfg.Replicas > 1 and the model
// supports cloning, each identity's inference is sharded across that many
// model replicas; otherwise it runs single-shard. NewMultiServer hosts
// several identities.
func NewServerConfig(pred *Predictor, cfg Config) *Server {
	s, err := NewMultiServer(cfg, NamedPredictor{Name: api.DefaultModel, Pred: pred})
	if err != nil {
		panic(err) // unreachable: one identity cannot collide
	}
	return s
}

// NamedPredictor pairs a serving identity name with its predictor for
// NewMultiServer.
type NamedPredictor struct {
	Name string
	Pred *Predictor
}

// NewMultiServer wires the routes over a registry hosting several named
// serving identities at once. The first entry is the default model — the one
// a request without a model field routes to — and an empty name selects the
// conventional default name. Duplicate names are refused.
func NewMultiServer(cfg Config, preds ...NamedPredictor) (*Server, error) {
	if len(preds) == 0 {
		return nil, errors.New("serve: NewMultiServer needs at least one predictor")
	}
	s := &Server{
		reg:     NewRegistry(cfg),
		mux:     http.NewServeMux(),
		tel:     telemetry.NewHTTPGroup(endpoints...),
		started: time.Now(),
	}
	for _, np := range preds {
		name := np.Name
		if name == "" {
			name = api.DefaultModel
		}
		if _, err := s.reg.Add(name, np.Pred); err != nil {
			s.reg.Close()
			return nil, err
		}
	}
	s.handle("/healthz", s.handleHealth)
	s.handle("/v1/predict", s.handlePredict)
	s.handle("/v1/explain", s.handleExplain)
	s.handle("/v1/stats", s.handleStats)
	s.handle("/v1/models", s.handleModels)
	s.handle("/v1/models/", s.handleModelAction)
	s.handle("/v1/reload", s.handleReload)
	s.handle("/metrics", s.handleMetrics)
	s.handle("/debug/pprof/", s.handlePprof)
	return s, nil
}

// handle registers a route wrapped with response-class accounting: every
// response on every endpoint — including 405s and admin traffic — lands in
// the per-endpoint status counters, while the serving-only counters
// (requests, errors, latency) stay with the handlers that own them.
func (s *Server) handle(path string, h http.HandlerFunc) {
	s.mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w}
		h(sw, r)
		s.tel.Responses.Observe(path, sw.Status())
	})
}

// statusWriter captures the status code a handler wrote (200 when the
// handler wrote a body or nothing without an explicit WriteHeader).
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Status() int {
	if w.status == 0 {
		return http.StatusOK
	}
	return w.status
}

// SetReloadToken guards the admin surfaces — POST /v1/reload, the per-model
// promote/abort actions and the /debug/pprof/ profiles — with a bearer
// token; callers from any peer address may use them with the token. With no
// token set (the default), they are only accepted from loopback addresses.
func (s *Server) SetReloadToken(token string) { s.reloadToken = token }

// SetClientQuota enables per-client token-bucket quotas on the serving
// endpoints: each client — keyed by bearer token when presented, remote IP
// otherwise — accrues qps tokens per second up to burst, and a request past
// its allowance answers 429 with a Retry-After before touching the engine.
// qps <= 0 disables quotas (the default). Call before serving traffic.
func (s *Server) SetClientQuota(qps float64, burst int) {
	s.quota = newClientQuota(qps, burst)
}

// Engine exposes the default model's current live engine, e.g. for
// benchmarks (re-read it after a reload: each roll installs a new one);
// Models exposes the full registry.
func (s *Server) Engine() *ShardedEngine { return s.reg.Default().Live() }

// Models exposes the model registry, e.g. for tests driving rolls directly.
func (s *Server) Models() *Registry { return s.reg }

// Close stops every identity's engines (live and staged), flushing queued
// work first.
func (s *Server) Close() { s.reg.Close() }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// requireGET guards the read-only endpoints: anything but GET or HEAD is
// answered with 405 and an Allow header, mirroring the 405-vs-400 contract
// of the POST endpoints. HEAD stays allowed because load balancers and
// uptime probes commonly health-check with it; net/http suppresses the
// body automatically.
func requireGET(w http.ResponseWriter, r *http.Request) bool {
	if r.Method == http.MethodGet || r.Method == http.MethodHead {
		return true
	}
	w.Header().Set("Allow", "GET, HEAD")
	writeError(w, http.StatusMethodNotAllowed, api.CodeMethodNotAllowed, "method not allowed: use GET")
	return false
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if !requireGET(w, r) {
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// maxBodyBytes caps the request body of the SQL endpoints: a 1 MiB query is
// already far past anything the planner accepts, and without a bound one
// client streaming an endless body would pin a handler goroutine and its
// buffer for as long as it pleases.
const maxBodyBytes = 1 << 20

// maxReloadBodyBytes caps the /v1/reload control body, which only ever
// carries file paths and roll parameters.
const maxReloadBodyBytes = 4 << 10

// bodyBufPool recycles the read buffer of decodeJSONBody across requests:
// a per-request json.Decoder allocates its own scratch buffer every call,
// which under predict load is pure garbage. Buffers that ballooned past the
// SQL body cap are dropped rather than pooled, so one pathological request
// cannot pin a large buffer for the life of the pool.
var bodyBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// decodeJSONBody decodes a bounded JSON request body into v, mapping an
// overflow to 413 and any other malformed body to 400. The body is read
// through a pooled buffer and unmarshalled in place — no per-request decoder
// state. A predict body of the plain {"sql":"…"} shape skips encoding/json
// (see plainSQLBody).
func decodeJSONBody(w http.ResponseWriter, r *http.Request, limit int64, v any) (int, error) {
	r.Body = http.MaxBytesReader(w, r.Body, limit)
	buf := bodyBufPool.Get().(*bytes.Buffer)
	defer func() {
		if buf.Cap() <= maxBodyBytes {
			buf.Reset()
			bodyBufPool.Put(buf)
		}
	}()
	if _, err := buf.ReadFrom(r.Body); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds %d bytes", tooLarge.Limit)
		}
		return http.StatusBadRequest, fmt.Errorf("bad request body: %w", err)
	}
	if req, ok := v.(*api.PredictRequest); ok {
		if sql, ok := plainSQLBody(buf.Bytes()); ok {
			req.SQL = sql
			return 0, nil
		}
	}
	if err := json.Unmarshal(buf.Bytes(), v); err != nil {
		return http.StatusBadRequest, fmt.Errorf("bad request body: %w", err)
	}
	return 0, nil
}

// plainSQLBody reads the predict body nearly every client sends —
// {"sql":"…"} whose query is printable ASCII with no escapes — as a
// read-only scan, so the dominant request skips encoding/json's reflection.
// It accepts exactly
//
//	ws "{" ws "\"sql\"" ws ":" ws "\"" { 0x20–0x7F except '"' and '\\' } "\"" ws "}" ws
//
// (ws being JSON whitespace), for which json.Unmarshal would set SQL to the
// same bytes and nothing else. Any other body — a model key, an escape,
// another or a repeated key, a non-ASCII byte, trailing input — reports
// false and goes through json.Unmarshal, so every error stays its own.
func plainSQLBody(body []byte) (string, bool) {
	i := 0
	// next skips JSON whitespace, then lit, and reports whether lit was there.
	next := func(lit string) bool {
		i = skipJSONSpace(body, i)
		if len(body)-i < len(lit) || string(body[i:i+len(lit)]) != lit {
			return false
		}
		i += len(lit)
		return true
	}
	if !next(`{`) || !next(`"sql"`) || !next(`:`) || !next(`"`) {
		return "", false
	}
	start := i
	for ; i < len(body) && body[i] != '"'; i++ {
		if c := body[i]; c < 0x20 || c > 0x7F || c == '\\' {
			return "", false
		}
	}
	sql := body[start:i]
	if !next(`"`) || !next(`}`) || skipJSONSpace(body, i) != len(body) {
		return "", false
	}
	return string(sql), true
}

// skipJSONSpace returns the index of the first byte at or after i that is
// not JSON whitespace.
func skipJSONSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// codeForStatus maps a transport-level failure status to its envelope code —
// used where the status was decided first (body decoding, method guards).
func codeForStatus(status int) string {
	switch status {
	case http.StatusBadRequest:
		return api.CodeBadRequest
	case http.StatusMethodNotAllowed:
		return api.CodeMethodNotAllowed
	case http.StatusRequestEntityTooLarge:
		return api.CodeBodyTooLarge
	case http.StatusUnprocessableEntity:
		return api.CodeUnprocessable
	case http.StatusUnauthorized:
		return api.CodeUnauthorized
	case http.StatusForbidden:
		return api.CodeForbidden
	default:
		return api.CodeInternal
	}
}

// decodePredict extracts the query (and optional model selector) from a
// request body, returning the HTTP status to use on failure.
func decodePredict(w http.ResponseWriter, r *http.Request) (api.PredictRequest, int, error) {
	var req api.PredictRequest
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", "POST")
		return req, http.StatusMethodNotAllowed, errors.New("method not allowed: use POST")
	}
	if code, err := decodeJSONBody(w, r, maxBodyBytes, &req); err != nil {
		return req, code, err
	}
	if req.SQL == "" {
		return req, http.StatusBadRequest, errors.New("missing field: sql")
	}
	return req, 0, nil
}

// maxTimeoutSeconds is the largest plain-seconds Request-Timeout that still
// fits a time.Duration.
const maxTimeoutSeconds = float64(math.MaxInt64 / int64(time.Second))

// requestDeadline derives the per-request context from the deadline
// headers. Request-Timeout carries a relative budget — a Go duration string
// ("250ms") or a plain number of seconds ("0.25") — and X-Request-Deadline
// an absolute RFC 3339 instant; when both are present the earlier deadline
// wins. With neither header set the context is context.Background(), not the
// request's: a client hang-up must not start cancelling work that never asked
// for a deadline. A deadline context does descend from the request context,
// so a client that hangs up cancels its queued work the same way an expiry
// would.
func requestDeadline(r *http.Request) (context.Context, context.CancelFunc, error) {
	var deadline time.Time
	if v := r.Header.Get("Request-Timeout"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil {
			secs, ferr := strconv.ParseFloat(v, 64)
			// NaN, ±Inf and anything past the Duration range are refused here:
			// converting them is implementation-defined, not reliably negative.
			if ferr != nil || math.IsNaN(secs) || math.Abs(secs) > maxTimeoutSeconds {
				return nil, nil, fmt.Errorf("bad Request-Timeout header: %q", v)
			}
			d = time.Duration(secs * float64(time.Second))
		}
		if d <= 0 {
			return nil, nil, fmt.Errorf("bad Request-Timeout header: %q (want a positive duration)", v)
		}
		deadline = time.Now().Add(d)
	}
	if v := r.Header.Get("X-Request-Deadline"); v != "" {
		t, err := time.Parse(time.RFC3339Nano, v)
		if err != nil {
			return nil, nil, fmt.Errorf("bad X-Request-Deadline header: %q (want RFC 3339)", v)
		}
		if deadline.IsZero() || t.Before(deadline) {
			deadline = t
		}
	}
	if deadline.IsZero() {
		return context.Background(), func() {}, nil
	}
	ctx, cancel := context.WithDeadline(r.Context(), deadline)
	return ctx, cancel, nil
}

// clientKey identifies the requester for quota accounting: the bearer token
// when one is presented (each tenant gets its own bucket regardless of
// address), the remote IP otherwise — port excluded, so one host cannot
// mint a fresh bucket per connection.
func clientKey(r *http.Request) string {
	const bearer = "Bearer "
	if auth := r.Header.Get("Authorization"); strings.HasPrefix(auth, bearer) {
		return auth[len(bearer):]
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// throttle enforces the per-client quota on one serving request, answering
// 429 + Retry-After and reporting true when the client is out of tokens.
// It runs after the caller's Requests.Inc and deferred observe, and fails
// through s.fail, so a throttled request lands in the request total, the
// error counter, the latency histogram and the status-class counters
// exactly once — the same accounting contract as every other terminal path.
func (s *Server) throttle(w http.ResponseWriter, r *http.Request) bool {
	if s.quota == nil {
		return false
	}
	ok, retry := s.quota.Allow(clientKey(r), time.Now())
	if ok {
		return false
	}
	s.tel.Throttled.Inc()
	w.Header().Set("Retry-After", strconv.Itoa(int(retry/time.Second)))
	s.failRetry(w, http.StatusTooManyRequests, api.CodeThrottled,
		fmt.Errorf("client quota exceeded, retry in %s", retry), retry.Milliseconds())
	return true
}

// observe folds one finished request — success or failure — into the
// latency histogram, so AvgMillis and the percentiles cover every terminal
// path. It observes microseconds: cache hits routinely finish in well under
// a millisecond, and truncated milliseconds would report zero latency under
// exactly the traffic the cache is for. The observation is two atomic adds
// — no mutex on the hot path.
func (s *Server) observe(start time.Time) {
	s.tel.Latency.Observe(time.Since(start).Microseconds())
}

// resolveModel maps a request's model field to its registry entry, writing
// the 404 itself when the name is unknown. An empty name selects the default
// identity. It counts nothing: a serving handler counts its own 404 as an
// error, and admin traffic stays out of the serving counters.
func (s *Server) resolveModel(w http.ResponseWriter, name string) *ModelEntry {
	en := s.reg.Lookup(name)
	if en == nil {
		writeError(w, http.StatusNotFound, api.CodeUnknownModel,
			fmt.Sprintf("unknown model %q", name))
	}
	return en
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.tel.Requests.Inc()
	defer s.observe(start)
	if s.throttle(w, r) {
		return
	}
	// The method guard (inside decodePredict) runs before the deadline
	// headers are looked at: a GET is a 405 whatever its headers say.
	req, code, err := decodePredict(w, r)
	if err != nil {
		s.fail(w, code, codeForStatus(code), err)
		return
	}
	ctx, cancel, err := requestDeadline(r)
	if err != nil {
		s.fail(w, http.StatusBadRequest, api.CodeBadRequest, err)
		return
	}
	defer cancel()
	en := s.resolveModel(w, req.Model)
	if en == nil {
		s.tel.Errors.Inc()
		return
	}
	pred, gen, err := en.PredictSQLGenCtx(ctx, req.SQL)
	if err != nil {
		s.failPredict(w, err)
		return
	}
	// JSON has no infinity or NaN: such an answer would be a 200 with an
	// empty body, so it is the server's failure instead.
	if c := pred.CPUMinutes; math.IsInf(c, 0) || math.IsNaN(c) {
		s.fail(w, http.StatusInternalServerError, api.CodeInternal, fmt.Errorf("non-finite cpu_minutes %v", c))
		return
	}
	// Model echoes the identity only when the request named one, keeping
	// model-less responses byte-identical to the single-model daemon.
	writeJSON(w, http.StatusOK, api.PredictResponse{
		Prediction: pred, Generation: gen, Kernel: api.KernelFloat, Model: req.Model})
}

// failPredict maps an engine error onto its status: 429 + Retry-After for a
// shed query, 504 for an expired deadline, 500 for a recovered panic, 422 for
// anything the planner refused. Every arm flows through s.fail, so each
// terminal lands in the error counter and (via the caller's deferred observe
// and the handle wrapper) the latency histogram and status-class counters
// exactly once.
func (s *Server) failPredict(w http.ResponseWriter, err error) {
	var over *OverloadError
	var expired *ExpiredError
	switch {
	case errors.As(err, &over):
		retry := over.RetryAfter()
		w.Header().Set("Retry-After", strconv.Itoa(int(retry/time.Second)))
		s.failRetry(w, http.StatusTooManyRequests, api.CodeOverloaded, err, retry.Milliseconds())
	case errors.As(err, &expired):
		s.fail(w, http.StatusGatewayTimeout, api.CodeDeadlineExpired, err)
	case errors.Is(err, errPanicked):
		s.fail(w, http.StatusInternalServerError, api.CodeInternal, err)
	default:
		s.fail(w, http.StatusUnprocessableEntity, api.CodeUnprocessable, err)
	}
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.tel.Requests.Inc()
	defer s.observe(start)
	if s.throttle(w, r) {
		return
	}
	req, code, err := decodePredict(w, r)
	if err != nil {
		s.fail(w, code, codeForStatus(code), err)
		return
	}
	// Explain never runs the model, but it routes through the identity's
	// engine anyway: the template front end turns repeated explain shapes
	// into cached rebinds, and the skeletons it deposits pre-warm the same
	// per-shard segments predictions hit. A named identity is also validated
	// this way, so a typo fails loudly instead of silently explaining under
	// the default.
	en := s.resolveModel(w, req.Model)
	if en == nil {
		s.tel.Errors.Inc()
		return
	}
	plan, err := en.ExplainSQL(req.SQL)
	if err != nil {
		s.fail(w, http.StatusUnprocessableEntity, api.CodeUnprocessable, err)
		return
	}
	writeJSON(w, http.StatusOK, api.ExplainResponse{
		Plan:      plan.Explain(),
		PlanNodes: plan.NodeCount(),
		PlanDepth: plan.MaxDepth(),
		Tables:    plan.Tables(),
		Preds:     plan.Predicates(),
	})
}

// authorizeAdmin enforces the guard shared by the admin surfaces —
// /v1/reload, the per-model actions and /debug/pprof/ — with a token
// configured, the request must carry it as a bearer credential; without one,
// only loopback peers are admitted. It returns the HTTP status to use on
// rejection.
func (s *Server) authorizeAdmin(r *http.Request) (int, error) {
	if s.reloadToken != "" {
		got := r.Header.Get("Authorization")
		want := "Bearer " + s.reloadToken
		if subtle.ConstantTimeCompare([]byte(got), []byte(want)) != 1 {
			return http.StatusUnauthorized, errors.New("missing or invalid reload token")
		}
		return 0, nil
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		host = r.RemoteAddr
	}
	if ip := net.ParseIP(host); ip == nil || !ip.IsLoopback() {
		return http.StatusForbidden, errors.New("admin endpoint is restricted to loopback; start the server with a reload token to allow remote access")
	}
	return 0, nil
}

// handlePprof serves the net/http/pprof surface on the service mux, behind
// the same guard as /v1/reload: bearer token when one is configured, loopback
// peers otherwise. Profiles expose query text fragments and memory contents,
// so they get exactly the admin trust boundary, not the open serving one. The
// subtree route keeps the standard URL layout (/debug/pprof/heap,
// .../profile?seconds=30, ...) so `go tool pprof` works unchanged; named
// runtime profiles fall through to Index, which dispatches them itself.
func (s *Server) handlePprof(w http.ResponseWriter, r *http.Request) {
	if code, err := s.authorizeAdmin(r); err != nil {
		writeError(w, code, codeForStatus(code), err.Error())
		return
	}
	switch r.URL.Path {
	case "/debug/pprof/cmdline":
		pprof.Cmdline(w, r)
	case "/debug/pprof/profile":
		pprof.Profile(w, r)
	case "/debug/pprof/symbol":
		pprof.Symbol(w, r)
	case "/debug/pprof/trace":
		pprof.Trace(w, r)
	default:
		pprof.Index(w, r)
	}
}

// handleReload is the admin endpoint that rolls a retrained bundle into a
// serving identity: weight-only ({"weights": path}) or the full predictor
// identity ({"bundle": path}), straight to live by default, or staged next to
// the live engine as a shadow or canary deployment ({"mode": "shadow"} /
// {"mode": "canary", "percent": N} — full bundles only, since the staged
// engine's pipeline and normaliser come from the bundle). Either way the
// artefact becomes a new engine beside the live one; the modes differ only in
// when it is swapped in (see ModelEntry). The target identity is the request's
// model field, falling back to the name embedded in the bundle at train
// time, then to the default model. Overlapping rolls of any kind answer 409
// and a rejected bundle answers 422 with zero serving impact. Admin traffic
// is deliberately kept out of the serving counters: /v1/stats latencies and
// request totals describe prediction traffic only.
func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", "POST")
		writeError(w, http.StatusMethodNotAllowed, api.CodeMethodNotAllowed, "method not allowed: use POST")
		return
	}
	if code, err := s.authorizeAdmin(r); err != nil {
		writeError(w, code, codeForStatus(code), err.Error())
		return
	}
	var req api.ReloadRequest
	if code, err := decodeJSONBody(w, r, maxReloadBodyBytes, &req); err != nil {
		writeError(w, code, codeForStatus(code), err.Error())
		return
	}
	switch req.Mode {
	case "", api.StateShadow, api.StateCanary:
	default:
		writeError(w, http.StatusBadRequest, api.CodeBadRequest,
			fmt.Sprintf("bad mode %q: want shadow or canary (or omit for an in-place roll)", req.Mode))
		return
	}
	if req.Mode == api.StateCanary && (req.Percent < 1 || req.Percent > 99) {
		writeError(w, http.StatusBadRequest, api.CodeBadRequest,
			"canary mode needs percent in 1..99")
		return
	}
	if req.Mode != api.StateCanary && req.Percent != 0 {
		writeError(w, http.StatusBadRequest, api.CodeBadRequest,
			"percent is only meaningful with mode canary")
		return
	}
	var path, artefact string
	switch {
	case req.Weights != "" && req.Bundle != "":
		writeError(w, http.StatusBadRequest, api.CodeBadRequest, "give exactly one of: weights, bundle")
		return
	case req.Weights != "":
		if req.Mode != "" {
			writeError(w, http.StatusBadRequest, api.CodeBadRequest,
				"shadow/canary rolls need a full bundle: a staged engine cannot be built from weights alone")
			return
		}
		path, artefact = req.Weights, "weights"
	case req.Bundle != "":
		path, artefact = req.Bundle, "bundle"
	default:
		writeError(w, http.StatusBadRequest, api.CodeBadRequest, "missing field: weights or bundle")
		return
	}
	f, err := os.Open(path)
	if err != nil {
		writeError(w, http.StatusBadRequest, api.CodeBadRequest,
			fmt.Sprintf("cannot open %s bundle: %v", artefact, err))
		return
	}
	defer f.Close()

	// Resolve the target identity and run the roll. A named identity is
	// resolved before anything is decoded, so an unknown one answers 404
	// whatever the artefact holds. A model-less full bundle routes by the
	// name baked into it, so it is decoded — once — before its identity is
	// resolved.
	target := req.Model
	var en *ModelEntry
	if target != "" || artefact == "weights" {
		if en = s.resolveModel(w, target); en == nil {
			return
		}
	}
	var gen int64
	if artefact == "weights" {
		gen, err = en.ReloadWeights(f)
	} else if fb, derr := persist.DecodeFullBundle(f); derr != nil {
		// A bundle that cannot be decoded is a rejection with zero serving
		// impact, counted against the identity the request named, or the
		// default when none was (the bundle's own name is lost with the
		// failed decode). Conflict still outranks rejection: if that identity
		// is mid-roll the caller sees the 409 it would have hit had the
		// artefact been sound.
		if en == nil {
			en = s.reg.Default()
		}
		err = en.rejectBundle(derr)
	} else {
		if en == nil {
			target = fb.Name()
			if en = s.resolveModel(w, target); en == nil {
				return
			}
		}
		if req.Mode == "" {
			gen, err = en.ReloadBundle(fb)
		} else {
			gen, err = en.Stage(fb, req.Mode, req.Percent)
		}
	}
	switch {
	case errors.Is(err, ErrReloadInProgress), errors.Is(err, ErrRollPending):
		writeError(w, http.StatusConflict, api.CodeConflict, err.Error())
		return
	case err != nil:
		// The artefact was rejected while staging; nothing was built.
		writeError(w, http.StatusUnprocessableEntity, api.CodeUnprocessable, err.Error())
		return
	}
	resp := api.ReloadResponse{
		Generation: gen,
		Shards:     en.Live().Shards(),
		Mode:       artefact,
		Millis:     float64(time.Since(start).Microseconds()) / 1e3,
		Roll:       req.Mode,
		Percent:    req.Percent,
	}
	// Model is echoed only when the roll was explicitly targeted, keeping the
	// single-model daemon's response bytes unchanged.
	if target != "" {
		resp.Model = en.Name()
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleModels serves GET /v1/models: every registered identity with its
// roll state, generations and deployment counters — the read side of the
// shadow→canary→promote runbook. Read-only, so it shares the serving trust
// boundary, not the admin one.
func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	if !requireGET(w, r) {
		return
	}
	entries := s.reg.Entries()
	resp := api.ModelsResponse{Models: make([]api.ModelInfo, len(entries))}
	for i, en := range entries {
		ms := en.Snapshot()
		info := api.ModelInfo{
			Name:         ms.Name,
			State:        ms.State,
			Percent:      ms.Percent,
			Generation:   ms.Engine.Generation,
			Kernel:       api.KernelFloat,
			Replicas:     len(ms.Engine.Shards),
			Architecture: ms.Engine.ModelName,
			Parameters:   ms.Engine.Params,
			Reloads:      ms.Engine.Reloads,
			Promotions:   ms.Promotions,
			Aborts:       ms.Aborts,
			Default:      i == 0,
		}
		if ms.Staged != nil {
			info.StagedGeneration = ms.Staged.Generation
		}
		resp.Models[i] = info
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleModelAction serves POST /v1/models/{name}/promote and .../abort:
// the resolution of a staged shadow or canary roll. Promote swaps the staged
// engine live (generation strictly above the one it replaces) and retires
// the old engine; abort discards the staged engine and keeps live serving.
// Both are admin surfaces under the same guard as /v1/reload.
func (s *Server) handleModelAction(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", "POST")
		writeError(w, http.StatusMethodNotAllowed, api.CodeMethodNotAllowed, "method not allowed: use POST")
		return
	}
	if code, err := s.authorizeAdmin(r); err != nil {
		writeError(w, code, codeForStatus(code), err.Error())
		return
	}
	parts := strings.Split(strings.TrimPrefix(r.URL.Path, "/v1/models/"), "/")
	if len(parts) != 2 || parts[0] == "" {
		writeError(w, http.StatusNotFound, api.CodeBadRequest,
			"bad model action path: want /v1/models/{name}/promote or /v1/models/{name}/abort")
		return
	}
	name, action := parts[0], parts[1]
	en := s.resolveModel(w, name)
	if en == nil {
		return
	}
	var gen int64
	var err error
	switch action {
	case "promote":
		gen, err = en.Promote()
	case "abort":
		err = en.Abort()
		gen = en.Live().Generation()
	default:
		writeError(w, http.StatusNotFound, api.CodeBadRequest,
			fmt.Sprintf("unknown model action %q: want promote or abort", action))
		return
	}
	switch {
	case errors.Is(err, ErrNoStagedRoll):
		writeError(w, http.StatusConflict, api.CodeNoStagedRoll, err.Error())
		return
	case errors.Is(err, ErrReloadInProgress):
		writeError(w, http.StatusConflict, api.CodeConflict, err.Error())
		return
	case err != nil:
		writeError(w, http.StatusInternalServerError, api.CodeInternal, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, api.ModelActionResponse{Model: name, Action: action, Generation: gen})
}

// Snapshot assembles the one telemetry snapshot both operator surfaces
// render: process runtime state, front-end counters and every identity's
// per-shard groups, each counter read exactly once per call.
func (s *Server) Snapshot() telemetry.Snapshot {
	goVersion, version := telemetry.BuildInfo()
	return telemetry.Snapshot{
		UptimeSeconds: time.Since(s.started).Seconds(),
		GoVersion:     goVersion,
		Version:       version,
		Goroutines:    runtime.NumGoroutine(),
		Requests:      s.tel.Requests.Load(),
		Errors:        s.tel.Errors.Load(),
		Throttled:     s.tel.Throttled.Load(),
		Latency:       s.tel.Latency.Snapshot(),
		Responses:     s.tel.Responses.Snapshot(),
		Models:        s.reg.Snapshot(),
	}
}

// engineStatsFrom renders one engine's slice of the stats view. Totals and
// per-shard rows derive from the same per-shard reads, so the aggregate can
// never disagree with the breakdown it sits next to.
func engineStatsFrom(e telemetry.EngineSnapshot) api.EngineStats {
	tot := e.Totals()
	st := api.EngineStats{
		Batches:          tot.Batches,
		BatchHist:        batchHistLabels(tot.BatchSizes),
		CacheHits:        tot.CacheHits,
		CacheMisses:      tot.CacheMisses,
		CacheEntries:     tot.CacheEntries,
		SubtreeHits:      tot.SubtreeHits,
		SubtreeMisses:    tot.SubtreeMisses,
		SubtreeEntries:   tot.SubtreeEntries,
		SubtreeBytes:     tot.SubtreeBytes,
		TemplateHits:     tot.TemplateHits,
		TemplateMisses:   tot.TemplateMisses,
		TemplateEntries:  tot.TemplateEntries,
		TemplateBytes:    tot.TemplateBytes,
		Shed:             tot.Shed,
		Expired:          tot.Expired,
		MaxEstWaitMillis: tot.MaxEstWaitMicros / 1e3,
		WeightGeneration: e.Generation,
		Reloads:          e.Reloads,
		RejectedReloads:  e.RejectedBundles,
		Replicas:         len(e.Shards),
		ModelName:        e.ModelName,
		Params:           e.Params,
		Kernel:           api.KernelFloat,
	}
	if tot.Batches > 0 {
		st.AvgBatchSize = float64(tot.Coalesced) / float64(tot.Batches)
	}
	if lookups := tot.CacheHits + tot.CacheMisses; lookups > 0 {
		st.CacheHitRate = float64(tot.CacheHits) / float64(lookups)
	}
	if lookups := tot.SubtreeHits + tot.SubtreeMisses; lookups > 0 {
		st.SubtreeHitRate = float64(tot.SubtreeHits) / float64(lookups)
	}
	if lookups := tot.TemplateHits + tot.TemplateMisses; lookups > 0 {
		st.TemplateHitRate = float64(tot.TemplateHits) / float64(lookups)
	}
	for _, m := range e.Shards {
		sh := ShardStats{
			Shard:             m.Shard,
			Batches:           m.Batches,
			Coalesced:         m.Coalesced,
			CacheHits:         m.CacheHits,
			CacheMisses:       m.CacheMisses,
			CacheEntries:      m.CacheEntries,
			SubtreeHits:       m.SubtreeHits,
			SubtreeMisses:     m.SubtreeMisses,
			SubtreeEntries:    m.SubtreeEntries,
			SubtreeBytes:      m.SubtreeBytes,
			TemplateHits:      m.TemplateHits,
			TemplateMisses:    m.TemplateMisses,
			TemplateEntries:   m.TemplateEntries,
			TemplateBytes:     m.TemplateBytes,
			Shed:              m.Shed,
			Expired:           m.Expired,
			ServiceTimeMillis: m.ServiceTimeMicros / 1e3,
			EstWaitMillis:     m.EstWaitMicros / 1e3,
			Queued:            m.Queued,
			Generation:        m.Generation,
		}
		if m.Batches > 0 {
			sh.AvgBatchSize = float64(m.Coalesced) / float64(m.Batches)
		}
		st.Shards = append(st.Shards, sh)
	}
	return st
}

// shadowStatsFrom renders a shadow roll's delta telemetry for /v1/stats.
func shadowStatsFrom(sh telemetry.ShadowSnapshot) api.ShadowStats {
	st := api.ShadowStats{
		Mirrored:        sh.Mirrored,
		Dropped:         sh.Dropped,
		Errors:          sh.Errors,
		DeltaP99Minutes: sh.Delta.Quantile(0.99) / 1e6,
		DeltaMaxMinutes: sh.DeltaMax,
		ShadowP50Millis: sh.ShadowLatency.Quantile(0.50) / 1e3,
		ShadowP95Millis: sh.ShadowLatency.Quantile(0.95) / 1e3,
		LiveP50Millis:   sh.LiveLatency.Quantile(0.50) / 1e3,
		LiveP95Millis:   sh.LiveLatency.Quantile(0.95) / 1e3,
	}
	if sh.Mirrored > 0 {
		st.DeltaMeanMinutes = float64(sh.Delta.Sum) / 1e6 / float64(sh.Mirrored)
	}
	return st
}

// statsFromSnapshot renders the /v1/stats JSON from one snapshot: the
// historical top-level fields off the default model's live engine, plus one
// nested section per registered identity.
func statsFromSnapshot(snap telemetry.Snapshot) Stats {
	st := Stats{
		UptimeSeconds: snap.UptimeSeconds,
		GoVersion:     snap.GoVersion,
		Version:       snap.Version,
		Goroutines:    snap.Goroutines,
		Requests:      snap.Requests,
		Errors:        snap.Errors,
		Throttled:     snap.Throttled,
		TotalMillis:   snap.Latency.Sum / 1e3,
		P50Millis:     snap.Latency.Quantile(0.50) / 1e3,
		P95Millis:     snap.Latency.Quantile(0.95) / 1e3,
		P99Millis:     snap.Latency.Quantile(0.99) / 1e3,
		EngineStats:   engineStatsFrom(snap.Default().Engine),
	}
	if snap.Requests > 0 {
		st.AvgMillis = float64(snap.Latency.Sum) / 1e3 / float64(snap.Requests)
	}
	st.Models = make([]api.ModelStats, len(snap.Models))
	for i, m := range snap.Models {
		ms := api.ModelStats{
			Name:        m.Name,
			State:       m.State,
			Percent:     m.Percent,
			Promotions:  m.Promotions,
			Aborts:      m.Aborts,
			EngineStats: engineStatsFrom(m.Engine),
		}
		if m.Staged != nil {
			staged := engineStatsFrom(*m.Staged)
			ms.Staged = &staged
		}
		if m.Shadow != nil {
			shadow := shadowStatsFrom(*m.Shadow)
			ms.Shadow = &shadow
		}
		st.Models[i] = ms
	}
	return st
}

// batchHistLabels renders a batch-size histogram snapshot with the
// /v1/stats label scheme ("1", "2", "3-4", ..., "17-32", "33+"), keeping
// only non-empty buckets as the JSON view always has.
func batchHistLabels(h telemetry.HistogramSnapshot) map[string]int64 {
	out := make(map[string]int64, len(h.Counts))
	lo := int64(1)
	for i, c := range h.Counts {
		var label string
		switch {
		case i >= len(h.Bounds):
			label = strconv.FormatInt(lo, 10) + "+"
		case h.Bounds[i] == lo:
			label = strconv.FormatInt(lo, 10)
		default:
			label = strconv.FormatInt(lo, 10) + "-" + strconv.FormatInt(h.Bounds[i], 10)
		}
		if c > 0 {
			out[label] = int64(c)
		}
		if i < len(h.Bounds) {
			lo = h.Bounds[i] + 1
		}
	}
	return out
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if !requireGET(w, r) {
		return
	}
	writeJSON(w, http.StatusOK, statsFromSnapshot(s.Snapshot()))
}

// handleMetrics serves the Prometheus text exposition of the same snapshot
// /v1/stats renders as JSON.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if !requireGET(w, r) {
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	telemetry.WritePrometheus(w, s.Snapshot())
}

// fail answers a failed serving request with the unified error envelope and
// counts it on the error surface; failRetry additionally prices the retry
// (mirroring the Retry-After header the caller already set, in
// milliseconds so sub-second hints survive).
func (s *Server) fail(w http.ResponseWriter, status int, code string, err error) {
	s.tel.Errors.Inc()
	writeError(w, status, code, err.Error())
}

func (s *Server) failRetry(w http.ResponseWriter, status int, code string, err error, retryMS int64) {
	s.tel.Errors.Inc()
	writeJSON(w, status, api.ErrorResponse{Error: api.Error{
		Code: code, Message: err.Error(), RetryAfterMS: retryMS}})
}

// writeError renders the unified error envelope — the one JSON error shape
// every v1 endpoint uses on every failure path.
func writeError(w http.ResponseWriter, status int, code, message string) {
	writeJSON(w, status, api.ErrorResponse{Error: api.Error{Code: code, Message: message}})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}
