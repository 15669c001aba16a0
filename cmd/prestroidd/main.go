// Command prestroidd runs the Fig-1 inference service: it either loads
// previously trained full bundles (written by `prestroidd -train`) or trains a
// fresh model on a synthetic workload, then serves cost predictions over
// HTTP.
//
//	prestroidd -train -bundle model.full                      # train & save a full bundle
//	prestroidd -train -bundle beta=model.full                 # train & stamp the bundle for model "beta"
//	prestroidd -train -weights gen2.bin                       # train & save the weights alone
//	prestroidd -bundle model.full                             # load & serve
//	prestroidd -bundle model.full -bundle beta=other.full     # serve two identities from one daemon
//	prestroidd                                                # train in-memory & serve
//
// A full bundle carries the whole predictor identity — feature pipeline,
// label normaliser and weights — in one artefact, and is the only form the
// daemon serves from. A weight-only artefact (-train -weights) is for POST
// /v1/reload {"weights": path}, which keeps the live pipeline and
// normaliser; -weights without -train is refused.
//
// -bundle is repeatable and accepts an optional "name=path" form: each named
// bundle becomes its own serving identity with its own engine, generation
// sequence and telemetry, addressed by the model field of /v1/predict. The
// first -bundle is the default model (the one a model-less request routes
// to); a bare path serves under the conventional name "default".
//
// Endpoints: POST /v1/predict {"sql": ..., "model": optional}, POST
// /v1/explain, GET /v1/stats (JSON counters, with a per-model section), GET
// /v1/models (every identity's roll state), GET /metrics (the same counters
// in Prometheus text exposition format — both views render one telemetry
// snapshot, see the README's observability section), GET /healthz, and the
// admin endpoints POST /v1/reload and POST /v1/models/{name}/promote|abort
// (guarded by -reload-token, or loopback-only when unset). /v1/reload
// hot-swaps a retrained bundle in without dropping traffic, always by
// swapping in a fresh engine: {"weights": path} rolls new weights under the
// live pipeline and normaliser, {"bundle": path} rolls a full bundle —
// including a pipeline with a different feature-table universe — and
// {"bundle": path, "mode": "shadow"} / {"mode": "canary", "percent": N}
// stages the bundle next to the live engine instead, to be resolved by the
// promote/abort actions (see the README Multi-model & deployments section).
//
// Inference runs through one engine per identity: -replicas sets how many
// model calls it runs at once, all on the one model — a miss runs its plan,
// encode and model call on its own handler goroutine once a slot is free —
// -cache-size the LRU budget over canonicalized SQL, -subtree-cache-size the
// budget of pooled sub-tree convolution outputs reused across structurally
// overlapping plans, and -template-cache-size the budget of template
// answers that serve every literal variant (see the serve-layer,
// performance and operations sections of the README).
//
// Overload protection is opt-in: -max-est-wait bounds the queue wait the
// service will accept before shedding with 429 + Retry-After (estimated as
// the handlers waiting for or holding a slot × EWMA per-call service
// time ÷ slots),
// -client-qps/-client-burst rate-limit each client (bearer token or remote
// IP), and clients can cap their own waits with a Request-Timeout duration
// or X-Request-Deadline RFC 3339 header — expired work is dropped without a
// model slot and answered 504. See the README Operations section for sizing
// these from /metrics.
//
// The Go profiling surface (net/http/pprof) is served on the same mux under
// /debug/pprof/, behind the same guard as /v1/reload: the -reload-token
// bearer credential when set, loopback-only otherwise.
//
// SIGINT/SIGTERM shut the daemon down gracefully: the HTTP server stops
// accepting work and in-flight handlers finish.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"regexp"
	"strings"
	"syscall"
	"time"

	"prestroid/internal/dataset"
	"prestroid/internal/models"
	"prestroid/internal/persist"
	"prestroid/internal/serve"
	"prestroid/internal/train"
	"prestroid/internal/workload"
)

// modelNameRE is the grammar of a serving identity name in a "name=path"
// -bundle value; anything else before the first '=' is taken to be part of a
// bare path (paths legitimately contain '=' on some filesystems).
var modelNameRE = regexp.MustCompile(`^[A-Za-z0-9_-]+$`)

// bundleSpec is one parsed -bundle value: a full-bundle path and the
// serving identity it loads into (empty = the default model).
type bundleSpec struct {
	name, path string
}

// bundleFlags collects repeated -bundle values in order; the first one is
// the daemon's default serving identity.
type bundleFlags struct {
	specs []bundleSpec
}

func (b *bundleFlags) String() string {
	parts := make([]string, len(b.specs))
	for i, s := range b.specs {
		if s.name != "" {
			parts[i] = s.name + "=" + s.path
		} else {
			parts[i] = s.path
		}
	}
	return strings.Join(parts, ",")
}

func (b *bundleFlags) Set(v string) error {
	if v == "" {
		return fmt.Errorf("empty -bundle value")
	}
	spec := bundleSpec{path: v}
	if i := strings.IndexByte(v, '='); i > 0 && modelNameRE.MatchString(v[:i]) {
		spec = bundleSpec{name: v[:i], path: v[i+1:]}
		if spec.path == "" {
			return fmt.Errorf("-bundle %s= names a model but no path", spec.name)
		}
	}
	b.specs = append(b.specs, spec)
	return nil
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	doTrain := flag.Bool("train", false, "train and save instead of serving (to -bundle, -weights or both)")
	weightPath := flag.String("weights", "", "with -train: also write the weights alone here, for POST /v1/reload {\"weights\": path}")
	var bundles bundleFlags
	flag.Var(&bundles, "bundle", "full bundle path (pipeline + normaliser + weights in one artefact); repeatable, optionally as name=path to serve several named identities — the first one is the default model")
	queries := flag.Int("queries", 600, "synthetic training queries")
	tables := flag.Int("tables", 0, "initial tables in the synthetic training catalog (0 = generator default); larger values grow the feature-table universe")
	defaults := serve.DefaultConfig()
	cacheSize := flag.Int("cache-size", defaults.CacheSize, "prediction-cache entries keyed by canonicalized SQL (0 disables)")
	subtreeCacheSize := flag.Int("subtree-cache-size", defaults.SubtreeCacheSize, "pooled sub-tree convolution outputs cached per content hash, shared by every model call (0 disables)")
	templateCacheSize := flag.Int("template-cache-size", defaults.TemplateCacheSize, "query templates cached with their answers (0 disables)")
	replicas := flag.Int("replicas", defaults.Replicas, "model calls run at once on the one served model (<=1: one at a time)")
	maxEstWait := flag.Duration("max-est-wait", 0, "bounded-latency admission target: shed with 429 once the estimated wait for a model slot (handlers waiting for or holding one × EWMA service time ÷ replicas) exceeds this (0 disables shedding)")
	clientQPS := flag.Float64("client-qps", 0, "per-client request rate on the serving endpoints, keyed by bearer token or remote IP (0 disables quotas)")
	clientBurst := flag.Int("client-burst", 10, "per-client token-bucket burst allowance (only meaningful with -client-qps)")
	reloadToken := flag.String("reload-token", "", "bearer token required on the admin surfaces (POST /v1/reload, /debug/pprof/); when empty, they are loopback-only")
	flag.Parse()

	cfg := serve.Config{CacheSize: *cacheSize,
		SubtreeCacheSize: *subtreeCacheSize, TemplateCacheSize: *templateCacheSize,
		Replicas: *replicas, MaxEstWait: *maxEstWait}
	paths := bundlePaths{weights: *weightPath, bundles: bundles.specs}
	quota := quotaConfig{qps: *clientQPS, burst: *clientBurst}
	if err := run(*addr, *doTrain, paths, *queries, *tables, cfg, *reloadToken, quota); err != nil {
		log.Fatal("prestroidd: ", err)
	}
}

// quotaConfig carries the per-client rate-limit flags into run.
type quotaConfig struct {
	qps   float64
	burst int
}

// bundlePaths names the on-disk artefacts the daemon trains into or serves
// from: full bundles (each an optional named serving identity), and the
// weight-only output of a training run.
type bundlePaths struct {
	weights string
	bundles []bundleSpec
}

// modelConfig is the fixed serving architecture; persisted weights must
// match it.
func modelConfig() models.PrestroidConfig {
	cfg := models.DefaultPrestroidConfig(15, 9)
	cfg.ConvWidths = []int{32, 32, 32}
	cfg.DenseWidths = []int{32, 16}
	cfg.LR = 5e-3
	return cfg
}

func run(addr string, doTrain bool, paths bundlePaths, queries, tables int, cfg serve.Config, reloadToken string, quota quotaConfig) error {
	var preds []serve.NamedPredictor
	switch {
	case doTrain:
		return trainAndSave(paths, queries, tables)
	case paths.weights != "":
		// Weights alone carry no pipeline or normaliser to serve with.
		return fmt.Errorf("-weights is a -train output; serve from a full bundle with -bundle")
	case len(paths.bundles) > 0:
		for _, spec := range paths.bundles {
			p, embedded, err := loadBundlePredictor(spec.path)
			if err != nil {
				return fmt.Errorf("bundle %s: %w", spec.path, err)
			}
			// An explicit name=path wins; a bare path serves under the name
			// baked into the bundle at train time (empty for old bundles,
			// which NewMultiServer maps to the default name) — the same
			// resolution order POST /v1/reload applies to a model-less roll.
			name := spec.name
			if name == "" {
				name = embedded
			}
			preds = append(preds, serve.NamedPredictor{Name: name, Pred: p})
		}
	default:
		log.Printf("no bundle paths given; training a fresh model on %d synthetic queries", queries)
		p, err := freshPredictor(queries, tables)
		if err != nil {
			return err
		}
		preds = []serve.NamedPredictor{{Pred: p}}
	}
	srv, err := serve.NewMultiServer(cfg, preds...)
	if err != nil {
		return err
	}
	defer srv.Close()
	srv.SetReloadToken(reloadToken)
	srv.SetClientQuota(quota.qps, quota.burst)
	hs := &http.Server{
		Addr:    addr,
		Handler: srv,
		// Slow-client bounds: a peer must present its header block promptly
		// and finish its (already size-capped) body within the read window.
		// No WriteTimeout — /v1/reload legitimately holds a handler for the
		// duration of a roll.
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	log.Printf("serving %s on %s (replicas %d, cache %d, subtree cache %d, template cache %d)",
		preds[0].Pred.Model.Name(), addr, srv.Engine().Shards(), cfg.CacheSize, cfg.SubtreeCacheSize, cfg.TemplateCacheSize)
	for i, en := range srv.Models().Entries() {
		role := ""
		if i == 0 {
			role = " (default)"
		}
		log.Printf("model %s%s: generation %d, %d replicas", en.Name(), role, en.Live().Generation(), en.Live().Shards())
	}
	if cfg.MaxEstWait > 0 {
		log.Printf("admission control: shedding past %s estimated wait", cfg.MaxEstWait)
	}
	if quota.qps > 0 {
		log.Printf("client quotas: %.3g qps, burst %d per bearer token or remote IP", quota.qps, quota.burst)
	}

	errCh := make(chan error, 1)
	go func() { errCh <- hs.ListenAndServe() }()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		return err
	case got := <-sig:
		log.Printf("received %s; draining in-flight requests", got)
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			return fmt.Errorf("shutdown: %w", err)
		}
		// Every model call runs on its handler's goroutine, so once Shutdown
		// has waited the handlers out no work is left anywhere.
		log.Printf("drained; exiting")
		return nil
	}
}

// buildTraining generates the workload and trains the serving model. tables
// > 0 overrides the generator's initial catalog size, growing (or shrinking)
// the feature-table universe the pipeline is fit over.
func buildTraining(queries, tables int) (*models.Pipeline, *models.Prestroid, workload.Normalizer, error) {
	cfg := workload.DefaultGrabConfig()
	cfg.Queries = queries
	if tables > 0 {
		cfg.InitialTables = tables
	}
	traces := workload.NewGrabGenerator(cfg).Generate()
	if len(traces) < queries/2 {
		return nil, nil, workload.Normalizer{}, fmt.Errorf("workload generation starved: %d traces", len(traces))
	}
	split := dataset.SplitRandom(traces, 1)
	norm := workload.FitNormalizer(split.Train)
	pcfg := models.DefaultPipelineConfig(16)
	pcfg.MinCount = 2
	pipe := models.BuildPipeline(split.Train, pcfg)
	m := models.NewPrestroid(modelConfig(), pipe)
	tcfg := train.DefaultConfig()
	tcfg.MaxEpochs = 20
	tcfg.Patience = 5
	res := train.Run(m, split, norm, tcfg)
	log.Printf("trained %s: best epoch %d, test MSE %.1f min²", m.Name(), res.BestEpoch, res.TestMSE)
	log.Printf("pipeline feature dim %d over %d tables", pipe.Enc.FeatureDim(), pipe.Enc.NumTables)
	return pipe, m, norm, nil
}

func trainAndSave(paths bundlePaths, queries, tables int) error {
	if len(paths.bundles) == 0 && paths.weights == "" {
		return fmt.Errorf("-train requires an output: -bundle, -weights or both")
	}
	if len(paths.bundles) > 1 {
		// One training run produces one artefact; a second -bundle is almost
		// certainly a serve-mode invocation missing the drop of -train.
		return fmt.Errorf("-train takes at most one -bundle output")
	}
	pipe, m, norm, err := buildTraining(queries, tables)
	if err != nil {
		return err
	}
	if len(paths.bundles) == 1 {
		spec := paths.bundles[0]
		// A named output stamps the identity into the bundle, so reloading it
		// without a model field routes to that identity.
		if err := save(spec.path, func(f *os.File) error {
			return persist.SaveFullBundle(f, pipe, norm, m, spec.name)
		}); err != nil {
			return err
		}
		target := "the default model"
		if spec.name != "" {
			target = "model " + spec.name
		}
		log.Printf("saved full bundle for %s to %s (normaliser: logmin=%.4f logmax=%.4f)",
			target, spec.path, norm.LogMin, norm.LogMax)
	}
	if paths.weights != "" {
		if err := save(paths.weights, func(f *os.File) error { return persist.SaveWeights(f, m) }); err != nil {
			return err
		}
		log.Printf("saved weights to %s", paths.weights)
	}
	return nil
}

// save creates path and writes it with write, reporting a failed close: a
// short write of a bundle must not pass for a saved one.
func save(path string, write func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// loadBundlePredictor reconstructs the whole predictor identity from one
// full bundle: the model is built off the bundle's own pipeline, which
// decides its feature dimension, and the weights are shape-validated
// against it before any is written.
func loadBundlePredictor(path string) (*serve.Predictor, string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, "", err
	}
	defer f.Close()
	fb, err := persist.DecodeFullBundle(f)
	if err != nil {
		return nil, "", err
	}
	m := models.NewPrestroid(modelConfig(), fb.Pipeline())
	if err := fb.Weights().Apply(m); err != nil {
		return nil, "", err
	}
	return &serve.Predictor{Model: m, Pipe: fb.Pipeline(), Norm: fb.Norm()}, fb.Name(), nil
}

func freshPredictor(queries, tables int) (*serve.Predictor, error) {
	pipe, m, norm, err := buildTraining(queries, tables)
	if err != nil {
		return nil, err
	}
	return &serve.Predictor{Model: m, Pipe: pipe, Norm: norm}, nil
}
