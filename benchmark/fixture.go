package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"prestroid/internal/dataset"
	"prestroid/internal/models"
	"prestroid/internal/serve"
	"prestroid/internal/sqlparse"
	"prestroid/internal/train"
	"prestroid/internal/workload"
)

// The program under test always runs the shipped configuration: the daemon's
// model shape (cmd/prestroidd modelConfig), its pipeline settings and
// serve.DefaultConfig. Workloads differ only in the inputs generated from the
// seed; nothing below is a knob.
const (
	trainBatch = 64

	// Serving fixture: the daemon's default 600-query trace set, trained for a
	// fixed number of epochs. Serving cost does not depend on how well the
	// model converged, so the epoch count is sized to the run-time budget.
	servingQueries = 600
	servingEpochs  = 2

	// train_epoch: 640 accepted queries split 512/64/64, so every training
	// step is a full batch of 64 and step latencies are one population. A job
	// is one epoch, so a run holds seven to ten of them to take a quartile of.
	trainQueries   = 640
	trainJobEpochs = 1

	hotPool     = 512   // distinct SQL strings, drawn Zipf(1.1)
	rebindPool  = 256   // templates, numeric literals re-drawn per request
	coldPool    = 16384 // structurally distinct queries, 4x every cache
	coldPrewarm = 256   // of them, from the tail, issued before anything is timed
	zipfS       = 1.1
)

func modelConfig() models.PrestroidConfig {
	cfg := models.DefaultPrestroidConfig(15, 9)
	cfg.ConvWidths = []int{32, 32, 32}
	cfg.DenseWidths = []int{32, 16}
	cfg.LR = 5e-3
	return cfg
}

func pipelineConfig() models.PipelineConfig {
	cfg := models.DefaultPipelineConfig(16)
	cfg.MinCount = 2
	return cfg
}

// traceSet is one generated workload: the accepted (1-60 CPU-minute) traces,
// their 8/1/1 split and label normaliser, plus the generator, left positioned
// after the accepted set so request pools continue the same stream over the
// same catalog.
type traceSet struct {
	gen   *workload.GrabGenerator
	split dataset.Split
	norm  workload.Normalizer
}

func newTraceSet(seed uint64, queries int) (*traceSet, error) {
	cfg := workload.DefaultGrabConfig()
	cfg.Queries = queries
	cfg.Seed = seed
	gen := workload.NewGrabGenerator(cfg)
	traces := gen.Generate()
	if len(traces) != queries {
		return nil, fmt.Errorf("workload generation starved: %d of %d traces", len(traces), queries)
	}
	split := dataset.SplitRandom(traces, 1)
	return &traceSet{gen: gen, split: split, norm: workload.FitNormalizer(split.Train)}, nil
}

// trainJob is the unit of the training workload: fit the feature pipeline,
// build the model and run train.Run for a fixed number of epochs (patience
// never triggers). wrap, when set, stands between train.Run and the model so
// the caller can observe calls.
func (ts *traceSet) trainJob(epochs int, wrap func(*models.Prestroid) models.Model, onEpoch func(int, float64, float64)) (*models.Pipeline, *models.Prestroid, train.Result) {
	pipe := models.BuildPipeline(ts.split.Train, pipelineConfig())
	m := models.NewPrestroid(modelConfig(), pipe)
	cfg := train.DefaultConfig()
	cfg.BatchSize = trainBatch
	cfg.MaxEpochs = epochs
	cfg.Patience = epochs
	cfg.OnEpoch = onEpoch
	var tm models.Model = m
	if wrap != nil {
		tm = wrap(m)
	}
	return pipe, m, train.Run(tm, ts.split, ts.norm, cfg)
}

// servingFixture is everything a serving workload needs before its server is
// built: a trained predictor identity and the request pool.
type servingFixture struct {
	ts   *traceSet
	pipe *models.Pipeline
	m    *models.Prestroid
	pool *pool
}

func newServingFixture(wl string, seed uint64) (*servingFixture, error) {
	ts, err := newTraceSet(seed, servingQueries)
	if err != nil {
		return nil, err
	}
	pipe, m, _ := ts.trainJob(servingEpochs, nil, nil)
	p, err := buildPool(wl, ts.gen)
	if err != nil {
		return nil, err
	}
	return &servingFixture{ts: ts, pipe: pipe, m: m, pool: p}, nil
}

// predictor returns a fresh predictor identity over a clone of the trained
// model, so servers and the oracle never share mutable model state.
func (f *servingFixture) predictor() *serve.Predictor {
	return &serve.Predictor{Model: f.m.Clone(), Pipe: f.pipe, Norm: f.ts.norm}
}

// pool is a workload's request universe. hot and cold issue the strings in
// sqls as they are; rebind treats each entry of tmpls as a template and
// re-draws its numeric literals per request.
type pool struct {
	sqls  []string
	tmpls []*rebindTemplate
}

// hash digests the pool so tests (and the printed report) can show that the
// same seed regenerates the same inputs.
func (p *pool) hash() uint64 {
	h := fnv.New64a()
	for _, s := range p.sqls {
		h.Write([]byte(s))
		h.Write([]byte{0})
	}
	for _, t := range p.tmpls {
		h.Write([]byte(t.sql))
		h.Write([]byte{0})
	}
	return h.Sum64()
}

// buildPool draws the workload's queries from gen. Queries must be distinct
// under the key the targeted cache uses: canonical SQL for serve_hot,
// literal-stripped template for serve_rebind and serve_cold. Draws span all
// days and keep the generator's 1% monster tail; no CPU-window filter.
func buildPool(wl string, gen *workload.GrabGenerator) (*pool, error) {
	want := map[string]int{"serve_hot": hotPool, "serve_rebind": rebindPool, "serve_cold": coldPool}[wl]
	if want == 0 {
		return nil, fmt.Errorf("no request pool for workload %q", wl)
	}
	p := &pool{}
	seen := make(map[string]bool, want)
	for day, tries := 0, 0; len(seen) < want; day, tries = day+1, tries+1 {
		if tries > 50*want {
			return nil, fmt.Errorf("%s: only %d distinct queries after %d draws", wl, len(seen), tries)
		}
		sql := gen.GenerateOne(day % 61).SQL
		if strings.ContainsAny(sql, "\"\\") {
			// The clients splice SQL into a JSON string without escaping.
			return nil, fmt.Errorf("generated SQL needs JSON escaping: %s", sql)
		}
		tkey, _, ok := sqlparse.ExtractTemplate(sql)
		if !ok {
			return nil, fmt.Errorf("generated SQL has no template: %s", sql)
		}
		key := tkey
		if wl == "serve_hot" {
			key = serve.CanonicalSQL(sql)
		}
		if seen[key] {
			continue
		}
		if wl == "serve_rebind" {
			t, err := newRebindTemplate(sql)
			if err != nil {
				return nil, err
			}
			if t == nil {
				continue // no numeric literal to re-draw
			}
			p.tmpls = append(p.tmpls, t)
		} else {
			p.sqls = append(p.sqls, sql)
		}
		seen[key] = true
	}
	if wl == "serve_hot" {
		rankByTypicalLength(p.sqls)
	}
	return p, nil
}

// rankByTypicalLength orders the hot pool so that the Zipf head (the first
// entries) holds the queries closest to the pool's median length. Request
// cost on the cache-hit path grows with SQL length and a Zipf(1.1) head of a
// few queries carries much of the traffic, so without this a seed's luck in
// which query lands first would move the workload's figures by more than any
// change to the code.
func rankByTypicalLength(sqls []string) {
	lens := make([]int, len(sqls))
	for i, s := range sqls {
		lens[i] = len(s)
	}
	sort.Ints(lens)
	mid := lens[len(lens)/2]
	sort.SliceStable(sqls, func(i, j int) bool { return abs(len(sqls[i])-mid) < abs(len(sqls[j])-mid) })
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// rebindTemplate is one query cut at its numeric literals: parts[i] is the
// text before literal i, parts[len(parts)-1] the tail.
type rebindTemplate struct {
	sql   string
	tkey  string
	parts []string
	float []bool // literal i was written with a fraction
}

// newRebindTemplate cuts sql at its numeric literals, or returns nil when it
// has none.
func newRebindTemplate(sql string) (*rebindTemplate, error) {
	tkey, _, ok := sqlparse.ExtractTemplate(sql)
	if !ok {
		return nil, fmt.Errorf("no template for %s", sql)
	}
	toks, err := sqlparse.Tokenize(sql)
	if err != nil {
		return nil, err
	}
	t := &rebindTemplate{sql: sql, tkey: tkey}
	last := 0
	for _, tok := range toks {
		if tok.Kind != sqlparse.TokNumber {
			continue
		}
		t.parts = append(t.parts, sql[last:tok.Pos])
		t.float = append(t.float, strings.Contains(tok.Text, "."))
		last = tok.Pos + len(tok.Text)
	}
	if len(t.parts) == 0 {
		return nil, nil
	}
	t.parts = append(t.parts, sql[last:])
	return t, nil
}

// redraw appends the template's SQL with every numeric literal re-drawn. The
// first literal is uniq, which the caller never repeats, so no two requests
// share a canonical key and the prediction cache cannot hit; the rest come
// from rng. All draws stay below LIMIT's integer range.
func (t *rebindTemplate) redraw(dst []byte, rng *rand.Rand, uniq int64) []byte {
	for i, part := range t.parts[:len(t.parts)-1] {
		dst = append(dst, part...)
		switch {
		case i == 0:
			dst = strconv.AppendInt(dst, uniq, 10)
		case t.float[i]:
			dst = strconv.AppendFloat(dst, float64(rng.Intn(100000))/100, 'f', 2, 64)
		default:
			dst = strconv.AppendInt(dst, int64(rng.Intn(100000)), 10)
		}
	}
	return append(dst, t.parts[len(t.parts)-1]...)
}
