// Package prestroid's root benchmark harness regenerates every table and
// figure of the paper's evaluation (run with `go test -bench=. -benchmem`).
// Each experiment benchmark builds the shared suite once, then reports the
// runner's cost; the first iteration of model-backed benchmarks includes
// training, later iterations reuse the suite's trained-model cache. Micro
// benchmarks at the bottom profile the hot paths (tree convolution,
// sub-tree sampling, encoding, parsing).
package prestroid

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"prestroid/internal/costsim"
	"prestroid/internal/dataset"
	"prestroid/internal/experiments"
	"prestroid/internal/logicalplan"
	"prestroid/internal/models"
	"prestroid/internal/nn"
	"prestroid/internal/otp"
	"prestroid/internal/serve"
	"prestroid/internal/sqlparse"
	"prestroid/internal/subtree"
	"prestroid/internal/tensor"
	"prestroid/internal/treecnn"
	"prestroid/internal/word2vec"
	"prestroid/internal/workload"
)

var (
	suiteOnce sync.Once
	suite     *experiments.Suite
)

func benchSuite(b *testing.B) *experiments.Suite {
	b.Helper()
	suiteOnce.Do(func() {
		suite = experiments.NewSuite(experiments.TestScale())
	})
	return suite
}

func runExperiment(b *testing.B, run func(*experiments.Suite) *experiments.Table) {
	s := benchSuite(b)
	b.ResetTimer()
	var tbl *experiments.Table
	for i := 0; i < b.N; i++ {
		tbl = run(s)
	}
	b.StopTimer()
	if b.N > 0 && tbl != nil {
		b.Log("\n" + tbl.String())
	}
}

// BenchmarkTable1NewTables regenerates Table 1 (% unseen tables per window).
func BenchmarkTable1NewTables(b *testing.B) { runExperiment(b, experiments.Table1) }

// BenchmarkFig2PlanDiversity regenerates Fig 2 (node count vs depth scatter).
func BenchmarkFig2PlanDiversity(b *testing.B) { runExperiment(b, experiments.Fig2) }

// BenchmarkTable2aGrabMSE regenerates Table 2a (MSE on Grab-Traces).
func BenchmarkTable2aGrabMSE(b *testing.B) { runExperiment(b, experiments.Table2Grab) }

// BenchmarkTable2bTPCDSMSE regenerates Table 2b (MSE on TPC-DS).
func BenchmarkTable2bTPCDSMSE(b *testing.B) { runExperiment(b, experiments.Table2TPCDS) }

// BenchmarkFig5Provisioning regenerates Fig 5 (over/under provisioning).
func BenchmarkFig5Provisioning(b *testing.B) { runExperiment(b, experiments.Fig5) }

// BenchmarkFig6BatchFootprint regenerates Fig 6 (batch MB + epoch time).
func BenchmarkFig6BatchFootprint(b *testing.B) { runExperiment(b, experiments.Fig6) }

// BenchmarkFig7TrainingCost regenerates Fig 7 (training $ vs batch size).
func BenchmarkFig7TrainingCost(b *testing.B) { runExperiment(b, experiments.Fig7) }

// BenchmarkFig8LongTail regenerates Fig 8 (long-tail CDF + top-1% shares).
func BenchmarkFig8LongTail(b *testing.B) { runExperiment(b, experiments.Fig8) }

// BenchmarkFig9ScaleOut regenerates Fig 9 (epoch time vs batch per cluster).
func BenchmarkFig9ScaleOut(b *testing.B) { runExperiment(b, experiments.Fig9) }

// BenchmarkTable3Inference regenerates Table 3 (inference timings).
func BenchmarkTable3Inference(b *testing.B) { runExperiment(b, experiments.Table3) }

// BenchmarkTable4Stability regenerates Table 4 (MSE std over rounds).
func BenchmarkTable4Stability(b *testing.B) { runExperiment(b, experiments.Table4) }

// BenchmarkTable5TimeShift regenerates Table 5 (time-shifted MSE).
func BenchmarkTable5TimeShift(b *testing.B) { runExperiment(b, experiments.Table5) }

// --- micro benchmarks over the hot paths ---

func benchPlan(b *testing.B) *logicalplan.Node {
	b.Helper()
	p, err := logicalplan.PlanSQL(`SELECT a.x, COUNT(*) AS n FROM t1 a
		JOIN t2 b ON a.id = b.id JOIN t3 c ON b.id = c.id
		WHERE a.x > 5 AND b.y < 3 OR c.z = 7 GROUP BY a.x ORDER BY n DESC LIMIT 10`)
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// grabSQL returns the SQL of a 600-query Grab workload (mean ~415 bytes),
// the text the daemon lexes and parses on every template lookup and miss.
var grabSQL = sync.OnceValue(func() []string {
	cfg := workload.DefaultGrabConfig()
	cfg.Queries = 600
	traces := workload.NewGrabGenerator(cfg).Generate()
	out := make([]string, len(traces))
	for i, tr := range traces {
		out[i] = tr.SQL
	}
	return out
})

// BenchmarkSQLParse measures the front end's text stages per Grab query, one
// query per op cycling through the workload: Tokenize (the lexer alone),
// ExtractTemplate (the template-lookup pass), Parse (lex + parse) and
// PlanSQL (lex + parse + plan).
func BenchmarkSQLParse(b *testing.B) {
	pool := grabSQL()
	for _, leg := range []struct {
		name string
		run  func(string) error
	}{
		{"tokenize", func(sql string) error { _, err := sqlparse.Tokenize(sql); return err }},
		{"extract_template", func(sql string) error {
			if _, _, ok := sqlparse.ExtractTemplate(sql); !ok {
				return fmt.Errorf("template extraction failed on %q", sql)
			}
			return nil
		}},
		{"parse", func(sql string) error { _, err := sqlparse.Parse(sql); return err }},
		{"plan", func(sql string) error { _, err := logicalplan.PlanSQL(sql); return err }},
	} {
		b.Run(leg.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := leg.run(pool[i%len(pool)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGrabGenerateOne measures one unfiltered Grab draw — SQL text,
// plan and cost-model profile — cycling through the days the way the
// serving benchmark's request pools draw theirs.
func BenchmarkGrabGenerateOne(b *testing.B) {
	g := workload.NewGrabGenerator(workload.DefaultGrabConfig())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.GenerateOne(i % 61)
	}
}

// BenchmarkOTPRecast measures the §4.1 plan-to-binary-tree rewrite.
func BenchmarkOTPRecast(b *testing.B) {
	p := benchPlan(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		otp.Recast(p)
	}
}

// BenchmarkSubtreeSampling measures Algorithm 1 over a 1000-node plan.
func BenchmarkSubtreeSampling(b *testing.B) {
	plans := workload.GeneratePlanSample(workload.PlanSampleConfig{Count: 1, Seed: 5, MaxNodes: 1000, TailFraction: 1})
	root := otp.Recast(plans[0])
	cfg := subtree.Config{N: 15, C: 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := subtree.Sample(root, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTreeConvForward measures one conv stack forward over a 15-node
// sub-tree at paper-like width 512.
func BenchmarkTreeConvForward(b *testing.B) {
	rng := tensor.NewRNG(1)
	net := treecnn.NewNetwork(64, []int{512, 512, 512}, rng)
	tree := benchConvTree(15, 64, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Forward(tree)
	}
}

// BenchmarkTreeConvBackward measures the matching backward pass — pooled
// gradient down the stack plus every parameter gradient — over a training
// step's forest of that tree (stepTrees copies, a 32-query batch of nine
// sub-trees), forwarded once before the clock starts: an op is one
// Transpose, BackwardInputs for every tree and every GradTask once over the
// forest, and the benchmark reports it per tree as ns/tree.
// scripts/bench_record.sh gates ns/tree at 2.5x the forward's ns/op, one tree
// against one tree, with both run at -cpu 1, where the ratio is arithmetic
// and not how many cores the forward's GEMMs found: the pass does roughly
// twice the forward's multiply-adds, and it did ten times its work while
// layer 0 also produced an input gradient nobody read.
func BenchmarkTreeConvBackward(b *testing.B) {
	const stepTrees = 32 * 9
	rng := tensor.NewRNG(1)
	net := treecnn.NewNetwork(64, []int{512, 512, 512}, rng)
	tree := benchConvTree(15, 64, rng)
	trees := make([]*treecnn.Tree, stepTrees)
	for i := range trees {
		trees[i] = tree
	}
	var forest treecnn.Context
	forest.Reset(net, trees)
	scratch := tensor.NewArena(0)
	for ti := range trees {
		net.ForwardTrain(&forest, ti, make([]float64, net.OutDim()), scratch)
		scratch.Reset()
	}
	grad := make([]float64, net.OutDim())
	for i := range grad {
		grad[i] = 1
	}
	tasks := net.GradTasks(1)
	var wT treecnn.Transposed
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wT = net.Transpose(wT)
		for ti := range trees {
			net.BackwardInputs(&forest, ti, grad, wT)
		}
		for _, task := range tasks {
			net.AccumulateGrad(task, &forest, scratch)
			scratch.Reset()
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*stepTrees), "ns/tree")
}

// benchConvTree builds a complete n-node tree with featDim unit-normal
// features for the conv stack benchmarks.
func benchConvTree(n, featDim int, rng *tensor.RNG) *treecnn.Tree {
	tree := &treecnn.Tree{
		Feats: tensor.New(n, featDim),
		Left:  make([]int, n),
		Right: make([]int, n),
		Votes: make([]float64, n),
	}
	rng.FillNorm(tree.Feats, 0, 1)
	for i := 0; i < n; i++ {
		tree.Left[i], tree.Right[i] = -1, -1
		if 2*i+1 < n {
			tree.Left[i] = 2*i + 1
		}
		if 2*i+2 < n {
			tree.Right[i] = 2*i + 2
		}
		tree.Votes[i] = 1
	}
	return tree
}

// BenchmarkMatMul measures the 256x256 GEMM kernel under the dense layers.
func BenchmarkMatMul(b *testing.B) {
	rng := tensor.NewRNG(2)
	x := tensor.New(256, 256)
	y := tensor.New(256, 256)
	out := tensor.New(256, 256)
	rng.FillNorm(x, 0, 1)
	rng.FillNorm(y, 0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatMulInto(out, x, y)
	}
}

// BenchmarkWord2VecTrain measures predicate-embedding training on the corpus
// the benchmark's train_epoch job fits: the predicate tokens of a 640-query
// Grab split's training set (512 queries), at that job's pipeline settings
// (models.DefaultPipelineConfig(16) with MinCount 2).
func BenchmarkWord2VecTrain(b *testing.B) {
	gcfg := workload.DefaultGrabConfig()
	gcfg.Queries = 640
	split := dataset.SplitRandom(workload.NewGrabGenerator(gcfg).Generate(), 1)
	plans := make([]*logicalplan.Node, len(split.Train))
	for i, tr := range split.Train {
		plans[i] = tr.Plan
	}
	corpus := otp.Corpus(plans)
	pcfg := models.DefaultPipelineConfig(16)
	pcfg.MinCount = 2
	cfg := word2vec.DefaultConfig(pcfg.Pf)
	cfg.MinCount, cfg.Epochs, cfg.Seed = pcfg.MinCount, pcfg.Epochs, pcfg.Seed
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		word2vec.Train(corpus, cfg)
	}
}

// BenchmarkPrestroidTrainBatch measures one steady-state optimisation step of
// the sub-tree model on a 32-query batch: a few steps run first so the
// step's arenas are at their high-water mark, after which a step allocates
// little beyond the dense head's tensors (scripts/bench_record.sh holds
// allocs/op under a ceiling).
func BenchmarkPrestroidTrainBatch(b *testing.B) {
	s := benchSuite(b)
	cfg := s.PrestroidCfg(15, 9, 1)
	m := models.NewPrestroid(cfg, s.GrabPipe)
	batch := s.GrabSplit.Train[:32]
	m.Prepare(batch)
	labels := tensor.New(32, 1)
	for i := range labels.Data {
		labels.Data[i] = s.GrabNorm.Normalize(batch[i].CPUMinutes())
	}
	for i := 0; i < 5; i++ {
		m.TrainBatch(batch, labels)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.TrainBatch(batch, labels)
	}
}

// BenchmarkPaperWidthTrainBatch is BenchmarkPrestroidTrainBatch at the
// paper's width and batch size: conv 512/512/512, dense 128/64, a 64-query
// batch. ns/op is one step; rows is the step forest's node count; held-MB is
// the heap still live after a collection with the trained model alive, above
// what was live before it was built; released-MB is the same after
// Release, which drops the step memory and the prepared encodings (two
// collections each, so the slab pools' victim caches are gone too). A step
// takes about a second, so scripts/bench_record.sh's pattern leaves it out.
func BenchmarkPaperWidthTrainBatch(b *testing.B) {
	s := benchSuite(b)
	cfg := s.PrestroidCfg(15, 9, 1)
	cfg.ConvWidths = []int{512, 512, 512}
	cfg.DenseWidths = []int{128, 64}
	batch := s.GrabSplit.Train[:64]
	labels := dataset.Labels(batch, s.GrabNorm)
	var base, held, released runtime.MemStats
	collect := func(ms *runtime.MemStats) {
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(ms)
	}
	collect(&base)
	m := models.NewPrestroid(cfg, s.GrabPipe)
	rows := 0
	for _, tr := range batch {
		trees := m.EncodeTrace(tr).([]*treecnn.Tree)
		for _, t := range trees[:min(len(trees), cfg.K)] {
			rows += t.Len()
		}
		m.Recycle(trees)
	}
	m.TrainBatch(batch, labels)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.TrainBatch(batch, labels)
	}
	b.StopTimer()
	mb := func(ms runtime.MemStats) float64 {
		return float64(int64(ms.HeapAlloc)-int64(base.HeapAlloc)) / (1 << 20)
	}
	collect(&held)
	m.Release()
	collect(&released)
	runtime.KeepAlive(m)
	b.ReportMetric(float64(m.ParamCount()), "params")
	b.ReportMetric(float64(rows), "rows")
	b.ReportMetric(mb(held), "held-MB")
	b.ReportMetric(mb(released), "released-MB")
}

// BenchmarkDenseForward measures the plain dense-layer pipeline for
// reference against the tree convolution path.
func BenchmarkDenseForward(b *testing.B) {
	rng := tensor.NewRNG(4)
	net := nn.NewSequential(
		nn.NewDense(512, 128, rng),
		nn.NewReLU(),
		nn.NewDense(128, 64, rng),
		nn.NewReLU(),
		nn.NewDense(64, 1, rng),
		nn.NewSigmoid(),
	)
	x := tensor.New(64, 512)
	rng.FillNorm(x, 0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Forward(x, false)
	}
}

// BenchmarkCostProfile measures the ground-truth executor over a mid-size
// plan.
func BenchmarkCostProfile(b *testing.B) {
	est := costsim.NewEstimator(1)
	p := benchPlan(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		est.Profile(p)
	}
}

// BenchmarkAblation regenerates the design-choice ablation table.
func BenchmarkAblation(b *testing.B) { runExperiment(b, experiments.Ablation) }

// BenchmarkDatasetStats regenerates the §3.3 scale comparison.
func BenchmarkDatasetStats(b *testing.B) { runExperiment(b, experiments.DatasetStats) }

// BenchmarkSweep regenerates the §5.2 hyper-parameter grid.
func BenchmarkSweep(b *testing.B) { runExperiment(b, experiments.Sweep) }

// --- serving-engine benchmarks ---

var (
	servePredOnce sync.Once
	servePred     *serve.Predictor
)

// servePredictor trains a small Prestroid once and wraps it for serving.
func servePredictor(b *testing.B) *serve.Predictor {
	b.Helper()
	servePredOnce.Do(func() {
		cfg := workload.DefaultGrabConfig()
		cfg.Queries = 120
		traces := workload.NewGrabGenerator(cfg).Generate()
		split := dataset.SplitRandom(traces, 1)
		norm := workload.FitNormalizer(split.Train)
		pcfg := models.DefaultPipelineConfig(8)
		pcfg.MinCount = 2
		pipe := models.BuildPipeline(split.Train, pcfg)
		// Serving-default widths ({64,64,64} conv, {32,16} dense): the serve
		// benches measure the configuration the daemon actually ships, which
		// is also where the kernel-mode comparison is meaningful — at toy
		// widths the per-row fixed costs drown the projection work.
		mcfg := models.DefaultPrestroidConfig(15, 5)
		m := models.NewPrestroid(mcfg, pipe)
		m.Prepare(split.Train[:32])
		labels := dataset.Labels(split.Train[:32], norm)
		for i := 0; i < 3; i++ {
			m.TrainBatch(split.Train[:32], labels)
		}
		servePred = &serve.Predictor{Model: m, Pipe: pipe, Norm: norm}
	})
	return servePred
}

// serveTemplates is a repeated-template workload in the spirit of the Grab
// traces, where a handful of templates dominate the request stream.
var serveTemplates = []string{
	"SELECT a FROM t WHERE a > 5",
	"SELECT b FROM t WHERE b < 3 AND a > 1",
	"SELECT a FROM t JOIN u ON t.id = u.id WHERE t.a > 7",
	"SELECT a, b FROM t WHERE a > 2 ORDER BY b LIMIT 10",
	"SELECT x FROM u WHERE x = 4",
	"SELECT a FROM t WHERE a > 5 AND b < 9",
	"SELECT u.x FROM u JOIN t ON u.id = t.id WHERE u.x < 6",
	"SELECT b FROM t WHERE b > 8",
}

// driveClients drives b.N predictions through predict from 16 concurrent
// closed-loop clients, the i-th request issuing sqlFor(i).
func driveClients(b *testing.B, predict func(sql string) (serve.Prediction, error), sqlFor func(i int64) string) {
	b.Helper()
	const clients = 16
	var next int64
	var wg sync.WaitGroup
	b.ResetTimer()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := atomic.AddInt64(&next, 1) - 1
				if i >= int64(b.N) {
					return
				}
				if _, err := predict(sqlFor(i)); err != nil {
					b.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// serveClients cycles the 16 concurrent clients over the repeated-template
// workload.
func serveClients(b *testing.B, predict func(sql string) (serve.Prediction, error)) {
	driveClients(b, predict, func(i int64) string {
		return serveTemplates[i%int64(len(serveTemplates))]
	})
}

// BenchmarkServePredict drives a one-slot engine with 16 concurrent clients
// on a repeated-template workload, after checking that it and the serialised
// Predictor.PredictSQL reference return byte-identical predictions for
// identical SQL. The legs keep the names they had when a batcher coalesced
// misses, so their recorded baselines still match.
func BenchmarkServePredict(b *testing.B) {
	pred := servePredictor(b)
	cfg := serve.DefaultConfig()
	cfg.Replicas = 1
	check := serve.NewShardedEngine(pred, cfg)
	for _, sql := range serveTemplates {
		serial, err := pred.PredictSQL(sql)
		if err != nil {
			b.Fatal(err)
		}
		sharded, err := check.PredictSQL(sql)
		if err != nil {
			b.Fatal(err)
		}
		if serial != sharded {
			b.Fatalf("paths diverge for %q: serial %+v vs engine %+v", sql, serial, sharded)
		}
	}
	check.Close()

	b.Run("coalesced", func(b *testing.B) {
		eng := serve.NewShardedEngine(pred, cfg)
		defer eng.Close()
		serveClients(b, eng.PredictSQL)
	})
	// Prediction cache disabled: every request takes the miss path, answered
	// by the template cache or by a model call in the one slot, which the 16
	// clients take turns on.
	b.Run("coalesced-nocache", func(b *testing.B) {
		nocache := cfg
		nocache.CacheSize = 0
		eng := serve.NewShardedEngine(pred, nocache)
		defer eng.Close()
		serveClients(b, eng.PredictSQL)
	})
}

// BenchmarkLoneMiss times the miss path with nobody else in flight: one
// closed-loop client, prediction and template caches off, so every request
// parses, plans, encodes and runs its model call on its own goroutine.
func BenchmarkLoneMiss(b *testing.B) {
	pred := servePredictor(b)
	cfg := serve.DefaultConfig()
	cfg.CacheSize = 0
	cfg.TemplateCacheSize = 0 // every distinctSQL query shares one template
	eng := serve.NewShardedEngine(pred, cfg)
	defer eng.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.PredictSQL(distinctSQL(int64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

// distinctSQL returns the i-th query of a cache-defeating workload: the
// template repeats structurally but the constants never do, so canonical
// keys are all distinct and every request pays parse + encode + model.
func distinctSQL(i int64) string {
	return fmt.Sprintf(
		"SELECT a, b FROM t JOIN u ON t.id = u.id WHERE a > %d AND b < %d ORDER BY a LIMIT %d",
		i, i%97+1, i%19+1)
}

// BenchmarkShardedDistinctTemplates sweeps slot counts (Config.Replicas)
// over the all-distinct-template workload — the hard case where the
// prediction cache absorbs nothing and every query runs the full model. With
// one slot, throughput is capped at one model call at a time no matter how
// many cores the host has; with N slots up to N calls run at once on the one
// model, so cache-miss-heavy QPS scales with cores. On a single-core host
// the sweep degrades gracefully to replicas=1 throughput. The Sharded* names
// are historical: the legs keep them so their recorded baselines still
// match.
func BenchmarkShardedDistinctTemplates(b *testing.B) {
	pred := servePredictor(b)
	for _, replicas := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("replicas=%d", replicas), func(b *testing.B) {
			cfg := serve.DefaultConfig()
			cfg.Replicas = replicas
			cfg.CacheSize = 0 // keys never repeat; skip cache bookkeeping
			// Zero-reuse baseline: with the sub-tree cache on, the OOV
			// fallback makes unseen constants featurize identically, so even
			// "distinct" constants would replay pooled conv outputs — and the
			// shared template would let the prepared-template front end skip
			// the parse+encode this benchmark exists to measure.
			cfg.SubtreeCacheSize = 0
			cfg.TemplateCacheSize = 0
			eng := serve.NewShardedEngine(pred, cfg)
			defer eng.Close()
			driveClients(b, eng.PredictSQL, distinctSQL)
		})
	}
}

// overlappingSQL returns the i-th query of a structurally-overlapping
// workload: only the LIMIT constant varies, which lands in the plan node's
// Detail field and is never featurized — so every query has a distinct
// canonical key (the prediction cache absorbs nothing) but flattens to
// identical trees, the case the sub-tree partial-result cache is built for.
func overlappingSQL(i int64) string {
	return fmt.Sprintf(
		"SELECT a, b FROM t JOIN u ON t.id = u.id WHERE a > 5 AND b < 9 ORDER BY a LIMIT %d", i+1)
}

// BenchmarkShardedOverlappingTemplates is the sub-tree cache's headline
// case against BenchmarkShardedDistinctTemplates: same prediction-cache-
// defeating setup (CacheSize 0), but the queries overlap structurally, so
// after the first miss every conv stack forward is replaced by a cache
// replay and only the dense head runs per query.
func BenchmarkShardedOverlappingTemplates(b *testing.B) {
	pred := servePredictor(b)
	for _, replicas := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("replicas=%d", replicas), func(b *testing.B) {
			cfg := serve.DefaultConfig()
			cfg.Replicas = replicas
			cfg.CacheSize = 0 // distinct canonical keys; only sub-tree reuse helps
			// The shared template would also hit the prepared-template cache;
			// off, so the win measured here is the sub-tree cache's alone.
			cfg.TemplateCacheSize = 0
			eng := serve.NewShardedEngine(pred, cfg)
			defer eng.Close()
			driveClients(b, eng.PredictSQL, overlappingSQL)
		})
	}
}

// BenchmarkFrontEnd isolates the request front end, model forward excluded.
// full is the miss path (lex, parse, plan, recast, sub-tree sample, flatten,
// encode); rebind is what a prediction costs once its template holds an
// answer — the canonical key, the template key scan and the template cache
// read on an engine whose prediction cache is off — with no parse, plan,
// encode or model. The name is the one the allocation baseline keeps.
func BenchmarkFrontEnd(b *testing.B) {
	pred := servePredictor(b)
	m, ok := pred.Model.(*models.Prestroid)
	if !ok {
		b.Fatalf("serve predictor wraps %T, want *models.Prestroid", pred.Model)
	}
	// The queries are formatted before the timer starts, so ns/op and
	// allocs/op are the front end's alone.
	pool := make([]string, 1024)
	for i := range pool {
		pool[i] = distinctSQL(int64(i))
	}
	b.Run("full", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			plan, err := logicalplan.PlanSQL(pool[i%len(pool)])
			if err != nil {
				b.Fatal(err)
			}
			m.EncodeTrace(&workload.Trace{SQL: "bench", Plan: plan, Template: -1})
		}
	})
	b.Run("rebind", func(b *testing.B) {
		// Every distinctSQL query shares one template, answered by the first.
		eng := serve.NewShardedEngine(pred, serve.Config{TemplateCacheSize: 16})
		defer eng.Close()
		if _, err := eng.PredictSQL(pool[0]); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eng.PredictSQL(pool[i%len(pool)]); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if n := eng.Snapshot().Totals().Batches; n != 1 {
			b.Fatalf("%d model calls; every query after the first should be answered by its template", n)
		}
	})
}

// BenchmarkServeEnginePaperWidth is the footprint of serving at the paper's
// width (conv 512/512/512, dense 128/64, over the fixture's pipeline): a
// Replicas: 4 engine, caches off, serves distinct misses from 16 clients,
// and retained-MB is the heap still live after a collection with the model
// and the warm engine alive, above what was live before the model was
// built. Its ns/op is a paper-width miss at four calls at once.
func BenchmarkServeEnginePaperWidth(b *testing.B) {
	fix := servePredictor(b)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	mcfg := models.DefaultPrestroidConfig(15, 5)
	mcfg.ConvWidths = []int{512, 512, 512}
	mcfg.DenseWidths = []int{128, 64}
	pred := &serve.Predictor{Model: models.NewPrestroid(mcfg, fix.Pipe), Pipe: fix.Pipe, Norm: fix.Norm}
	cfg := serve.Config{Replicas: 4}
	eng := serve.NewShardedEngine(pred, cfg)
	driveClients(b, eng.PredictSQL, distinctSQL)
	b.StopTimer()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(pred)
	runtime.KeepAlive(eng)
	b.ReportMetric(float64(int64(after.HeapAlloc)-int64(before.HeapAlloc))/(1<<20), "retained-MB")
	b.ReportMetric(float64(pred.Model.ParamCount()), "params")
}

// analyticSQL returns the i-th query of a unique-literal shared-template
// workload shaped like the paper's analytic traces: a 3-way join with a
// predicate list and GROUP BY, where only the constants vary request to
// request. Canonical keys never repeat (the prediction cache absorbs
// nothing) but every query shares one template.
func analyticSQL(i int64) string {
	return fmt.Sprintf(
		"SELECT a.x, COUNT(*) AS n FROM t1 a JOIN t2 b ON a.id = b.id "+
			"JOIN t3 c ON b.id = c.id WHERE a.x > %d AND b.y < %d AND c.z = %d "+
			"AND a.w BETWEEN %d AND %d GROUP BY a.x ORDER BY n DESC LIMIT %d",
		i, i%89+1, i%13, i%31, i%31+50, i%19+1)
}

// BenchmarkShardedTemplateCache is the prepared-template front end's
// headline comparison: the unique-literal shared-template analytic workload
// with the template cache off vs on, everything else the shipped serving
// configuration. Off, every request pays the full front-end pass and the
// model; on, every request after the template's first is answered from its
// template entry. The acceptance gate wants >= 1.5x on-over-off throughput
// under GOMAXPROCS=4 (gated by scripts/bench_record.sh), with answers
// byte-identical — which BenchmarkServePredict's cross-check and the serve
// package's property tests pin.
func BenchmarkShardedTemplateCache(b *testing.B) {
	pred := servePredictor(b)
	for _, leg := range []struct {
		name string
		size int
	}{{"off", 0}, {"on", serve.DefaultConfig().TemplateCacheSize}} {
		b.Run(leg.name, func(b *testing.B) {
			cfg := serve.DefaultConfig()
			cfg.Replicas = 4
			cfg.CacheSize = 0 // keys never repeat; skip cache bookkeeping
			cfg.TemplateCacheSize = leg.size
			eng := serve.NewShardedEngine(pred, cfg)
			defer eng.Close()
			driveClients(b, eng.PredictSQL, analyticSQL)
		})
	}
}

// BenchmarkPrestroidPredictSteady measures the steady-state arena-backed
// inference path on a single prepared trace: after warm-up the scratch
// arenas are at their high-water mark and PredictInto must report 0
// allocs/op (gated by scripts/bench_record.sh). Engines hand their sub-tree
// caches to each call and never install one, so the fixture model has none
// and every call runs the whole conv stack.
func BenchmarkPrestroidPredictSteady(b *testing.B) {
	pred := servePredictor(b)
	m, ok := pred.Model.(*models.Prestroid)
	if !ok {
		b.Fatalf("serve predictor wraps %T, want *models.Prestroid", pred.Model)
	}
	plan, err := logicalplan.PlanSQL("SELECT a FROM t WHERE a > 5 AND b < 9")
	if err != nil {
		b.Fatal(err)
	}
	batch := []*workload.Trace{{SQL: "steady", Plan: plan, Template: -1}}
	dst := make([]float64, 1)
	for i := 0; i < 3; i++ { // encode the trace, grow arenas to high water
		m.PredictInto(batch, dst)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.PredictInto(batch, dst)
	}
}
