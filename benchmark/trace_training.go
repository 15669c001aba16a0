package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"prestroid/internal/dataset"
	"prestroid/internal/logicalplan"
	"prestroid/internal/models"
	"prestroid/internal/otp"
	"prestroid/internal/tensor"
	"prestroid/internal/treecnn"
	"prestroid/internal/word2vec"
	"prestroid/internal/workload"
)

// traceTraining is the traced run of train_epoch: one untraced job through
// train.Run for reference, then the same job unrolled by hand (generate, fit
// the pipeline, prepare, and train.Run's loop of Batches / Labels /
// TrainBatch / MSE) with a span around every call into a layer, then the conv
// stack's forward and backward timed per tree.
func traceTraining(rc runConfig) (*result, error) {
	rec := newRecorder()
	vals := map[string]float64{}
	var failed int64
	fail := func(format string, args ...any) {
		failed++
		fmt.Printf("FAILED: "+format+"\n", args...)
	}
	seconds := func(id int) float64 { return float64(rec.spans[id-1].dur()) / 1e9 }

	var ts *traceSet
	var err error
	vals["workload.generate_s"] = seconds(rec.call("workload.generate", 0, 0, func() { ts, err = newTraceSet(rc.seed, trainQueries) }))
	if err != nil {
		return nil, err
	}
	epochs := trainJobEpochs

	// The reference: untraced jobs through train.Run, as runTraining measures
	// them, over half the measured seconds.
	half := time.Duration(rc.seconds) * time.Second / 2
	timer := &stepTimer{}
	var ref jobStats
	var refTotals, refEpochs []float64
	for start := time.Now(); len(refTotals) == 0 || time.Since(start) < half; {
		ref, _ = runJob(ts, epochs, timer)
		refTotals = append(refTotals, ref.total)
		refEpochs = append(refEpochs, ref.epochS)
	}
	vals["train.job_s"] = median(refTotals)
	vals["train.epoch_s"] = median(refEpochs)
	vals["train.test_mse"] = ref.testMSE
	failed += timer.badLos

	// The same job by hand, over the other half.
	var pipe *models.Pipeline
	var m *models.Prestroid
	var handTotals, pipeS, prepS, stepS, batchingS, evalS []float64
	steps := 0
	for start, j := time.Now(), 0; j == 0 || time.Since(start) < half; j++ {
		job := rec.begin("train.job", j, 0)
		pipeS = append(pipeS, seconds(rec.call("models.build_pipeline", j, job, func() {
			pipe = models.BuildPipeline(ts.split.Train, pipelineConfig())
		})))
		m = models.NewPrestroid(modelConfig(), pipe)
		all := append(append(append([]*workload.Trace(nil), ts.split.Train...), ts.split.Val...), ts.split.Test...)
		prepS = append(prepS, seconds(rec.call("models.prepare", j, job, func() { m.Prepare(all) }))/float64(len(all)))

		rng := tensor.NewRNG(1) // train.DefaultConfig's seed
		testMSE, bestVal := 0.0, math.Inf(1)
		for e := 0; e < epochs; e++ {
			epoch := rec.begin("train.epoch", j, job)
			var batches [][]*workload.Trace
			batching := seconds(rec.call("dataset.batches", j, epoch, func() { batches = dataset.Batches(ts.split.Train, trainBatch, rng) }))
			for _, batch := range batches {
				var labels *tensor.Tensor
				batching += seconds(rec.call("dataset.labels", j, epoch, func() { labels = dataset.Labels(batch, ts.norm) }))
				var loss float64
				stepS = append(stepS, seconds(rec.call("models.train_batch", j, epoch, func() { loss = m.TrainBatch(batch, labels) })))
				steps++
				if math.IsNaN(loss) || math.IsInf(loss, 0) {
					fail("job %d epoch %d: non-finite loss", j, e+1)
				}
			}
			batchingS = append(batchingS, batching/float64(len(batches)))
			var val float64
			evalS = append(evalS, seconds(rec.call("models.eval_mse", j, epoch, func() { val = models.MSE(m, ts.split.Val, ts.norm) })))
			if val < bestVal {
				bestVal = val
				evalS = append(evalS, seconds(rec.call("models.eval_mse", j, epoch, func() { testMSE = models.MSE(m, ts.split.Test, ts.norm) })))
			}
			rec.end(epoch)
		}
		rec.end(job)
		handTotals = append(handTotals, seconds(job))
		if testMSE != ref.testMSE {
			fail("by-hand job %d reached test MSE %v, train.Run %v", j, testMSE, ref.testMSE)
		}
	}
	vals["models.build_pipeline_s"] = mean(pipeS)
	vals["models.prepare_us_per_trace"] = mean(prepS) * 1e6
	vals["models.train_batch_ms"] = mean(stepS) * 1e3
	vals["dataset.batching_us_per_batch"] = mean(batchingS) * 1e6
	vals["models.eval_mse_s"] = mean(evalS)
	// Recording against train.Run's own loop, whole jobs compared.
	vals["trace.overhead_pct"] = (median(handTotals)/median(refTotals) - 1) * 100

	// Word2Vec alone, as BuildPipeline calls it.
	plans := make([]*logicalplan.Node, len(ts.split.Train))
	for i, tr := range ts.split.Train {
		plans[i] = tr.Plan
	}
	corpus := otp.Corpus(plans)
	w2v := word2vec.DefaultConfig(pipelineConfig().Pf)
	w2v.MinCount, w2v.Epochs, w2v.Seed = pipelineConfig().MinCount, pipelineConfig().Epochs, pipelineConfig().Seed
	vals["word2vec.train_s"] = seconds(rec.call("word2vec.train", -1, 0, func() { word2vec.Train(corpus, w2v) }))

	// The conv stack both ways over the training set's trees, on a network of
	// the shipped shape: the context-keeping forward, then backward.
	var trees []*treecnn.Tree
	queries := 0
	for _, tr := range ts.split.Train {
		if len(trees) >= treesKept {
			break
		}
		trees = append(trees, m.EncodeTrace(tr).([]*treecnn.Tree)...)
		queries++
	}
	net := treecnn.NewNetwork(pipe.Enc.FeatureDim(), modelConfig().ConvWidths, tensor.NewRNG(1))
	ctxs := make([]*treecnn.Context, len(trees))
	fwd := rec.call("treecnn.forward", -1, 0, func() {
		for i, t := range trees {
			_, ctxs[i] = net.Forward(t)
		}
	})
	grad := tensor.New(1, net.OutDim())
	for i := range grad.Data {
		grad.Data[i] = 1
	}
	bwd := rec.call("treecnn.backward", -1, 0, func() {
		for _, c := range ctxs {
			net.Backward(c, grad)
		}
	})
	vals["treecnn.forward_us_per_tree"] = seconds(fwd) * 1e6 / float64(len(trees))
	vals["treecnn.backward_us_per_tree"] = seconds(bwd) * 1e6 / float64(len(trees))
	nodes := 0
	for _, t := range trees {
		nodes += t.Len()
	}
	vals["models.trees_per_query"] = float64(len(trees)) / float64(queries)
	vals["models.nodes_per_query"] = float64(nodes) / float64(queries)
	footprint(ts, pipe, m, vals)

	path, err := rec.write(rc.workload)
	if err != nil {
		return nil, err
	}
	printTable(fmt.Sprintf("per-layer (%d jobs of %d epochs by hand; %d spans in %s)", len(handTotals), epochs, len(rec.spans), path), perLayer, vals, nil)
	layers := byLayer(rec.spans, 1)
	fmt.Printf("by-hand job %.3fs, train.Run job %.3fs (medians of %d and %d); time by layer:\n", median(handTotals), median(refTotals), len(handTotals), len(refTotals))
	names := make([]string, 0, len(layers))
	for name := range layers {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		lt := layers[name]
		fmt.Printf("  %-24s %4d calls %9.3fs, self %9.3fs\n", name, lt.count, float64(lt.total)/1e9, float64(lt.self)/1e9)
	}

	res, err := newResult(perLayer, vals)
	if err != nil {
		return nil, err
	}
	res.Attempted = int64(steps) + timer.nSteps
	res.Failed = failed
	res.Correct = failed == 0
	return res, nil
}
