package main

import (
	"fmt"
	"math"
	"time"

	"prestroid/internal/models"
	"prestroid/internal/tensor"
	"prestroid/internal/workload"
)

// stepTimer wraps the model handed to train.Run so the benchmark sees every
// TrainBatch call: its duration is the training workload's operation latency
// and its loss the output check. train.Run uses only the Model interface, so
// hiding the concrete type changes nothing it does.
type stepTimer struct {
	*models.Prestroid
	steps  []int64   // ns per TrainBatch, since the last take
	losses []float64 // loss per TrainBatch, since the last take
	nSteps int64
	badLos int64 // steps whose loss was NaN or Inf
}

// take returns the step times and losses recorded since the last call.
func (t *stepTimer) take() ([]int64, []float64) {
	steps, losses := t.steps, t.losses
	t.steps, t.losses = nil, nil
	return steps, losses
}

func (t *stepTimer) TrainBatch(batch []*workload.Trace, labels *tensor.Tensor) float64 {
	t0 := time.Now()
	loss := t.Prestroid.TrainBatch(batch, labels)
	t.steps = append(t.steps, int64(time.Since(t0)))
	t.losses = append(t.losses, loss)
	t.nSteps++
	if math.IsNaN(loss) || math.IsInf(loss, 0) {
		t.badLos++
	}
	return loss
}

// jobStats is what one training job reports.
type jobStats struct {
	total    float64   // s, BuildPipeline + NewPrestroid + train.Run
	steps    []int64   // ns per TrainBatch
	stepLoss []float64 // loss per TrainBatch, in order
	epochS   float64   // s, train.Run's mean time in an epoch's training steps
	valMSE   []float64
	losses   []float64
	testMSE  float64
	batchMB  float64
}

// runJob runs one training job on ts, appending step timings to timer, and
// returns the trained model with the job's figures.
func runJob(ts *traceSet, epochs int, timer *stepTimer) (jobStats, *models.Prestroid) {
	var js jobStats
	t0 := time.Now()
	_, m, res := ts.trainJob(epochs,
		func(m *models.Prestroid) models.Model { timer.Prestroid = m; return timer },
		func(_ int, _, valMSE float64) { js.valMSE = append(js.valMSE, valMSE) })
	js.total = time.Since(t0).Seconds()
	js.steps, js.stepLoss = timer.take()
	js.epochS = res.MeanEpochTime.Seconds()
	js.losses = res.TrainLosses
	js.testMSE = res.TestMSE
	js.batchMB = float64(m.BatchBytes(trainBatch)) / 1e6
	return js, m
}

// oracleTestMSE recomputes a finished job's test MSE from its trained model
// with the harness's own arithmetic, one trace a call, so the figure
// train.Run reports is checked against predictions the harness asked for
// itself. A one-epoch job's only epoch is its best, so the model train.Run
// leaves behind is the one its test MSE was taken from.
func oracleTestMSE(ts *traceSet, m *models.Prestroid) float64 {
	sum := 0.0
	for _, tr := range ts.split.Test {
		d := ts.norm.Denormalize(m.Predict([]*workload.Trace{tr}).Data[0]) - tr.CPUMinutes()
		sum += d * d
	}
	return sum / float64(len(ts.split.Test))
}

// runTraining is the untraced run of train_epoch: identical training jobs
// over the same trace set, repeated until the measured seconds are used up.
// Training is deterministic, so every job must reach the same test MSE to the
// last bit; a job that does not is a failed operation. Whether the loss fell
// is printed, not checked: a job is one epoch of eight steps, each on another
// batch, and over 60 seeds one in twelve ended on a higher batch loss than it
// began with (and one in five with a higher training-set MSE).
func runTraining(rc runConfig) (*result, error) {
	ts, setupS, err := timedSetups(trainSetupReps, func() (*traceSet, error) { return newTraceSet(rc.seed, trainQueries) }, nil)
	if err != nil {
		return nil, err
	}
	epochs := trainJobEpochs
	timer := &stepTimer{}
	var jobs []jobStats
	var last *models.Prestroid
	start := time.Now()
	for len(jobs) == 0 || time.Since(start) < time.Duration(rc.seconds)*time.Second {
		var js jobStats
		js, last = runJob(ts, epochs, timer)
		jobs = append(jobs, js)
	}

	// A job is the training workload's window (see betterQuartile).
	var qps, meanStep []float64
	diverged := int64(0)
	for i, js := range jobs {
		qps = append(qps, float64(epochs*len(ts.split.Train))/js.total)
		meanStep = append(meanStep, meanNS(js.steps)/1e3)
		if js.testMSE != jobs[0].testMSE {
			diverged++
		}
		fmt.Printf("job %d: %.3fs, val MSE %.4f, train loss %.5f, test MSE %v min2\n", i, js.total, js.valMSE, js.losses, js.testMSE)
	}
	first := jobs[0]
	fmt.Printf("job 0 step losses %.5f\n", first.stepLoss)
	lastJob := jobs[len(jobs)-1]
	oracle := oracleTestMSE(ts, last)
	reproduced := math.Abs(oracle-lastJob.testMSE) <= 1e-9*math.Abs(oracle)
	if !reproduced {
		fmt.Printf("FAILED: job %d reported test MSE %v, its model's predictions give %v\n", len(jobs)-1, lastJob.testMSE, oracle)
	}
	if diverged+timer.badLos > 0 {
		fmt.Printf("FAILED: %d jobs diverged from job 0's test MSE, %d steps with a non-finite loss\n", diverged, timer.badLos)
	}

	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	fmt.Printf("%d jobs of %d epochs and %d steps each, qps %.1f (median %.1f), test MSE %v min2, batch %.4f MB\n",
		len(jobs), epochs, len(first.steps), qps, median(qps), first.testMSE, first.batchMB)
	vals := map[string]float64{
		"qps":             betterQuartile(qps, "higher"),
		"latency_mean_us": betterQuartile(meanStep, "lower"),
		"peak_rss_mb":     rss,
		"setup_s":         setupS,
	}
	printTable("end-to-end", endToEnd, vals, nil)
	res, err := newResult(endToEnd, vals)
	if err != nil {
		return nil, err
	}
	res.Attempted = timer.nSteps + int64(len(jobs))
	res.Failed = timer.badLos + diverged
	res.Correct = res.Failed == 0 && reproduced
	return res, nil
}
