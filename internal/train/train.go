// Package train drives model optimisation the way the paper's experiments
// do: mini-batch epochs with early stopping on validation MSE, per-epoch
// wall-clock timing, and a three-round harness reporting the best score,
// its standard deviation and the highest epoch at convergence (Tables 2
// and 4).
package train

import (
	"math"
	"time"

	"prestroid/internal/dataset"
	"prestroid/internal/models"
	"prestroid/internal/tensor"
	"prestroid/internal/workload"
)

// Config controls one training run.
type Config struct {
	BatchSize int
	MaxEpochs int
	Patience  int // epochs without validation improvement before stopping
	Seed      uint64
	// Quiet disables the progress callback.
	OnEpoch func(epoch int, trainLoss, valMSE float64)
}

// DefaultConfig returns the paper's batch size 64 with CPU-scale epochs.
func DefaultConfig() Config {
	return Config{BatchSize: 64, MaxEpochs: 30, Patience: 5, Seed: 1}
}

// Result summarises one training run.
type Result struct {
	BestEpoch     int           // epoch with the lowest validation MSE (1-based)
	EpochsRun     int           // epochs actually executed
	BestValMSE    float64       // minutes²
	TestMSE       float64       // minutes², measured at the best epoch
	MeanEpochTime time.Duration // average wall-clock time per epoch
	TrainLosses   []float64     // per-epoch mean Huber loss
}

// releaser is a model that can drop its training-only memory once a run is
// over (models.Prestroid.Release).
type releaser interface{ Release() }

// Run trains m on the split with early stopping. Test MSE is evaluated at
// every validation improvement, so the reported figure corresponds to the
// early-stopped model exactly as if its weights had been checkpointed. When
// it returns, a model that can release its training memory has done so: it
// keeps what it predicts with and re-prepares traces lazily.
func Run(m models.Model, split dataset.Split, norm workload.Normalizer, cfg Config) Result {
	if r, ok := m.(releaser); ok {
		defer r.Release()
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 64
	}
	if cfg.MaxEpochs <= 0 {
		cfg.MaxEpochs = 30
	}
	if cfg.Patience <= 0 {
		cfg.Patience = 5
	}
	m.Prepare(split.Train)
	m.Prepare(split.Val)
	m.Prepare(split.Test)

	rng := tensor.NewRNG(cfg.Seed)
	res := Result{BestValMSE: math.Inf(1)}
	var totalTime time.Duration
	bad := 0
	for epoch := 1; epoch <= cfg.MaxEpochs; epoch++ {
		start := time.Now()
		totalLoss, n := 0.0, 0
		for _, batch := range dataset.Batches(split.Train, cfg.BatchSize, rng) {
			labels := dataset.Labels(batch, norm)
			totalLoss += m.TrainBatch(batch, labels)
			n++
		}
		totalTime += time.Since(start)
		res.EpochsRun = epoch
		meanLoss := totalLoss / float64(n)
		res.TrainLosses = append(res.TrainLosses, meanLoss)

		valMSE := models.MSE(m, split.Val, norm)
		if cfg.OnEpoch != nil {
			cfg.OnEpoch(epoch, meanLoss, valMSE)
		}
		if valMSE < res.BestValMSE {
			res.BestValMSE = valMSE
			res.BestEpoch = epoch
			res.TestMSE = models.MSE(m, split.Test, norm)
			bad = 0
		} else {
			bad++
			if bad >= cfg.Patience {
				break
			}
		}
	}
	if res.EpochsRun > 0 {
		res.MeanEpochTime = totalTime / time.Duration(res.EpochsRun)
	}
	return res
}

// MultiResult aggregates the paper's three-round protocol.
type MultiResult struct {
	Runs []Result
	// BestMSE is the average test MSE of the best-performing iterations
	// (the paper averages the best epochs of all rounds).
	BestMSE float64
	// StdMSE is the standard deviation of the per-round best test MSE
	// (Table 4).
	StdMSE float64
	// MaxEpoch is the highest epoch at convergence across rounds (the
	// "Epoch" column of Table 2).
	MaxEpoch int
}

// RunRounds trains freshly built models over `rounds` seeds and aggregates.
func RunRounds(build func(seed uint64) models.Model, split dataset.Split, norm workload.Normalizer, cfg Config, rounds int) MultiResult {
	if rounds <= 0 {
		rounds = 3
	}
	var mr MultiResult
	for r := 0; r < rounds; r++ {
		runCfg := cfg
		runCfg.Seed = cfg.Seed + uint64(r)*1000
		m := build(runCfg.Seed)
		res := Run(m, split, norm, runCfg)
		mr.Runs = append(mr.Runs, res)
		if res.BestEpoch > mr.MaxEpoch {
			mr.MaxEpoch = res.BestEpoch
		}
	}
	sum, sumSq := 0.0, 0.0
	for _, r := range mr.Runs {
		sum += r.TestMSE
		sumSq += r.TestMSE * r.TestMSE
	}
	n := float64(len(mr.Runs))
	mr.BestMSE = sum / n
	variance := sumSq/n - mr.BestMSE*mr.BestMSE
	if variance > 0 {
		mr.StdMSE = math.Sqrt(variance)
	}
	return mr
}
