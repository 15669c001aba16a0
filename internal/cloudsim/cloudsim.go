// Package cloudsim models the cloud side of the paper's Exp 3: Azure NC_V3
// GPU clusters with their 2021 hourly prices, a 16 GB per-GPU memory gate
// that forces large padded batches onto multi-GPU machines, the data-
// parallel scale-out penalty profiled in Fig 9 (1.62x/2.85x observed versus
// the theoretical 2x/4x), and the resulting dollar cost of training a model
// to convergence (Fig 7). experiments.Fig7 and experiments.Fig9 are its
// consumers.
package cloudsim

import (
	"errors"
	"time"
)

// Cluster is one Azure NC_V3 tier.
type Cluster struct {
	Name      string
	GPUs      int
	HourlyUSD float64
	GPUMemGB  float64
}

// NCv3Clusters returns the three tiers used in the paper with their quoted
// hourly rates ($4.23 / $8.47 / $18.63).
func NCv3Clusters() []Cluster {
	return []Cluster{
		{Name: "NC6s_V3", GPUs: 1, HourlyUSD: 4.23, GPUMemGB: 16},
		{Name: "NC12s_V3", GPUs: 2, HourlyUSD: 8.47, GPUMemGB: 16},
		{Name: "NC24s_V3", GPUs: 4, HourlyUSD: 18.63, GPUMemGB: 16},
	}
}

// scale-out efficiency measured in App B.1: at batch 128 the paper observes
// 1.62x on 2 GPUs and 2.85x on 4 versus the theoretical 2x/4x.
var gpuEfficiency = map[int]float64{1: 1.0, 2: 0.81, 4: 0.7125}

// Speedup returns the effective data-parallel speedup on g GPUs. Heavier
// models (more parameters to synchronise through the parameter server each
// epoch) lose additional efficiency.
func Speedup(gpus int, params int) float64 {
	eff, ok := gpuEfficiency[gpus]
	if !ok {
		eff = 0.7
	}
	if gpus > 1 {
		// Every additional million parameters costs ~3% efficiency.
		eff /= 1 + 0.03*float64(params)/1e6
	}
	return float64(gpus) * eff
}

// TrainingJob describes one model-training workload.
type TrainingJob struct {
	ModelName     string
	Params        int           // trainable scalars
	BatchBytes    int           // padded per-batch input bytes
	EpochTime1GPU time.Duration // single-GPU epoch time
	Epochs        int           // epochs to convergence
}

// ActivationFactor approximates how much GPU memory the framework retains
// per input byte during backpropagation (inputs, per-layer activations and
// gradients). 19x reproduces the paper's observation that full-tree models
// exhaust a 16 GB V100 at large batch sizes (Full-300 at batch 256 barely
// fits the 4-GPU tier, as in Fig 7) while sub-tree models train on a single
// GPU throughout.
const ActivationFactor = 19

// MemoryPerGPU returns the estimated GB each GPU needs for the job: the
// batch shard's activations plus the replicated model (weights + ADAM
// moments + gradients = 4 copies).
func (c Cluster) MemoryPerGPU(job TrainingJob) float64 {
	batchGB := float64(job.BatchBytes) * ActivationFactor / float64(c.GPUs) / 1e9
	modelGB := float64(job.Params) * 8 * 4 / 1e9
	return batchGB + modelGB
}

// FitsMemory reports whether the job trains without out-of-memory errors.
func (c Cluster) FitsMemory(job TrainingJob) bool {
	return c.MemoryPerGPU(job) <= c.GPUMemGB
}

// EpochTime returns the per-epoch wall time on this cluster, applying the
// data-parallel scale-out penalty.
func (c Cluster) EpochTime(job TrainingJob) time.Duration {
	sp := Speedup(c.GPUs, job.Params)
	return time.Duration(float64(job.EpochTime1GPU) / sp)
}

// TrainingCostUSD returns the dollar cost of training to convergence.
func (c Cluster) TrainingCostUSD(job TrainingJob) float64 {
	hours := c.EpochTime(job).Hours() * float64(job.Epochs)
	return hours * c.HourlyUSD
}

// ErrNoFeasibleCluster is returned when even the largest tier runs out of
// GPU memory.
var ErrNoFeasibleCluster = errors.New("cloudsim: job exceeds memory of every cluster tier")

// CheapestFeasible picks the lowest-cost cluster that fits the job in
// memory — the paper's selection rule ("the lowest possible cost among all
// clusters that permitted training with a specified batch size").
func CheapestFeasible(clusters []Cluster, job TrainingJob) (Cluster, float64, error) {
	best := -1
	bestCost := 0.0
	for i, c := range clusters {
		if !c.FitsMemory(job) {
			continue
		}
		cost := c.TrainingCostUSD(job)
		if best < 0 || cost < bestCost {
			best = i
			bestCost = cost
		}
	}
	if best < 0 {
		return Cluster{}, 0, ErrNoFeasibleCluster
	}
	return clusters[best], bestCost, nil
}
