// Package models assembles the trainable cost models compared in the
// paper's evaluation: Prestroid sub-tree models (N-K-Pf), Prestroid full-tree
// models (the tree-convolution segment of Neo), the modified multi-set
// convolutional network (M-MSCN) and the word-convolution network (WCNN).
// All models implement one Model interface so the training harness and the
// experiment runners treat them uniformly.
package models

import (
	"prestroid/internal/logicalplan"
	"prestroid/internal/otp"
	"prestroid/internal/tensor"
	"prestroid/internal/word2vec"
	"prestroid/internal/workload"
)

// Model is a trainable query-cost regressor operating in the normalised
// (0,1) label space.
//
// Concurrency contract: implementations are NOT safe for concurrent use.
// Prepare, TrainBatch and Predict all mutate internal state — the per-trace
// encoding cache, and layer scratch buffers written even during
// inference-mode forward passes — so callers must serialise every call on a
// given model.
//
// Model is what training and the experiments need. Serving asks more — an
// encode and a predict of that encoding that any number of goroutines may
// call on one model at once, recycling, and RebuildWithPipeline — and states
// it as one contract of its own (internal/serve's servedModel), which
// Prestroid meets with EncodeTrace and PredictEncoded.
type Model interface {
	// Name identifies the model in experiment output.
	Name() string
	// Prepare caches per-trace encodings; it must be called with every
	// trace of one training run (train, validation and test) before the
	// run's first TrainBatch. A model may drop its encodings once the run
	// is over (Prestroid.Release) and encode a trace again when asked for it.
	Prepare(traces []*workload.Trace)
	// TrainBatch runs one optimisation step and returns the batch loss.
	TrainBatch(batch []*workload.Trace, labels *tensor.Tensor) float64
	// Predict returns (len(batch), 1) predictions without training effects.
	Predict(batch []*workload.Trace) *tensor.Tensor
	// ParamCount returns the number of trainable scalars.
	ParamCount() int
	// BatchBytes returns the padded input bytes of one batch — the paper's
	// per-batch memory-footprint metric (Fig 6).
	BatchBytes(batchSize int) int
}

// ConvCache memoises pooled tree-convolution outputs keyed by the flattened
// tree's content hash (treecnn.Tree.Hash). A model consults it on the
// inference fast paths (Prestroid.PredictInto, PredictEncoded): a hit
// replaces an entire conv stack forward over that sub-tree.
//
// Concurrency contract: unlike the model itself, a ConvCache MUST be safe
// for concurrent use — the conv workers of one call, and concurrent
// PredictEncoded calls, invoke it from several goroutines at once. Get's returned slice must stay immutable and
// valid indefinitely; Put must copy the values, whose backing slice is only
// valid for the duration of the call. Entries are only valid for the weights
// they were computed under — whoever swaps a model's weights must invalidate
// the cache before the next prediction (internal/serve never does either: a
// roll builds a new model and a new engine over new, empty caches).
type ConvCache interface {
	Get(hash uint64) ([]float64, bool)
	Put(hash uint64, pooled []float64)
}

// PipelineConfig configures the shared feature pipeline.
type PipelineConfig struct {
	Pf       int // Word2Vec feature size
	MinCount int // Word2Vec vocabulary cutoff (paper: 10)
	Epochs   int // Word2Vec epochs
	Seed     uint64
}

// DefaultPipelineConfig mirrors the paper's §4.2 settings.
func DefaultPipelineConfig(pf int) PipelineConfig {
	return PipelineConfig{Pf: pf, MinCount: 10, Epochs: 3, Seed: 1}
}

// Pipeline is the shared pre-processing state: the predicate Word2Vec model
// and the O-T-P encoder, both fit on training data only.
type Pipeline struct {
	W2V *word2vec.Model
	Enc *otp.Encoder
}

// BuildPipeline trains the Word2Vec model over the training traces'
// predicate tokens and constructs the O-T-P encoder over the training-time
// table universe.
func BuildPipeline(train []*workload.Trace, cfg PipelineConfig) *Pipeline {
	plans := make([]*logicalplan.Node, len(train))
	tables := map[string]bool{}
	for i, t := range train {
		plans[i] = t.Plan
		for _, tbl := range t.Plan.Tables() {
			tables[tbl] = true
		}
	}
	w2vCfg := word2vec.DefaultConfig(cfg.Pf)
	if cfg.MinCount > 0 {
		w2vCfg.MinCount = cfg.MinCount
	}
	if cfg.Epochs > 0 {
		w2vCfg.Epochs = cfg.Epochs
	}
	w2vCfg.Seed = cfg.Seed
	w2v := word2vec.Train(otp.Corpus(plans), w2vCfg)

	names := make([]string, 0, len(tables))
	for t := range tables {
		names = append(names, t)
	}
	return &Pipeline{W2V: w2v, Enc: otp.NewEncoder(names, w2v)}
}

// MSE computes the paper's evaluation metric: mean squared error in
// minutes², obtained by denormalising predictions and labels back to CPU
// minutes.
func MSE(m Model, traces []*workload.Trace, norm workload.Normalizer) float64 {
	if len(traces) == 0 {
		return 0
	}
	pred := m.Predict(traces)
	sum := 0.0
	for i, tr := range traces {
		p := norm.Denormalize(pred.Data[i])
		d := p - tr.CPUMinutes()
		sum += d * d
	}
	return sum / float64(len(traces))
}
