// Package dataset prepares workload traces for model training: the paper's
// 8/1/1 train/validation/test splits (random for Grab-Traces, template-level
// for TPC-DS), label normalisation, mini-batching, and the 0-padding byte
// accounting behind the per-batch memory-footprint comparisons of Fig 6.
package dataset

import (
	"sort"

	"prestroid/internal/tensor"
	"prestroid/internal/workload"
)

// Split holds the three partitions.
type Split struct {
	Train, Val, Test []*workload.Trace
}

// SplitRandom shuffles traces and splits them 8/1/1 — the Grab-Traces
// protocol.
func SplitRandom(traces []*workload.Trace, seed uint64) Split {
	rng := tensor.NewRNG(seed)
	shuffled := append([]*workload.Trace(nil), traces...)
	rng.Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	n := len(shuffled)
	nTrain := n * 8 / 10
	nVal := n / 10
	return Split{
		Train: shuffled[:nTrain],
		Val:   shuffled[nTrain : nTrain+nVal],
		Test:  shuffled[nTrain+nVal:],
	}
}

// SplitByTemplate splits at the template level — every query of a template
// lands in the same partition, the TPC-DS protocol that prevents the model
// from seeing test-template structures during training.
func SplitByTemplate(traces []*workload.Trace, seed uint64) Split {
	byTemplate := map[int][]*workload.Trace{}
	for _, t := range traces {
		byTemplate[t.Template] = append(byTemplate[t.Template], t)
	}
	ids := make([]int, 0, len(byTemplate))
	for id := range byTemplate {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	rng := tensor.NewRNG(seed)
	rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })

	n := len(ids)
	nTrain := n * 8 / 10
	nVal := n / 10
	var s Split
	for i, id := range ids {
		switch {
		case i < nTrain:
			s.Train = append(s.Train, byTemplate[id]...)
		case i < nTrain+nVal:
			s.Val = append(s.Val, byTemplate[id]...)
		default:
			s.Test = append(s.Test, byTemplate[id]...)
		}
	}
	return s
}

// Batches partitions traces into mini-batches of at most batchSize,
// shuffling first. The final short batch is kept (TensorFlow default).
func Batches(traces []*workload.Trace, batchSize int, rng *tensor.RNG) [][]*workload.Trace {
	shuffled := append([]*workload.Trace(nil), traces...)
	if rng != nil {
		rng.Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
	}
	var out [][]*workload.Trace
	for start := 0; start < len(shuffled); start += batchSize {
		end := start + batchSize
		if end > len(shuffled) {
			end = len(shuffled)
		}
		out = append(out, shuffled[start:end])
	}
	return out
}

// Labels extracts normalised labels as a (n, 1) tensor.
func Labels(traces []*workload.Trace, norm workload.Normalizer) *tensor.Tensor {
	t := tensor.New(len(traces), 1)
	for i, tr := range traces {
		t.Data[i] = norm.Normalize(tr.CPUMinutes())
	}
	return t
}

// PaddedTreeBatchBytes computes the bytes of one padded full-tree input
// batch: features (float64) plus two child-index int32 planes, the layout a
// batched Tree CNN implementation ships to the GPU.
func PaddedTreeBatchBytes(batchSize, maxNodes, featDim int) int {
	feature := batchSize * maxNodes * featDim * 8
	structure := batchSize * maxNodes * 2 * 4
	return feature + structure
}

// PaddedSubTreeBatchBytes computes the bytes of one padded sub-tree input
// batch: K sub-trees of at most N nodes each, plus structure and vote
// planes.
func PaddedSubTreeBatchBytes(batchSize, k, n, featDim int) int {
	feature := batchSize * k * n * featDim * 8
	structure := batchSize * k * n * 2 * 4
	votes := batchSize * k * n * 8
	return feature + structure + votes
}

// PaddedSetBatchBytes computes the bytes of a padded multi-set batch (the
// M-MSCN layout): each of the named sets padded to its maximum cardinality
// with its element width.
func PaddedSetBatchBytes(batchSize int, setMax []int, setWidth []int) int {
	total := 0
	for i := range setMax {
		total += batchSize * setMax[i] * setWidth[i] * 8
	}
	return total
}

// PaddedTokenBatchBytes computes the bytes of a padded token-id batch (the
// WCNN layout): one int32 id per position.
func PaddedTokenBatchBytes(batchSize, maxLen int) int {
	return batchSize * maxLen * 4
}
