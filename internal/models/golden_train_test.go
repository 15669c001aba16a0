package models

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"prestroid/internal/dataset"
	"prestroid/internal/workload"
)

// The training step's arithmetic is pinned, not just its accuracy: four Adam
// steps at the repository benchmark's shape (benchmark/fixture.go's trace set,
// pipeline and model configuration) must leave exactly these losses and
// weights. The constants were recorded on amd64 before layer 0 of the tree
// convolution went sparse and the backward pass parallel; other architectures
// may fuse multiply-adds, so only the cross-GOMAXPROCS comparison runs there.
var (
	goldenLosses = [4]float64{
		0.030645450933398957, 0.05577945424698124, 0.04265306201525339, 0.03106317650243053,
	}
	goldenDigests = [4]string{
		"e4a959894a8a23c6", "2d3efc55c50c2edd", "ef6d82516fcb7503", "07fb399ee613290d",
	}
)

// weightDigest is FNV-1a over the bit patterns of every trainable scalar, one
// 64-bit word per value.
func weightDigest(m *Prestroid) string {
	h := uint64(14695981039346656037)
	for _, p := range m.Weights() {
		for _, v := range p.W.Data {
			h ^= math.Float64bits(v)
			h *= 1099511628211
		}
	}
	return fmt.Sprintf("%016x", h)
}

var sharedGolden *testbed

func goldenTrainBed(t *testing.T) *testbed {
	t.Helper()
	if sharedGolden != nil {
		return sharedGolden
	}
	cfg := workload.DefaultGrabConfig()
	cfg.Queries = 640
	cfg.Seed = 1
	traces := workload.NewGrabGenerator(cfg).Generate()
	if len(traces) != 640 {
		t.Fatalf("generated %d traces, want 640", len(traces))
	}
	split := dataset.SplitRandom(traces, 1)
	pcfg := DefaultPipelineConfig(16)
	pcfg.MinCount = 2
	sharedGolden = &testbed{
		split: split,
		norm:  workload.FitNormalizer(split.Train),
		pipe:  BuildPipeline(split.Train, pcfg),
	}
	return sharedGolden
}

// goldenSteps trains a fresh model of the benchmark's shape for four steps on
// Train[64s:64(s+1)] and returns each step's loss and weight digest.
func goldenSteps(t *testing.T) (losses [4]float64, digests [4]string) {
	t.Helper()
	b := goldenTrainBed(t)
	cfg := DefaultPrestroidConfig(15, 9)
	cfg.ConvWidths = []int{32, 32, 32}
	cfg.DenseWidths = []int{32, 16}
	cfg.LR = 5e-3
	m := NewPrestroid(cfg, b.pipe)
	for s := 0; s < 4; s++ {
		batch := b.split.Train[64*s : 64*(s+1)]
		losses[s] = m.TrainBatch(batch, dataset.Labels(batch, b.norm))
		digests[s] = weightDigest(m)
	}
	return losses, digests
}

func TestTrainBatchGoldenWeights(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden constants were recorded on amd64")
	}
	losses, digests := goldenSteps(t)
	for s := range losses {
		if losses[s] != goldenLosses[s] || digests[s] != goldenDigests[s] {
			t.Errorf("step %d: loss %v digest %s, want %v %s", s, losses[s], digests[s], goldenLosses[s], goldenDigests[s])
		}
	}
}

// The backward pass fans out over GOMAXPROCS workers; every gradient element
// must still see the batch's additions in (trace, tree) order whatever the
// worker count.
func TestTrainBatchIndependentOfGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var wantL [4]float64
	var wantD [4]string
	for i, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		losses, digests := goldenSteps(t)
		if i == 0 {
			wantL, wantD = losses, digests
			continue
		}
		if losses != wantL || digests != wantD {
			t.Errorf("GOMAXPROCS=%d: losses %v digests %v, GOMAXPROCS=1 gave %v %v", procs, losses, digests, wantL, wantD)
		}
	}
}
