package models_test

import (
	"testing"

	"prestroid/internal/dataset"
	"prestroid/internal/models"
	"prestroid/internal/train"
	"prestroid/internal/workload"
)

// TestRunReleasesTrainingMemory: a Prestroid that train.Run returns holds no
// prepared encoding and no training step, sub-tree and full-tree alike, and
// still predicts: a one-epoch run's only epoch is its best, so the test MSE
// it reports is the released model's, bit for bit.
func TestRunReleasesTrainingMemory(t *testing.T) {
	wcfg := workload.DefaultGrabConfig()
	wcfg.Queries = 120
	split := dataset.SplitRandom(workload.NewGrabGenerator(wcfg).Generate(), 1)
	norm := workload.FitNormalizer(split.Train)
	pcfg := models.DefaultPipelineConfig(8)
	pcfg.MinCount = 2
	pipe := models.BuildPipeline(split.Train, pcfg)
	for _, k := range []int{5, 0} {
		cfg := models.DefaultPrestroidConfig(15, k)
		cfg.ConvWidths = []int{12, 12}
		cfg.DenseWidths = []int{12}
		m := models.NewPrestroid(cfg, pipe)
		res := train.Run(m, split, norm, train.Config{BatchSize: 32, MaxEpochs: 1, Patience: 1})
		if n, step := m.TrainingMemory(); n != 0 || step {
			t.Fatalf("K=%d: after train.Run the model holds %d encodings (step memory %v)", k, n, step)
		}
		if got := models.MSE(m, split.Test, norm); got != res.TestMSE {
			t.Fatalf("K=%d: test MSE %v after train.Run, %v reported", k, got, res.TestMSE)
		}
	}
}
