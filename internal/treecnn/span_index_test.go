package treecnn_test

import (
	"testing"

	"prestroid/internal/dataset"
	"prestroid/internal/logicalplan"
	"prestroid/internal/models"
	"prestroid/internal/otp"
	"prestroid/internal/treecnn"
	"prestroid/internal/workload"
)

// TestSpanIndexMatchesFullScan checks the featurization's sparse index: the
// flatteners index only the span of each row the encoder wrote, which must
// list exactly what a scan of the whole row finds, and hash to what Rehash
// recomputes. It runs every tree the model's encode path makes for a
// generated workload — sub-tree and full-tree layouts — under the default
// encoder, MeanPooling and HashedPredicates, with an unknown table and a
// predicate none of whose tokens the Word2Vec model knows.
func TestSpanIndexMatchesFullScan(t *testing.T) {
	cfg := workload.DefaultGrabConfig()
	cfg.Queries = 120
	split := dataset.SplitRandom(workload.NewGrabGenerator(cfg).Generate(), 1)
	pcfg := models.DefaultPipelineConfig(8)
	pcfg.MinCount = 2
	pipe := models.BuildPipeline(split.Train, pcfg)

	oov, err := logicalplan.PlanSQL("SELECT x FROM zz_unknown WHERE zzq_token != 3 AND zzq_other != 7")
	if err != nil {
		t.Fatal(err)
	}
	oov.Walk(func(n *logicalplan.Node) {
		if n.Pred == nil {
			return
		}
		if _, ok := pipe.W2V.MeanVector(otp.PredTokens(n.Pred)); ok {
			t.Fatal("the out-of-vocabulary predicate has a token in the vocabulary")
		}
	})
	traces := append([]*workload.Trace{{SQL: "oov", Plan: oov, Template: -1}}, split.Train...)
	traces = append(traces, split.Test...)

	for _, mode := range []struct {
		name         string
		mean, hashed bool
	}{{"default", false, false}, {"mean-pooling", true, false}, {"hashed-predicates", false, true}} {
		enc := *pipe.Enc
		enc.MeanPooling, enc.HashedPredicates = mode.mean, mode.hashed
		p := &models.Pipeline{W2V: pipe.W2V, Enc: &enc}
		for _, k := range []int{5, 0} {
			m := models.NewPrestroid(models.DefaultPrestroidConfig(15, k), p)
			for _, tr := range traces {
				for i, tree := range m.EncodeTrace(tr).([]*treecnn.Tree) {
					if err := treecnn.CheckIndexAndHash(tree); err != nil {
						t.Fatalf("%s, K=%d, %q tree %d: %v", mode.name, k, tr.SQL, i, err)
					}
				}
			}
		}
	}
}
