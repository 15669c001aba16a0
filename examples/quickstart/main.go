// Quickstart: generate a synthetic Presto-style workload, train a Prestroid
// sub-tree model on it, and predict the CPU cost of unseen queries — the
// whole pipeline of Fig 1 in ~60 lines of API use.
package main

import (
	"fmt"
	"sync"

	"prestroid/internal/dataset"
	"prestroid/internal/models"
	"prestroid/internal/serve"
	"prestroid/internal/train"
	"prestroid/internal/workload"
)

func main() {
	// 1. Generate a workload of executed query traces (SQL + logical plan +
	//    recorded CPU time), filtered to the paper's 1-60 minute window.
	cfg := workload.DefaultGrabConfig()
	cfg.Queries = 600
	traces := workload.NewGrabGenerator(cfg).Generate()
	fmt.Printf("generated %d traces; first query:\n  %.90s...\n\n", len(traces), traces[0].SQL)

	// 2. Split 8/1/1 and fit the label normaliser (log + min-max) on train.
	split := dataset.SplitRandom(traces, 1)
	norm := workload.FitNormalizer(split.Train)

	// 3. Build the shared pipeline: Word2Vec predicate embeddings trained on
	//    value-stripped predicate tokens, plus the O-T-P encoder.
	pcfg := models.DefaultPipelineConfig(16) // Pf = 16
	pcfg.MinCount = 2
	pipe := models.BuildPipeline(split.Train, pcfg)
	fmt.Printf("pipeline: %d predicate tokens in vocabulary, %d-dim node features\n\n",
		pipe.W2V.VocabSize(), pipe.Enc.FeatureDim())

	// 4. Configure Prestroid (N-K-Pf) = (15-9-16): sub-trees of at most 15
	//    nodes, 9 per query.
	mcfg := models.DefaultPrestroidConfig(15, 9)
	mcfg.ConvWidths = []int{32, 32, 32}
	mcfg.DenseWidths = []int{32, 16}
	mcfg.LR = 5e-3
	model := models.NewPrestroid(mcfg, pipe)
	fmt.Printf("model: %s with %d parameters\n", model.Name(), model.ParamCount())

	// 5. Train with early stopping on validation MSE.
	tcfg := train.DefaultConfig()
	tcfg.MaxEpochs = 20
	tcfg.Patience = 5
	tcfg.OnEpoch = func(epoch int, loss, valMSE float64) {
		fmt.Printf("  epoch %2d  huber %.5f  val MSE %.1f min²\n", epoch, loss, valMSE)
	}
	res := train.Run(model, split, norm, tcfg)
	fmt.Printf("\nconverged at epoch %d: test MSE %.1f min², %.0f ms/epoch\n\n",
		res.BestEpoch, res.TestMSE, float64(res.MeanEpochTime.Milliseconds()))

	// 6. Predict resource needs for unseen queries.
	fmt.Println("sample predictions (test set):")
	preds := model.Predict(split.Test[:5])
	for i, tr := range split.Test[:5] {
		fmt.Printf("  query %4d: actual %6.2f min, predicted %6.2f min\n",
			tr.ID, tr.CPUMinutes(), norm.Denormalize(preds.Data[i]))
	}

	// 7. Serve ad-hoc SQL through the inference engine — the
	//    deployment path of Fig 1. Concurrent identical misses share one
	//    model call, and repeated queries are answered from the
	//    canonicalized-SQL cache without touching the model at all.
	scfg := serve.DefaultConfig()
	eng := serve.NewShardedEngine(&serve.Predictor{Model: model, Pipe: pipe, Norm: norm}, scfg)
	defer eng.Close()
	sql := "SELECT a FROM t WHERE a > 5"
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := eng.PredictSQL(sql); err != nil {
				fmt.Println("predict:", err)
			}
		}()
	}
	wg.Wait()
	p, err := eng.PredictSQL(sql) // cache hit: identical answer, no model call
	if err != nil {
		fmt.Println("predict:", err)
		return
	}
	em := eng.Snapshot().Totals()
	fmt.Printf("\nserving engine: %q -> %.2f CPU minutes (%d plan nodes)\n", sql, p.CPUMinutes, p.PlanNodes)
	fmt.Printf("  %d queries served by %d model calls, %d cache hits\n",
		em.Coalesced+em.CacheHits, em.Batches, em.CacheHits)
}
