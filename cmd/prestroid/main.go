// Command prestroid is the command-line entry point to the reproduction:
// it generates workloads, trains cost models, inspects query plans and
// regenerates every table and figure of the paper's evaluation.
//
// Usage:
//
//	prestroid experiment -id all|table1|table2a|table2b|table3|table4|table5|fig2|fig5|fig6|fig7|fig8|fig9 [-scale test|small|paper]
//	prestroid generate   -dataset grab|tpcds -n 100
//	prestroid train      -model sub-15|sub-32|full|mscn|wcnn [-scale test|small|paper]
//	prestroid explain    -query "SELECT ..."
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"prestroid/internal/experiments"
	"prestroid/internal/logicalplan"
	"prestroid/internal/otp"
	"prestroid/internal/subtree"
	"prestroid/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "experiment":
		err = runExperiment(os.Args[2:])
	case "generate":
		err = runGenerate(os.Args[2:])
	case "train":
		err = runTrain(os.Args[2:])
	case "explain":
		err = runExplain(os.Args[2:])
	case "help", "-h", "--help":
		usage()
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "prestroid:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Println(`prestroid — tree-convolution query cost estimation (SIGMOD 2021 reproduction)

subcommands:
  experiment -id <id> [-scale test|small|paper]   regenerate a paper table/figure
  generate   -dataset grab|tpcds -n <count>       print generated query traces
  train      -model <key> [-scale ...]            train one model and report MSE
  explain    -query "SELECT ..."                  show plan, tokens, O-T-P tree, sub-trees

experiment ids: table1 table2a table2b table3 table4 table5
                fig2 fig5 fig6 fig7 fig8 fig9 ablation stats sweep all`)
}

func scaleByName(name string) (experiments.Scale, error) {
	switch name {
	case "test":
		return experiments.TestScale(), nil
	case "small":
		return experiments.SmallScale(), nil
	case "paper":
		return experiments.PaperScale(), nil
	}
	return experiments.Scale{}, fmt.Errorf("unknown scale %q", name)
}

func runExperiment(args []string) error {
	fs := flag.NewFlagSet("experiment", flag.ExitOnError)
	id := fs.String("id", "all", "experiment id (table1..table5, fig2..fig9, all)")
	scaleName := fs.String("scale", "test", "test | small | paper")
	if err := fs.Parse(args); err != nil {
		return err
	}
	scale, err := scaleByName(*scaleName)
	if err != nil {
		return err
	}
	fmt.Printf("building suite at %s scale (grab=%d tpcds=%d)...\n",
		scale.Name, scale.GrabQueries, scale.TPCDSQueries)
	suite := experiments.NewSuite(scale)

	runners := map[string]func(*experiments.Suite) *experiments.Table{
		"table1":   experiments.Table1,
		"table2a":  experiments.Table2Grab,
		"table2b":  experiments.Table2TPCDS,
		"table3":   experiments.Table3,
		"table4":   experiments.Table4,
		"table5":   experiments.Table5,
		"fig2":     experiments.Fig2,
		"fig5":     experiments.Fig5,
		"fig6":     experiments.Fig6,
		"fig7":     experiments.Fig7,
		"fig8":     experiments.Fig8,
		"fig9":     experiments.Fig9,
		"ablation": experiments.Ablation,
		"stats":    experiments.DatasetStats,
		"sweep":    experiments.Sweep,
	}
	order := []string{
		"table1", "fig2", "table2a", "table2b", "fig5", "fig6", "fig7",
		"fig8", "fig9", "table3", "table4", "table5", "ablation", "stats", "sweep",
	}
	if *id != "all" {
		run, ok := runners[*id]
		if !ok {
			return fmt.Errorf("unknown experiment %q", *id)
		}
		fmt.Println(run(suite))
		return nil
	}
	for _, key := range order {
		fmt.Println(runners[key](suite))
	}
	return nil
}

func runGenerate(args []string) error {
	fs := flag.NewFlagSet("generate", flag.ExitOnError)
	ds := fs.String("dataset", "grab", "grab | tpcds")
	n := fs.Int("n", 20, "number of traces")
	showSQL := fs.Bool("sql", true, "print SQL text")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var traces []*workload.Trace
	switch *ds {
	case "grab":
		cfg := workload.DefaultGrabConfig()
		cfg.Queries = *n
		traces = workload.NewGrabGenerator(cfg).Generate()
	case "tpcds":
		cfg := workload.DefaultTPCDSConfig()
		cfg.Queries = *n
		traces = workload.NewTPCDSGenerator(cfg).Generate()
	default:
		return fmt.Errorf("unknown dataset %q", *ds)
	}
	for _, tr := range traces {
		fmt.Printf("-- trace %d: day %d, %.2f CPU-min, %d plan nodes, depth %d\n",
			tr.ID, tr.Day, tr.CPUMinutes(), tr.Plan.NodeCount(), tr.Plan.MaxDepth())
		if *showSQL {
			fmt.Println(tr.SQL)
		}
	}
	return nil
}

func runTrain(args []string) error {
	fs := flag.NewFlagSet("train", flag.ExitOnError)
	model := fs.String("model", "sub-15", "sub-15 | sub-32 | full | mscn | wcnn")
	scaleName := fs.String("scale", "test", "test | small | paper")
	if err := fs.Parse(args); err != nil {
		return err
	}
	scale, err := scaleByName(*scaleName)
	if err != nil {
		return err
	}
	fmt.Printf("building suite at %s scale...\n", scale.Name)
	suite := experiments.NewSuite(scale)
	m, res := suite.TrainedGrab(*model)
	fmt.Printf("model:        %s\n", m.Name())
	fmt.Printf("parameters:   %d\n", m.ParamCount())
	fmt.Printf("best epoch:   %d of %d\n", res.BestEpoch, res.EpochsRun)
	fmt.Printf("val MSE:      %.2f min²\n", res.BestValMSE)
	fmt.Printf("test MSE:     %.2f min²\n", res.TestMSE)
	fmt.Printf("epoch time:   %s\n", res.MeanEpochTime)
	fmt.Printf("batch-32 MB:  %.2f\n", float64(m.BatchBytes(32))/1e6)
	return nil
}

func runExplain(args []string) error {
	fs := flag.NewFlagSet("explain", flag.ExitOnError)
	query := fs.String("query", "", "SQL query text")
	n := fs.Int("n", 15, "sub-tree node limit N")
	c := fs.Int("c", 2, "convolution layers C")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *query == "" {
		return fmt.Errorf("-query is required")
	}
	plan, err := logicalplan.PlanSQL(*query)
	if err != nil {
		return err
	}
	fmt.Println("=== logical plan ===")
	fmt.Print(plan.Explain())
	fmt.Printf("nodes=%d depth=%d tables=%v\n\n",
		plan.NodeCount(), plan.MaxDepth(), plan.Tables())

	toks := otp.PlanTokens(plan)
	if len(toks) == 0 {
		toks = []string{"(none)"}
	}
	fmt.Println("=== predicate tokens (values stripped, Fig 4) ===")
	fmt.Printf("%s\n\n", strings.Join(toks, " "))

	root := otp.Recast(plan)
	fmt.Println("=== O-T-P binary tree ===")
	fmt.Printf("nodes=%d (incl. ∅ padding), real=%d, depth=%d\n\n",
		root.NodeCount(), root.RealNodeCount(), root.MaxDepth())

	samples, err := subtree.Sample(root, subtree.Config{N: *n, C: *c})
	if err != nil {
		return err
	}
	fmt.Printf("=== sub-tree decomposition (N=%d, C=%d) ===\n", *n, *c)
	for i, st := range samples {
		kinds := make([]string, len(st.Nodes))
		for j, node := range st.Nodes {
			kinds[j] = node.Type.String()
		}
		fmt.Printf("sub-tree %d: %d nodes, %d voting, depth %d: %s\n",
			i, len(st.Nodes), st.VoteCount(), st.Depth, strings.Join(kinds, " "))
	}
	return nil
}
