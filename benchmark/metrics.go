package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// workloadDef names one workload and why it exists; BENCHMARK.json repeats
// these lines and a unit test keeps the two in step.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloads = []workloadDef{
	{"train_epoch", "the paper's headline: pipeline fit + a train.Run epoch per job; prepare, treecnn forward+backward, nn and Adam work, serve and sqlparse do none"},
	{"serve_hot", "512 SQL strings drawn Zipf(1.1), all prediction-cache hits: net/http, api JSON, CanonicalSQL and cache reads work; parser, model and kernels idle"},
	{"serve_rebind", "256 templates with numeric literals re-drawn per request: prediction cache never hits, template and sub-tree caches always do; ExtractTemplate, Rebind, Plan, dense head and batcher work"},
	{"serve_cold", "16384 structurally distinct queries issued once each, 4x every cache: full parse, recast, sampling, flatten, conv forward and the write side of all three LRUs work"},
}

// metricDef is one reported metric. Bound (end-to-end only) is the share of
// the parent's median by which the metric may worsen before a change counts
// as a regression. Moves (per-layer only) names what the layer metric is
// expected to move, for the printed table and the README.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
	Moves  string  `json:"-"`
}

// An operation is one /v1/predict round trip on the serving workloads and
// one TrainBatch step over 64 queries on train_epoch, so every metric exists
// on every workload. The bounds are what the machine the benchmark was built
// on can resolve (see README.md, "First recorded numbers"): its run-to-run
// spread on the CPU-bound workloads is 5-15% and reaches 20-30% in its noisy
// phases, so the time metrics take the widest bound the driver allows.
var endToEnd = []metricDef{
	{Name: "qps", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "latency_mean_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.15},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

var perLayer = []metricDef{
	// The request ladder, mean us per request from one caller.
	{Name: "client.rtt_us", Unit: "us", Better: "lower", Moves: "latency_mean_us on every serving workload"},
	{Name: "client.latency_p99_us", Unit: "us", Better: "lower", Moves: "the one caller's tail"},
	{Name: "client.loaded_p50_us", Unit: "us", Better: "lower", Moves: "closed-loop median; too unsteady on serve_hot to gate"},
	{Name: "client.loaded_p95_us", Unit: "us", Better: "lower", Moves: "closed-loop tail; too unsteady on serve_hot to gate"},
	{Name: "serve.handler_us", Unit: "us", Better: "lower", Moves: "latency_mean_us"},
	{Name: "serve.engine_us", Unit: "us", Better: "lower", Moves: "latency_mean_us"},
	{Name: "serve.http_residue_us", Unit: "us", Better: "lower", Moves: "qps, latency_mean_us on serve_hot"},
	{Name: "serve.handler_self_us", Unit: "us", Better: "lower", Moves: "qps on serve_hot"},
	{Name: "serve.dispatch_wait_us", Unit: "us", Better: "lower", Moves: "latency_mean_us on serve_rebind, serve_cold"},
	{Name: "api.decode_us", Unit: "us", Better: "lower", Moves: "qps on serve_hot"},
	{Name: "api.encode_us", Unit: "us", Better: "lower", Moves: "qps on serve_hot"},
	{Name: "serve.canonical_us", Unit: "us", Better: "lower", Moves: "qps on serve_hot"},
	{Name: "sqlparse.extract_template_us", Unit: "us", Better: "lower", Moves: "latency_mean_us on serve_rebind"},
	{Name: "sqlparse.rebind_us", Unit: "us", Better: "lower", Moves: "latency_mean_us on serve_rebind"},
	{Name: "logicalplan.plan_us", Unit: "us", Better: "lower", Moves: "latency_mean_us on serve_rebind"},
	{Name: "models.template_rebind_us", Unit: "us", Better: "lower", Moves: "latency_mean_us on serve_rebind"},
	{Name: "sqlparse.parse_us", Unit: "us", Better: "lower", Moves: "qps on serve_cold"},
	{Name: "otp.recast_us", Unit: "us", Better: "lower", Moves: "qps on serve_cold"},
	{Name: "otp.query_context_us", Unit: "us", Better: "lower", Moves: "qps on serve_cold"},
	{Name: "subtree.sample_us", Unit: "us", Better: "lower", Moves: "qps on serve_cold"},
	{Name: "treecnn.flatten_us", Unit: "us", Better: "lower", Moves: "qps on serve_cold"},
	{Name: "models.encode_trace_us", Unit: "us", Better: "lower", Moves: "qps, latency_mean_us on serve_cold"},
	{Name: "models.build_template_us", Unit: "us", Better: "lower", Moves: "qps on serve_cold"},
	{Name: "models.predict_into_us", Unit: "us", Better: "lower", Moves: "qps on serve_cold; small on serve_rebind"},
	{Name: "models.predict_into_b8_us", Unit: "us", Better: "lower", Moves: "qps on serve_cold"},
	{Name: "treecnn.infer_us_per_tree", Unit: "us", Better: "lower", Moves: "qps on serve_cold"},
	{Name: "treecnn.infer_int8_us_per_tree", Unit: "us", Better: "lower", Moves: "nothing shipped (int8 is opt-in)"},
	{Name: "tensor.matmul_l0_us", Unit: "us", Better: "lower", Moves: "qps on serve_cold"},
	{Name: "tensor.matmul_hidden_us", Unit: "us", Better: "lower", Moves: "qps on serve_cold"},
	{Name: "tensor.l0_density", Unit: "ratio", Better: "lower", Moves: "explains tensor.matmul_l0_us"},
	// Training layers.
	{Name: "train.job_s", Unit: "s", Better: "lower", Moves: "qps on train_epoch"},
	{Name: "train.epoch_s", Unit: "s", Better: "lower", Moves: "qps on train_epoch"},
	{Name: "train.test_mse", Unit: "min2", Better: "lower", Moves: "accuracy; exact for arithmetic-preserving changes"},
	{Name: "models.batch_mb", Unit: "MB", Better: "lower", Moves: "the paper's batch footprint"},
	{Name: "models.prepare_us_per_trace", Unit: "us", Better: "lower", Moves: "train.job_s"},
	{Name: "models.train_batch_ms", Unit: "ms", Better: "lower", Moves: "latency_mean_us, qps on train_epoch"},
	{Name: "treecnn.forward_us_per_tree", Unit: "us", Better: "lower", Moves: "models.train_batch_ms"},
	{Name: "treecnn.backward_us_per_tree", Unit: "us", Better: "lower", Moves: "models.train_batch_ms"},
	{Name: "models.eval_mse_s", Unit: "s", Better: "lower", Moves: "train.epoch_s"},
	{Name: "dataset.batching_us_per_batch", Unit: "us", Better: "lower", Moves: "train.epoch_s"},
	{Name: "models.build_pipeline_s", Unit: "s", Better: "lower", Moves: "train.job_s; setup_s on serving"},
	{Name: "word2vec.train_s", Unit: "s", Better: "lower", Moves: "models.build_pipeline_s"},
	{Name: "workload.generate_s", Unit: "s", Better: "lower", Moves: "setup_s"},
	// Counts and ratios under the closed-loop load.
	{Name: "serve.cache_hit_ratio", Unit: "ratio", Better: "higher", Moves: "~1 hot, 0 rebind, ~0 cold"},
	{Name: "serve.template_hit_ratio", Unit: "ratio", Better: "higher", Moves: "- hot, ~1 rebind, 0 cold"},
	{Name: "serve.subtree_hit_ratio", Unit: "ratio", Better: "higher", Moves: "- hot, ~1 rebind, partial cold"},
	{Name: "serve.batches", Unit: "count", Better: "lower", Moves: "explains qps"},
	{Name: "serve.mean_batch_size", Unit: "count", Better: "higher", Moves: "explains serve.dispatch_wait_us"},
	{Name: "serve.shed", Unit: "count", Better: "lower", Moves: "must stay 0"},
	{Name: "serve.expired", Unit: "count", Better: "lower", Moves: "must stay 0"},
	{Name: "serve.replicas", Unit: "count", Better: "lower", Moves: "configuration echo"},
	{Name: "models.trees_per_query", Unit: "count", Better: "lower", Moves: "explains models.predict_into_us"},
	{Name: "models.nodes_per_query", Unit: "count", Better: "lower", Moves: "explains models.encode_trace_us"},
	{Name: "sqlparse.sql_bytes_per_query", Unit: "count", Better: "lower", Moves: "explains sqlparse.parse_us"},
	{Name: "models.param_count", Unit: "count", Better: "lower", Moves: "configuration echo"},
	{Name: "dataset.full_tree_batch_mb", Unit: "MB", Better: "lower", Moves: "the baseline of models.footprint_ratio"},
	{Name: "models.footprint_ratio", Unit: "ratio", Better: "higher", Moves: "the paper's full-tree / sub-tree batch footprint"},
	{Name: "process.alloc_kb_per_op", Unit: "kB", Better: "lower", Moves: "peak_rss_mb, latency_mean_us"},
	{Name: "process.allocs_per_op", Unit: "count", Better: "lower", Moves: "latency_mean_us"},
	{Name: "process.gc_pause_ms", Unit: "ms", Better: "lower", Moves: "latency_mean_us"},
	{Name: "process.gc_cycles", Unit: "count", Better: "lower", Moves: "latency_mean_us"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower", Moves: "cost of recording spans"},
}

// metricValue is one metric as printed in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// newResult fills Metrics with every metric of defs, taking values from vals;
// a per-layer metric the workload does not exercise reads 0.
func newResult(defs []metricDef, vals map[string]float64) (*result, error) {
	r := &result{Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		r.Metrics[d.Name] = metricValue{Value: vals[d.Name], Unit: d.Unit}
	}
	for name := range vals {
		if _, ok := r.Metrics[name]; !ok {
			return nil, fmt.Errorf("metric %q is not declared", name)
		}
	}
	return r, nil
}

// print writes the result as the last line of standard output.
func (r *result) print() error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(os.Stdout, string(b))
	return err
}

// printTable lists vals against defs on standard output, one metric a line,
// followed by note's remark on the metric and, for a per-layer metric, what
// it is expected to move.
func printTable(title string, defs []metricDef, vals map[string]float64, note func(metricDef) string) {
	fmt.Printf("\n%s\n", title)
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			continue
		}
		remark := ""
		if note != nil {
			remark = note(d)
		}
		fmt.Printf("  %-32s %14.4f %-6s %-14s %s\n", d.Name, v, d.Unit, remark, d.Moves)
	}
}
