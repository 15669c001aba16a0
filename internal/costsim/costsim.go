// Package costsim is the reproduction's stand-in for Presto execution: an
// analytic cost model that assigns each logical plan a ground-truth resource
// profile (total CPU time, peak memory, input bytes). The paper trains on
// the recorded total CPU time of really-executed queries; here, cost is a
// deterministic structure- and data-dependent function of the plan plus
// multiplicative noise, so the learning task has the same character —
// predictable from operators, tables and predicates, but not trivially.
//
// Every workload generator (Grab-Traces, TPC-DS, TPC-H) labels its traces
// with it, so it is the ground truth behind every MSE the experiments
// report; ProfileOTP also computes Fig 8's top-1% resource shares.
package costsim

import (
	"hash/fnv"
	"math"
	"strings"

	"prestroid/internal/logicalplan"
	"prestroid/internal/sqlparse"
	"prestroid/internal/tensor"
	"sort"
)

// ResourceProfile is what the Presto profiler records per query (App A of
// the paper selects exactly these three metrics).
type ResourceProfile struct {
	CPUMinutes float64 // total CPU time across all cluster VMs
	PeakMemGB  float64 // peak memory during execution
	InputGB    float64 // data ingested by the query
}

// Estimator computes resource profiles for logical plans over a synthetic
// catalog. Table sizes and per-column selectivities are deterministic
// functions of their names, so re-running the simulator reproduces the
// labels exactly.
type Estimator struct {
	// CPURate converts accumulated work units into CPU minutes. The default
	// calibrates typical generated workloads into the paper's 1–60 minute
	// window.
	CPURate float64
	// NoiseSigma is the σ of the multiplicative log-normal execution noise.
	NoiseSigma float64
	rng        *tensor.RNG
}

// NewEstimator returns an estimator with calibrated defaults and a seeded
// noise stream.
func NewEstimator(seed uint64) *Estimator {
	return &Estimator{
		CPURate:    2.2e8,
		NoiseSigma: 0.12,
		rng:        tensor.NewRNG(seed),
	}
}

// hash64 gives a stable 64-bit hash of s.
func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// unit maps a string to a deterministic pseudo-uniform value in [0,1).
func unit(s string) float64 {
	return float64(hash64(s)%1_000_000) / 1_000_000
}

// TableRows returns the deterministic row count of a table: log-uniform
// between 10^4 and 10^9, a realistic spread for a multi-PB data lake.
func TableRows(table string) float64 {
	return math.Pow(10, 4+5*unit("rows:"+table))
}

// TableRowBytes returns the average row width in bytes (64–576).
func TableRowBytes(table string) float64 {
	return 64 + 512*unit("width:"+table)
}

// ColumnSelectivity returns the deterministic selectivity of a single
// comparison on column with operator op, in [0.02, 0.92]. Equality is
// biased selective; ranges are biased permissive.
func ColumnSelectivity(column, op string) float64 {
	base := unit("sel:" + strings.ToLower(column) + ":" + op)
	switch op {
	case "=", "in":
		return 0.02 + 0.28*base
	case "like":
		return 0.05 + 0.45*base
	case "isnull":
		return 0.01 + 0.15*base
	default: // <, >, <=, >=, between, <>
		return 0.10 + 0.82*base
	}
}

// PredicateSelectivity folds a predicate expression tree: AND multiplies
// child selectivities (independence assumption), OR applies inclusion-
// exclusion, NOT complements.
func PredicateSelectivity(e sqlparse.Expr) float64 {
	switch v := e.(type) {
	case *sqlparse.BinaryExpr:
		switch v.Op {
		case "AND":
			return clampSel(PredicateSelectivity(v.Left) * PredicateSelectivity(v.Right))
		case "OR":
			a, b := PredicateSelectivity(v.Left), PredicateSelectivity(v.Right)
			return clampSel(a + b - a*b)
		default:
			if col, ok := v.Left.(sqlparse.ColumnRef); ok {
				// Column-to-column comparisons (join predicates) are handled
				// by the join cardinality model; treat as permissive here.
				if _, isCol := v.Right.(sqlparse.ColumnRef); isCol {
					return 0.8
				}
				return ColumnSelectivity(col.Column, v.Op)
			}
			return 0.5
		}
	case *sqlparse.NotExpr:
		return clampSel(1 - PredicateSelectivity(v.Inner))
	case *sqlparse.InExpr:
		n := float64(len(v.Values))
		s := clampSel(ColumnSelectivity(v.Col.Column, "in") * (0.5 + 0.5*n))
		if v.Negate {
			return clampSel(1 - s)
		}
		return s
	case *sqlparse.BetweenExpr:
		return ColumnSelectivity(v.Col.Column, "between")
	case *sqlparse.LikeExpr:
		s := ColumnSelectivity(v.Col.Column, "like")
		if v.Negate {
			return clampSel(1 - s)
		}
		return s
	case *sqlparse.IsNullExpr:
		s := ColumnSelectivity(v.Col.Column, "isnull")
		if v.Negate {
			return clampSel(1 - s)
		}
		return s
	default:
		return 0.5
	}
}

func clampSel(s float64) float64 {
	if s < 0.001 {
		return 0.001
	}
	if s > 0.999 {
		return 0.999
	}
	return s
}

// Per-operator work coefficients: work = coeff × input rows (plus
// join-specific terms). Values reflect relative Presto operator costs.
var opCoeff = map[logicalplan.Op]float64{
	logicalplan.OpOutput:    0.05,
	logicalplan.OpTableScan: 1.0,
	logicalplan.OpFilter:    0.35,
	logicalplan.OpProject:   0.20,
	logicalplan.OpJoin:      1.6,
	logicalplan.OpAggregate: 1.1,
	logicalplan.OpSort:      1.4,
	logicalplan.OpTopN:      0.6,
	logicalplan.OpLimit:     0.02,
	logicalplan.OpDistinct:  0.9,
	logicalplan.OpUnion:     0.10,
	logicalplan.OpExchange:  0.45,
	logicalplan.OpWindow:    1.3,
}

// nodeResult propagates cardinalities bottom-up.
type nodeResult struct {
	rows  float64
	bytes float64
	work  float64
	peak  float64
	input float64 // raw scanned bytes
}

// Profile computes the noisy resource profile for a plan. The noise stream
// advances once per call, so profiling order matters for exact
// reproducibility (generators profile in generation order).
func (e *Estimator) Profile(plan *logicalplan.Node) ResourceProfile {
	r := e.eval(plan)
	noise := math.Exp(e.NoiseSigma * e.rng.Norm())
	cpuMin := r.work / e.CPURate * noise
	return ResourceProfile{
		CPUMinutes: cpuMin,
		PeakMemGB:  r.peak / 1e9,
		InputGB:    r.input / 1e9,
	}
}

// NoiselessCPUMinutes returns the deterministic CPU-time component, used by
// tests and by the provisioning experiment's "actual usage" reference.
func (e *Estimator) NoiselessCPUMinutes(plan *logicalplan.Node) float64 {
	return e.eval(plan).work / e.CPURate
}

func (e *Estimator) eval(n *logicalplan.Node) nodeResult {
	if n == nil {
		return nodeResult{}
	}
	var children []nodeResult
	for _, c := range n.Children {
		children = append(children, e.eval(c))
	}
	coeff := opCoeff[n.Op]
	var r nodeResult
	for _, c := range children {
		r.work += c.work
		r.input += c.input
		if c.peak > r.peak {
			r.peak = c.peak
		}
	}
	switch n.Op {
	case logicalplan.OpTableScan:
		rows := TableRows(n.Table)
		width := TableRowBytes(n.Table)
		r.rows = rows
		r.bytes = rows * width
		r.work += coeff * rows
		r.input += r.bytes
		r.peak = maxF(r.peak, 0.02*r.bytes)
	case logicalplan.OpFilter:
		in := children[0]
		sel := 0.5
		if n.Pred != nil {
			sel = PredicateSelectivity(n.Pred)
		}
		r.rows = in.rows * sel
		r.bytes = in.bytes * sel
		r.work += coeff * in.rows
		r.peak = maxF(r.peak, 0.01*in.bytes)
	case logicalplan.OpJoin:
		l, rt := children[0], children[1]
		// Foreign-key-style join: output ~ the larger side scaled by a
		// deterministic join factor; build side held in memory.
		factor := 0.2 + 1.3*unit("join:"+n.JoinKind)
		big, small := l, rt
		if small.rows > big.rows {
			big, small = small, big
		}
		r.rows = big.rows * factor
		r.bytes = big.bytes*factor + small.bytes*0.3
		r.work += coeff * (l.rows + rt.rows + r.rows*0.3)
		r.peak = maxF(r.peak, small.bytes) // hash build side
	case logicalplan.OpAggregate:
		in := children[0]
		groups := math.Max(1, math.Pow(in.rows, 0.55))
		r.rows = groups
		r.bytes = in.bytes * (groups / math.Max(in.rows, 1))
		r.work += coeff * in.rows
		r.peak = maxF(r.peak, 0.1*in.bytes)
	case logicalplan.OpSort:
		in := children[0]
		rows := math.Max(in.rows, 2)
		r.rows = in.rows
		r.bytes = in.bytes
		r.work += coeff * rows * math.Log2(rows) / 20
		r.peak = maxF(r.peak, in.bytes)
	case logicalplan.OpTopN:
		in := children[0]
		r.rows = math.Min(in.rows, 1000)
		r.bytes = in.bytes * (r.rows / math.Max(in.rows, 1))
		r.work += coeff * in.rows
		r.peak = maxF(r.peak, 0.001*in.bytes)
	case logicalplan.OpLimit:
		in := children[0]
		r.rows = math.Min(in.rows, 10000)
		r.bytes = in.bytes * (r.rows / math.Max(in.rows, 1))
		r.work += coeff * r.rows
	case logicalplan.OpDistinct:
		in := children[0]
		r.rows = math.Max(1, math.Pow(in.rows, 0.8))
		r.bytes = in.bytes * (r.rows / math.Max(in.rows, 1))
		r.work += coeff * in.rows
		r.peak = maxF(r.peak, 0.15*in.bytes)
	case logicalplan.OpUnion:
		var rows, bytes float64
		for _, c := range children {
			rows += c.rows
			bytes += c.bytes
		}
		r.rows = rows
		r.bytes = bytes
		r.work += coeff * rows
	case logicalplan.OpExchange, logicalplan.OpProject, logicalplan.OpOutput, logicalplan.OpWindow:
		if len(children) > 0 {
			in := children[0]
			r.rows = in.rows
			r.bytes = in.bytes
			r.work += coeff * in.rows
			if n.Op == logicalplan.OpWindow {
				r.peak = maxF(r.peak, 0.2*in.bytes)
			}
		}
	}
	return r
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// ProfileOTP computes the top-1% resource-share analysis of App A over a
// set of plans: it returns the fraction of total peak-memory, CPU and input
// consumed by the largest 1% of plans by node count.
func ProfileOTP(est *Estimator, plans []*logicalplan.Node) (memShare, cpuShare, inputShare float64) {
	type rec struct {
		nodes int
		prof  ResourceProfile
	}
	recs := make([]rec, len(plans))
	for i, p := range plans {
		recs[i] = rec{nodes: p.NodeCount(), prof: est.Profile(p)}
	}
	// Select the top 1% by node count.
	counts := make([]int, len(recs))
	for i, r := range recs {
		counts[i] = r.nodes
	}
	sort.Ints(counts)
	idx := int(0.99 * float64(len(counts)))
	if idx >= len(counts) {
		idx = len(counts) - 1
	}
	threshold := counts[idx]
	var totMem, totCPU, totIn, topMem, topCPU, topIn float64
	for _, r := range recs {
		totMem += r.prof.PeakMemGB
		totCPU += r.prof.CPUMinutes
		totIn += r.prof.InputGB
		if r.nodes >= threshold {
			topMem += r.prof.PeakMemGB
			topCPU += r.prof.CPUMinutes
			topIn += r.prof.InputGB
		}
	}
	if totMem == 0 || totCPU == 0 || totIn == 0 {
		return 0, 0, 0
	}
	return topMem / totMem, topCPU / totCPU, topIn / totIn
}
