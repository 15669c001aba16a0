package experiments

import (
	"strconv"
	"strings"
	"sync"
	"testing"
)

var (
	suiteOnce sync.Once
	suite     *Suite

	table4Once sync.Once
	table4     *Table
)

// sharedSuite builds one test-scale suite for all experiment tests (model
// training dominates; sharing keeps the package test time bounded).
func sharedSuite(t *testing.T) *Suite {
	t.Helper()
	suiteOnce.Do(func() { suite = NewSuite(TestScale()) })
	return suite
}

// sharedTable4 is Table 4 of the shared suite, built once: it trains its own
// rounds, and two tests read it.
func sharedTable4(t *testing.T) *Table {
	t.Helper()
	s := sharedSuite(t)
	table4Once.Do(func() { table4 = Table4(s) })
	return table4
}

func cellF(tb testing.TB, t *Table, row, col int) float64 {
	v, err := strconv.ParseFloat(strings.TrimPrefix(t.Rows[row][col], "$"), 64)
	if err != nil {
		tb.Fatalf("cell (%d,%d) = %q not numeric", row, col, t.Rows[row][col])
	}
	return v
}

func findRow(t *Table, prefix string) int {
	for i, r := range t.Rows {
		if strings.HasPrefix(r[0], prefix) {
			return i
		}
	}
	return -1
}

func TestTable1MonotoneGrowth(t *testing.T) {
	s := sharedSuite(t)
	tbl := Table1(s)
	if len(tbl.Rows) != 5 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	prev := -1.0
	for i := range tbl.Rows {
		v := cellF(t, tbl, i, 1)
		if v < 0 || v > 100 {
			t.Fatalf("unseen %% = %v", v)
		}
		if v < prev-1.5 { // small jitter tolerated
			t.Fatalf("not growing with window: %s", tbl)
		}
		prev = v
	}
	// The paper's trend: a longer window surfaces clearly more new tables.
	if cellF(t, tbl, 4, 1) <= cellF(t, tbl, 0, 1) {
		t.Fatalf("W=9 should exceed W=1:\n%s", tbl)
	}
}

func TestTable2GrabOrdering(t *testing.T) {
	s := sharedSuite(t)
	tbl := Table2Grab(s)
	if len(tbl.Rows) != 7 {
		t.Fatalf("rows = %d:\n%s", len(tbl.Rows), tbl)
	}
	// Paper-shape check: the best Prestroid sub-tree beats the naive
	// baselines and M-MSCN on the diverse workload.
	sub15 := cellF(t, tbl, findRow(tbl, "Prestroid (15"), 2)
	sub32 := cellF(t, tbl, findRow(tbl, "Prestroid (32"), 2)
	bestSub := sub15
	if sub32 < bestSub {
		bestSub = sub32
	}
	logbin := cellF(t, tbl, findRow(tbl, "Log bins"), 2)
	svr := cellF(t, tbl, findRow(tbl, "SVR"), 2)
	mscn := cellF(t, tbl, findRow(tbl, "M-MSCN"), 2)
	if bestSub >= logbin || bestSub >= svr {
		t.Fatalf("sub-tree (%.2f) must beat naive baselines (%.2f, %.2f):\n%s", bestSub, logbin, svr, tbl)
	}
	if bestSub >= mscn {
		t.Fatalf("sub-tree (%.2f) must beat M-MSCN (%.2f):\n%s", bestSub, mscn, tbl)
	}
}

func TestTable2TPCDSRuns(t *testing.T) {
	s := sharedSuite(t)
	tbl := Table2TPCDS(s)
	if len(tbl.Rows) != 6 {
		t.Fatalf("rows = %d:\n%s", len(tbl.Rows), tbl)
	}
	for i := range tbl.Rows {
		if v := cellF(t, tbl, i, 2); v <= 0 {
			t.Fatalf("MSE %v in row %d", v, i)
		}
	}
}

func TestTable3InferenceTimings(t *testing.T) {
	s := sharedSuite(t)
	tbl := Table3(s)
	if len(tbl.Rows) != 5 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	for _, r := range tbl.Rows {
		if r[2] == "" || r[2] == "0s" {
			t.Fatalf("timing missing: %v", r)
		}
	}
}

func TestTable4StdNonNegative(t *testing.T) {
	tbl := sharedTable4(t)
	for i := range tbl.Rows {
		if cellF(t, tbl, i, 1) <= 0 {
			t.Fatalf("mean MSE missing in row %d", i)
		}
		if cellF(t, tbl, i, 2) < 0 {
			t.Fatalf("negative std in row %d", i)
		}
	}
}

func TestTable5ShiftDegrades(t *testing.T) {
	s := sharedSuite(t)
	tbl := Table5(s)
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// Paper observation: shifted MSE is significantly above in-window MSE.
	degraded := 0
	for i := range tbl.Rows {
		if cellF(t, tbl, i, 2) > cellF(t, tbl, i, 1) {
			degraded++
		}
	}
	if degraded == 0 {
		t.Fatalf("no model degraded on shifted data:\n%s", tbl)
	}
}

func TestFig2Diversity(t *testing.T) {
	s := sharedSuite(t)
	tbl := Fig2(s)
	if len(tbl.Rows) < 4 {
		t.Fatalf("too few depth buckets:\n%s", tbl)
	}
	// Plans must straddle the envelopes in the mid buckets.
	foundStraddle := false
	for _, r := range tbl.Rows {
		if len(r) == 5 && r[4] != "" {
			if v, err := strconv.ParseFloat(r[4], 64); err == nil && v > 50 {
				foundStraddle = true
			}
		}
	}
	if !foundStraddle {
		t.Fatalf("no bucket has majority straddling plans:\n%s", tbl)
	}
}

func TestFig5ProvisioningBounds(t *testing.T) {
	s := sharedSuite(t)
	tbl := Fig5(s)
	for i := range tbl.Rows {
		over := cellF(t, tbl, i, 1)
		under := cellF(t, tbl, i, 2)
		if over < 0 {
			t.Fatalf("over-provision must be >= 0: %v", over)
		}
		if under > 0 {
			t.Fatalf("under-provision must be <= 0: %v", under)
		}
		net := cellF(t, tbl, i, 3)
		if diff := net - (over + under); diff > 0.05 || diff < -0.05 {
			t.Fatalf("net %v != over+under %v", net, over+under)
		}
	}
}

func TestFig6SubTreeSmallerAndFaster(t *testing.T) {
	s := sharedSuite(t)
	tbl := Fig6(s)
	sub := findRow(tbl, "Prestroid (15")
	full := findRow(tbl, "Prestroid (Full")
	if sub < 0 || full < 0 {
		t.Fatalf("rows missing:\n%s", tbl)
	}
	if cellF(t, tbl, sub, 1) >= cellF(t, tbl, full, 1) {
		t.Fatalf("sub-tree footprint not below full tree:\n%s", tbl)
	}
}

func TestFig7CostStructure(t *testing.T) {
	s := sharedSuite(t)
	tbl := Fig7(s)
	if len(tbl.Rows) != 12 { // 3 models x 4 batch sizes
		t.Fatalf("rows = %d:\n%s", len(tbl.Rows), tbl)
	}
	// Sub-tree models must never OOM and stay on the single-GPU tier.
	for _, r := range tbl.Rows {
		if strings.HasPrefix(r[0], "Prestroid (15") || strings.HasPrefix(r[0], "Prestroid (32") {
			if r[2] != "NC6s_V3" {
				t.Fatalf("sub-tree model left NC6s_V3: %v", r)
			}
		}
	}
}

func TestFig8LongTail(t *testing.T) {
	s := sharedSuite(t)
	tbl := Fig8(s)
	p50 := cellF(t, tbl, 0, 1)
	p99 := cellF(t, tbl, 2, 1)
	max := cellF(t, tbl, 3, 1)
	if !(p50 < p99 && p99 < max) {
		t.Fatalf("CDF not increasing: %v %v %v", p50, p99, max)
	}
	// Top-1% shares must be disproportionate (several times the 1% of plans
	// they come from) — the paper reports 23.7/33.1/40.2%.
	for i := 4; i <= 6; i++ {
		if share := cellF(t, tbl, i, 1); share < 3 || share > 100 {
			t.Fatalf("top-1%% share %v implausible:\n%s", share, tbl)
		}
	}
}

func TestFig9ScaleOutPenalty(t *testing.T) {
	s := sharedSuite(t)
	tbl := Fig9(s)
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	for i := range tbl.Rows {
		t1 := cellF(t, tbl, i, 1)
		t2 := cellF(t, tbl, i, 2)
		t4 := cellF(t, tbl, i, 3)
		if !(t4 < t2 && t2 < t1) {
			t.Fatalf("runtimes not decreasing with GPUs: %v %v %v", t1, t2, t4)
		}
		// Speedup must be sub-linear: 4 GPUs strictly less than 4x.
		if t1/t4 >= 4 {
			t.Fatalf("no scale-out penalty at row %d", i)
		}
	}
}

func TestTableRendering(t *testing.T) {
	tbl := &Table{Title: "demo", Header: []string{"a", "bb"}}
	tbl.AddRow("x", "1.00")
	out := tbl.String()
	if !strings.Contains(out, "demo") || !strings.Contains(out, "bb") || !strings.Contains(out, "1.00") {
		t.Fatalf("rendering broken:\n%s", out)
	}
}

func TestAblationRuns(t *testing.T) {
	s := sharedSuite(t)
	tbl := Ablation(s)
	if len(tbl.Rows) != 6 {
		t.Fatalf("rows = %d:\n%s", len(tbl.Rows), tbl)
	}
	for i := range tbl.Rows {
		if v := cellF(t, tbl, i, 2); v <= 0 {
			t.Fatalf("MSE %v in row %d", v, i)
		}
	}
	t.Logf("\n%s", tbl)
}

func TestDatasetStatsScaleContrast(t *testing.T) {
	s := sharedSuite(t)
	tbl := DatasetStats(s)
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// §3.3: distinct predicates per query must be far higher on the
	// industry-like workload than on the template benchmarks.
	grab := cellF(t, tbl, 0, 3)
	tpcds := cellF(t, tbl, 1, 3)
	tpch := cellF(t, tbl, 2, 3)
	if grab <= tpcds || grab <= tpch {
		t.Fatalf("grab preds/query %.2f not above tpcds %.2f / tpch %.2f:\n%s", grab, tpcds, tpch, tbl)
	}
	// Plan-size range: grab max nodes above both benchmarks.
	if cellF(t, tbl, 0, 4) <= cellF(t, tbl, 2, 4) {
		t.Fatalf("grab max nodes not above tpch:\n%s", tbl)
	}
}

func TestSweepGrid(t *testing.T) {
	s := sharedSuite(t)
	tbl := Sweep(s)
	if len(tbl.Rows) != 6 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	for i := range tbl.Rows {
		if cellF(t, tbl, i, 3) <= 0 {
			t.Fatalf("MSE missing in row %d", i)
		}
	}
	// Footprint must grow with K at fixed N (more sub-tree slots padded).
	if cellF(t, tbl, 0, 4) >= cellF(t, tbl, 2, 4) {
		t.Fatalf("batch MB not increasing with K:\n%s", tbl)
	}
	t.Logf("\n%s", tbl)
}
