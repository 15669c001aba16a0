package workload

import (
	"testing"

	"prestroid/internal/logicalplan"
)

func smallGrab(t *testing.T, n int) []*Trace {
	t.Helper()
	cfg := DefaultGrabConfig()
	cfg.Queries = n
	g := NewGrabGenerator(cfg)
	traces := g.Generate()
	if len(traces) != n {
		t.Fatalf("generated %d traces, want %d (acceptance too low?)", len(traces), n)
	}
	return traces
}

func TestGrabTracesWithinCPUWindow(t *testing.T) {
	for _, tr := range smallGrab(t, 100) {
		cpu := tr.Profile.CPUMinutes
		if cpu < 1 || cpu > 60 {
			t.Fatalf("trace CPU %v outside 1-60 min window", cpu)
		}
		if tr.Plan == nil || tr.SQL == "" {
			t.Fatal("trace missing plan or SQL")
		}
		if tr.Template != -1 {
			t.Fatal("grab traces must have Template = -1")
		}
	}
}

func TestGrabQueriesAllParse(t *testing.T) {
	// GenerateOne panics internally on unparsable SQL; also verify the plan
	// round-trips through the public parser.
	cfg := DefaultGrabConfig()
	cfg.Seed = 5
	g := NewGrabGenerator(cfg)
	for i := 0; i < 200; i++ {
		tr := g.GenerateOne(i % 30)
		if _, err := logicalplan.PlanSQL(tr.SQL); err != nil {
			t.Fatalf("query %d unparsable: %v\n%s", i, err, tr.SQL)
		}
	}
}

func TestGrabStructuralDiversity(t *testing.T) {
	traces := smallGrab(t, 300)
	sizes := map[int]bool{}
	joins, subqueries, unions := 0, 0, 0
	for _, tr := range traces {
		counts := tr.Plan.OperatorCounts()
		sizes[tr.Plan.NodeCount()] = true
		if counts[logicalplan.OpJoin] > 0 {
			joins++
		}
		if counts[logicalplan.OpUnion] > 0 {
			unions++
		}
		if counts[logicalplan.OpProject] > 1 {
			subqueries++
		}
	}
	if len(sizes) < 30 {
		t.Fatalf("only %d distinct plan sizes — workload too uniform", len(sizes))
	}
	if joins == 0 || unions == 0 || subqueries == 0 {
		t.Fatalf("missing structure: joins=%d unions=%d subqueries=%d", joins, unions, subqueries)
	}
}

func TestGrabDistinctPredicatesScale(t *testing.T) {
	traces := smallGrab(t, 300)
	distinct := DistinctPredicates(traces)
	// The paper reports ~1.5 distinct predicates per query on Grab-Traces
	// (30,707 over 19,876 queries). Random values should give us far more
	// than one per query too.
	if distinct < len(traces) {
		t.Fatalf("distinct predicates %d < queries %d — not diverse enough", distinct, len(traces))
	}
}

func TestGrabDeterminism(t *testing.T) {
	cfg := DefaultGrabConfig()
	cfg.Queries = 50
	a := NewGrabGenerator(cfg).Generate()
	b := NewGrabGenerator(cfg).Generate()
	for i := range a {
		if a[i].SQL != b[i].SQL || a[i].Profile != b[i].Profile {
			t.Fatal("generation must be deterministic for equal seeds")
		}
	}
}

func TestTPCDSTemplateStructureFixed(t *testing.T) {
	cfg := DefaultTPCDSConfig()
	cfg.Queries = 200
	g := NewTPCDSGenerator(cfg)
	traces := g.Generate()
	if len(traces) != 200 {
		t.Fatalf("generated %d, want 200", len(traces))
	}
	// All instances of one template must share an identical plan shape.
	shapes := map[int]string{}
	for _, tr := range traces {
		key := tr.Template
		shape := planShape(tr.Plan)
		if prev, ok := shapes[key]; ok && prev != shape {
			t.Fatalf("template %d produced two shapes", key)
		}
		shapes[key] = shape
	}
	if len(shapes) < 20 {
		t.Fatalf("only %d templates represented", len(shapes))
	}
}

func planShape(n *logicalplan.Node) string {
	s := n.Op.String() + "("
	for _, c := range n.Children {
		s += planShape(c)
	}
	return s + ")"
}

func TestTPCDSFewerDistinctPredicatesThanGrab(t *testing.T) {
	gcfg := DefaultGrabConfig()
	gcfg.Queries = 300
	grab := NewGrabGenerator(gcfg).Generate()
	dcfg := DefaultTPCDSConfig()
	dcfg.Queries = 300
	tpcds := NewTPCDSGenerator(dcfg).Generate()

	gp := float64(DistinctPredicates(grab)) / float64(len(grab))
	dp := float64(DistinctPredicates(tpcds)) / float64(len(tpcds))
	if gp <= dp {
		t.Fatalf("grab predicates/query %.2f should exceed tpcds %.2f", gp, dp)
	}
}

func TestCatalogGrowth(t *testing.T) {
	c := NewCatalog(100, 30, 2, 1)
	day0 := len(c.ExistingAt(0))
	day30 := len(c.ExistingAt(30))
	if day0 != 100 {
		t.Fatalf("day 0 tables = %d", day0)
	}
	if day30 != 160 {
		t.Fatalf("day 30 tables = %d, want 160", day30)
	}
}

// TestExistingAtIsTheFilteredPrefix holds ExistingAt to a filter over the
// whole catalog on every day around its life, and checks the order it relies
// on: tables in non-decreasing CreatedDay.
func TestExistingAtIsTheFilteredPrefix(t *testing.T) {
	const days = 30
	c := NewCatalog(100, days, 2, 1)
	for i := 1; i < len(c.Tables); i++ {
		if c.Tables[i].CreatedDay < c.Tables[i-1].CreatedDay {
			t.Fatalf("table %d created day %d after table %d's day %d", i, c.Tables[i].CreatedDay, i-1, c.Tables[i-1].CreatedDay)
		}
	}
	for day := -1; day <= days+1; day++ {
		var want []Table
		for _, tbl := range c.Tables {
			if tbl.CreatedDay <= day {
				want = append(want, tbl)
			}
		}
		got := c.ExistingAt(day)
		if len(got) != len(want) || cap(got) != len(got) {
			t.Fatalf("day %d: len %d cap %d, want len = cap = %d", day, len(got), cap(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].Name || got[i].CreatedDay != want[i].CreatedDay {
				t.Fatalf("day %d: table %d is %s (day %d), want %s (day %d)", day, i, got[i].Name, got[i].CreatedDay, want[i].Name, want[i].CreatedDay)
			}
		}
	}
}

func TestUnseenTableFractionGrowsWithWindow(t *testing.T) {
	cfg := DefaultGrabConfig()
	cfg.Queries = 1500
	cfg.Days = 40
	traces := NewGrabGenerator(cfg).Generate()
	cutoff := 20
	prev := -1.0
	var fractions []float64
	for _, w := range []int{1, 5, 9, 15} {
		f := UnseenTableFraction(traces, cutoff, w)
		fractions = append(fractions, f)
		if f < prev-0.02 { // allow small sampling jitter
			t.Fatalf("unseen fraction not monotone-ish: %v", fractions)
		}
		prev = f
	}
	if fractions[len(fractions)-1] <= 0 {
		t.Fatal("long windows must surface unseen tables")
	}
}

func TestNormalizerRoundTrip(t *testing.T) {
	traces := smallGrab(t, 60)
	n := FitNormalizer(traces)
	for _, tr := range traces {
		y := n.Normalize(tr.CPUMinutes())
		if y < 0 || y > 1 {
			t.Fatalf("normalized label %v outside [0,1]", y)
		}
		back := n.Denormalize(y)
		rel := back/tr.CPUMinutes() - 1
		if rel > 1e-9 || rel < -1e-9 {
			t.Fatalf("round trip error %v", rel)
		}
	}
}

func TestPlanSampleDistribution(t *testing.T) {
	cfg := DefaultPlanSampleConfig()
	cfg.Count = 3000
	plans := GeneratePlanSample(cfg)
	stats := CollectPlanStats(plans)

	// Long tail: p99 must far exceed median.
	qs := stats.CDF([]float64{0.5, 0.99, 1.0})
	if qs[1] < 4*qs[0] {
		t.Fatalf("p99 %d not long-tailed vs median %d", qs[1], qs[0])
	}
	if qs[2] > cfg.MaxNodes {
		t.Fatalf("max %d exceeds cap %d", qs[2], cfg.MaxNodes)
	}
	// Shape diversity: depth/count ratios must span chains and balanced.
	sawDeep, sawBushy := false, false
	for i := range plans {
		n, d := stats.NodeCounts[i], stats.MaxDepths[i]
		if n < 30 {
			continue
		}
		if float64(d) > 0.7*float64(n) {
			sawDeep = true
		}
		if float64(d) < 0.25*float64(n) {
			sawBushy = true
		}
	}
	if !sawDeep || !sawBushy {
		t.Fatalf("shape diversity missing: deep=%v bushy=%v", sawDeep, sawBushy)
	}
}

func TestPlanSampleExactSizes(t *testing.T) {
	cfg := DefaultPlanSampleConfig()
	cfg.Count = 500
	plans := GeneratePlanSample(cfg)
	for _, p := range plans {
		if p.NodeCount() < 3 {
			t.Fatalf("plan too small: %d", p.NodeCount())
		}
		if p.Op != logicalplan.OpOutput {
			t.Fatal("plans must be rooted at Output")
		}
	}
}

func TestTPCHTemplatesFixedAndBounded(t *testing.T) {
	traces := NewTPCHGenerator(DefaultTPCHConfig()).Generate()
	if len(traces) != 110 {
		t.Fatalf("generated %d", len(traces))
	}
	shapes := map[int]string{}
	maxNodes := 0
	for _, tr := range traces {
		if tr.Template < 0 || tr.Template >= 22 {
			t.Fatalf("template id %d", tr.Template)
		}
		shape := planShape(tr.Plan)
		if prev, ok := shapes[tr.Template]; ok && prev != shape {
			t.Fatalf("template %d produced two shapes", tr.Template)
		}
		shapes[tr.Template] = shape
		if n := tr.Plan.NodeCount(); n > maxNodes {
			maxNodes = n
		}
	}
	if len(shapes) != 22 {
		t.Fatalf("templates = %d, want 22", len(shapes))
	}
	// The paper reports TPC-H max plan size 477: ours must stay well under
	// the Grab-like range (small, bounded templates).
	if maxNodes > 500 {
		t.Fatalf("tpch plans too large: %d nodes", maxNodes)
	}
}
