package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"reflect"
	"testing"

	"prestroid/internal/sqlparse"
	"prestroid/internal/workload"
)

func testGenerator(seed uint64) *workload.GrabGenerator {
	cfg := workload.DefaultGrabConfig()
	cfg.Seed = seed
	return workload.NewGrabGenerator(cfg)
}

func TestPoolIsAFunctionOfTheSeed(t *testing.T) {
	for _, wl := range []string{"serve_hot", "serve_rebind"} {
		hash := func(seed uint64) uint64 {
			p, err := buildPool(wl, testGenerator(seed))
			if err != nil {
				t.Fatal(err)
			}
			return p.hash()
		}
		if a, b := hash(1), hash(1); a != b {
			t.Errorf("%s: seed 1 gave pools %x and %x", wl, a, b)
		}
		if a, b := hash(1), hash(2); a == b {
			t.Errorf("%s: seeds 1 and 2 gave the same pool %x", wl, a)
		}
	}
}

func TestRedrawKeepsTheTemplate(t *testing.T) {
	gen := testGenerator(3)
	rng := rand.New(rand.NewSource(3))
	seen := map[string]bool{}
	for n, uniq := 0, int64(0); n < 1000; {
		sql := gen.GenerateOne(n % 61).SQL
		tmpl, err := newRebindTemplate(sql)
		if err != nil {
			t.Fatal(err)
		}
		if tmpl == nil {
			continue
		}
		n++
		for rep := 0; rep < 2; rep++ {
			uniq++
			got := string(tmpl.redraw(nil, rng, uniq))
			tkey, _, ok := sqlparse.ExtractTemplate(got)
			if !ok || tkey != tmpl.tkey {
				t.Fatalf("redraw changed the template:\n%s\n%s", sql, got)
			}
			if _, err := sqlparse.Parse(got); err != nil {
				t.Fatalf("redraw does not parse: %v\n%s", err, got)
			}
			if seen[got] {
				t.Fatalf("redraw repeated a request: %s", got)
			}
			seen[got] = true
		}
	}
}

func TestPercentileAndMedians(t *testing.T) {
	ten := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct {
		p    float64
		want int64
	}{{50, 5}, {95, 10}, {90, 9}, {0, 1}, {100, 10}} {
		if got := percentile(ten, c.p); got != c.want {
			t.Errorf("percentile(1..10, %v) = %d, want %d", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %d", got)
	}
	if got := median([]float64{700, 1000, 1010, 1020, 1500}); got != 1010 {
		t.Errorf("odd median = %v, want 1010", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	// Of five windows the better-quartile one is the second best, whichever
	// way better points; a lucky best and three disturbed windows do not move it.
	if got := betterQuartile([]float64{700, 1000, 400, 650, 1500}, "higher"); got != 1000 {
		t.Errorf("betterQuartile(higher) = %v, want 1000", got)
	}
	if got := betterQuartile([]float64{30, 21, 45, 12, 33}, "lower"); got != 21 {
		t.Errorf("betterQuartile(lower) = %v, want 21", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	vs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, q3 := quartiles(vs); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v, want 2.75, 8.25", q1, q3)
	}
	if got := spread(vs); got != 1 {
		t.Errorf("spread(1..10) = %v, want (8.25-2.75)/5.5", got)
	}
}

func TestSelfTimeIsDurationMinusChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Req: 0, Name: "client.rtt", Start: 0, End: 100},
		{ID: 2, Parent: 1, Req: 0, Name: "serve.handler", Start: 10, End: 90},
		// Timed in a pass of its own: outside its parent's interval.
		{ID: 3, Parent: 2, Req: 0, Name: "serve.engine", Start: 500, End: 560},
		{ID: 4, Parent: 3, Req: 0, Name: "serve.canonical", Start: 900, End: 905},
		{ID: 5, Parent: 3, Req: 0, Name: "models.predict_into", Start: 905, End: 930},
	}
	want := map[int]int64{1: 20, 2: 20, 3: 30, 4: 5, 5: 25}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	layers := byLayer(spans, 2)
	if lt := layers["serve.engine"]; lt.count != 1 || lt.total != 60 || lt.self != 30 || lt.perRequest != 30 {
		t.Errorf("serve.engine = %+v", *lt)
	}
	var selves int64
	for _, lt := range layers {
		selves += lt.self
	}
	if selves != 100 {
		t.Errorf("self times sum to %d, want the root's 100", selves)
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "latency_mean_us", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "qps", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 100}
	for _, c := range []struct {
		d      metricDef
		as, bs []float64
		want   string
	}{
		{lower, steady, []float64{105, 106, 104}, "ok"},
		{lower, steady, []float64{115, 116, 114}, "regression"},
		{lower, steady, []float64{50, 51, 49}, "ok"},
		{higher, steady, []float64{85, 86, 84}, "regression"},
		{higher, steady, []float64{130, 131, 129}, "ok"},
		{lower, []float64{80, 100, 120, 90, 110}, []float64{100}, "unresolved"},
	} {
		if got := judge(c.d, c.as, c.bs).status; got != c.want {
			t.Errorf("judge(%s, %v, %v) = %s, want %s", c.d.Name, c.as, c.bs, got, c.want)
		}
	}
}

// BENCHMARK.json repeats the workload and metric tables for the driver; the
// two must not drift apart.
func TestBenchmarkJSONMatchesTheTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark directory:", err)
	}
	var doc struct {
		Workloads []workloadDef `json:"workloads"`
		EndToEnd  []metricDef   `json:"end_to_end"`
		PerLayer  []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.Workloads, workloads) {
		t.Errorf("workloads differ:\n%+v\n%+v", doc.Workloads, workloads)
	}
	if !reflect.DeepEqual(doc.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n%+v\n%+v", doc.EndToEnd, endToEnd)
	}
	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("per_layer has %d metrics, the table %d", len(doc.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		if got := doc.PerLayer[i]; got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per_layer[%d] = %+v, want %s %s %s", i, got, d.Name, d.Unit, d.Better)
		}
	}
	for _, w := range workloads {
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters, the limit is 200", w.Name, len(w.Why))
		}
	}
}
