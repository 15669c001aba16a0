package workload

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"
)

// grabDigest renders one seed's Grab stream: a sha256 over every accepted
// trace of a 200-query Generate (ID, day, SQL, the plan's EXPLAIN text and
// the bits of its profile), then one over the next 300 unfiltered GenerateOne
// draws, which start where Generate left the generator's random streams.
// Any moved draw changes some query's text, and so one of the two sums.
func grabDigest(seed uint64) string {
	cfg := DefaultGrabConfig()
	cfg.Queries = 200
	cfg.Seed = seed
	g := NewGrabGenerator(cfg)
	traces := g.Generate()
	gen := sha256.New()
	for _, t := range traces {
		hashTrace(gen, t)
	}
	after := sha256.New()
	monsters := 0
	for i := 0; i < 300; i++ {
		t := g.GenerateOne(i % 61)
		if strings.Count(t.SQL, "UNION ALL") >= 8 {
			monsters++
		}
		hashTrace(after, t)
	}
	return fmt.Sprintf("seed %d: %d traces %x; next 300 draws (%d with 8+ unions) %x\n",
		seed, len(traces), gen.Sum(nil), monsters, after.Sum(nil))
}

func hashTrace(h hash.Hash, t *Trace) {
	fmt.Fprintf(h, "%d %d %d\n%s\n%s%016x %016x %016x\n", t.ID, t.Day, t.Template, t.SQL, t.Plan.Explain(),
		math.Float64bits(t.Profile.CPUMinutes), math.Float64bits(t.Profile.PeakMemGB), math.Float64bits(t.Profile.InputGB))
}

// TestGrabGolden holds the Grab generator's output for seeds 1-3 to
// testdata/grab_digest.txt, written by the string-formatting, serially
// planning generator this one replaced. A change that moves a byte of SQL, a
// plan or a profile bit, or one draw of either random stream, fails here; a
// change that means to rewrites the file with what the failure prints.
func TestGrabGolden(t *testing.T) {
	var got strings.Builder
	for seed := uint64(1); seed <= 3; seed++ {
		got.WriteString(grabDigest(seed))
	}
	want, err := os.ReadFile("testdata/grab_digest.txt")
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("grab stream moved; the code now renders:\n%s\nthe digest file holds:\n%s", got.String(), want)
	}
}

// TestGenerateIndependentOfGOMAXPROCS checks that Generate's parallel
// planning leaves no trace of the core count: at GOMAXPROCS 1 and 4 the
// accepted traces are identical, and so is the draw after them.
func TestGenerateIndependentOfGOMAXPROCS(t *testing.T) {
	run := func(procs int) string {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		cfg := DefaultGrabConfig()
		cfg.Queries = 150
		cfg.Seed = 9
		g := NewGrabGenerator(cfg)
		h := sha256.New()
		for _, tr := range g.Generate() {
			hashTrace(h, tr)
		}
		hashTrace(h, g.GenerateOne(30))
		return fmt.Sprintf("%x", h.Sum(nil))
	}
	one, four := run(1), run(4)
	if one != four {
		t.Fatalf("Generate depends on GOMAXPROCS: %s at 1, %s at 4", one, four)
	}
}

// TestGeneratePlanFailurePanicsOnCaller gives the generator a catalog whose
// table names the parser refuses, so every draw fails to plan. Generate must
// panic on its own goroutine, where the caller can recover it, with the
// message GenerateOne gives — a panic on a planning helper would end the
// test binary instead — and must report the chunk's first draw.
func TestGeneratePlanFailurePanicsOnCaller(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	broken := func() *GrabGenerator {
		cfg := DefaultGrabConfig()
		cfg.Queries = 64
		g := NewGrabGenerator(cfg)
		for i := range g.Catalog.Tables {
			g.Catalog.Tables[i].Name = "FROM"
		}
		return g
	}
	recovered := func(f func()) (msg string) {
		defer func() {
			if r := recover(); r != nil {
				msg = fmt.Sprint(r)
			}
		}()
		f()
		return ""
	}
	g := broken()
	got := recovered(func() { g.Generate() })
	if !strings.HasPrefix(got, "workload: generated unparsable SQL: ") {
		t.Fatalf("Generate on an unplannable catalog: recovered %q, want the unparsable-SQL panic", got)
	}
	g = broken()
	first := recovered(func() { g.GenerateOne(g.rng.Intn(g.cfg.Days + 1)) })
	if got != first {
		t.Fatalf("Generate reported\n%s\nthe first serial draw reports\n%s", got, first)
	}
}
