package sqlparse_test

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"prestroid/internal/logicalplan"
	"prestroid/internal/sqlparse"
	"prestroid/internal/tensor"
	"prestroid/internal/workload"
)

// FuzzParse holds the parser to three properties. No input panics Parse or
// ExtractTemplate (the fuzz engine fails on any panic). Equal template keys
// mean equal fates: when the query's template has a variant that parses and
// plans — the one with every number 0 and every string empty, which is how a
// template cache entry seeded by an earlier query meets a later one — the
// query parses and plans too, to a plan of the same node count, depth and
// table count; the serve front end answers a template hit from the entry
// without parsing the query, so a query the parser would refuse must not
// share a key with one it accepts. And the miss path's invariant: whenever a
// query parses and yields a template, a skeleton of that template rebound
// with the query's own literals plans exactly as the full parse does — the
// same Explain text, or an error on both sides. Two skeletons are tried: the
// query's own parse and the variant's.
func FuzzParse(f *testing.F) {
	addQuerySeeds(f)
	f.Fuzz(func(t *testing.T, src string) {
		stmt, perr := sqlparse.Parse(src)
		key, lits, ok := sqlparse.ExtractTemplate(src)
		if !ok {
			return
		}
		var skeletons []*sqlparse.SelectStmt
		variant := strings.NewReplacer("?n", "0", "?s", "''").Replace(key)
		if vkey, _, ok := sqlparse.ExtractTemplate(variant); ok && vkey == key {
			v, verr := sqlparse.Parse(variant)
			if verr != nil {
				if perr == nil {
					t.Fatalf("%q parses but its template's variant %q does not: %v", src, variant, verr)
				}
			} else if vplan, err := logicalplan.Plan(v); err == nil {
				if perr != nil {
					t.Fatalf("%q shares a template with %q, which plans, yet fails to parse: %v", src, variant, perr)
				}
				plan, err := logicalplan.Plan(stmt)
				if err != nil {
					t.Fatalf("%q shares a template with %q, which plans, yet fails to plan: %v", src, variant, err)
				}
				if plan.NodeCount() != vplan.NodeCount() || plan.MaxDepth() != vplan.MaxDepth() ||
					len(plan.Tables()) != len(vplan.Tables()) {
					t.Fatalf("%q plans to %d nodes, depth %d, %d tables; its template's variant %q to %d, %d, %d",
						src, plan.NodeCount(), plan.MaxDepth(), len(plan.Tables()),
						variant, vplan.NodeCount(), vplan.MaxDepth(), len(vplan.Tables()))
				}
			}
			skeletons = append(skeletons, v)
		}
		if perr != nil {
			return
		}
		want, werr := logicalplan.Plan(stmt)
		skeletons = append(skeletons, stmt)
		for _, skel := range skeletons {
			re, err := skel.Rebind(lits)
			if err != nil {
				t.Fatalf("%q: rebinding its own literals failed: %v", src, err)
			}
			got, gerr := logicalplan.Plan(re)
			if (gerr != nil) != (werr != nil) {
				t.Fatalf("%q: rebound plan error %v, full parse plan error %v", src, gerr, werr)
			}
			if werr == nil && got.Explain() != want.Explain() {
				t.Fatalf("%q: rebound plan\n%s\nfull parse plan\n%s", src, got.Explain(), want.Explain())
			}
		}
	})
}

// addQuerySeeds seeds a string fuzz target with every workload generator's
// SQL and the property tests' random queries.
func addQuerySeeds(f *testing.F) {
	g := workload.DefaultGrabConfig()
	g.Queries = 40
	d := workload.DefaultTPCDSConfig()
	d.Queries = 40
	h := workload.DefaultTPCHConfig()
	h.Queries = 22
	for _, set := range [][]*workload.Trace{
		workload.NewGrabGenerator(g).Generate(),
		workload.NewTPCDSGenerator(d).Generate(),
		workload.NewTPCHGenerator(h).Generate(),
	} {
		for _, tr := range set {
			f.Add(tr.SQL)
		}
	}
	rng := tensor.NewRNG(5)
	for i := 0; i < 40; i++ {
		f.Add(sqlparse.RandQuery(rng))
	}
}

// FuzzTemplateKey holds the key-only scan to ExtractTemplate: on every input
// TemplateKey returns the same key and ok. It is seeded with FuzzParse's
// seeds and with the committed corpora of this package's other string
// targets, whose inputs were kept for tripping the lexer or the parser.
func FuzzTemplateKey(f *testing.F) {
	addQuerySeeds(f)
	for _, target := range []string{"FuzzParse", "FuzzTokenizeMatchesReference"} {
		files, err := filepath.Glob(filepath.Join("testdata", "fuzz", target, "*"))
		if err != nil {
			f.Fatal(err)
		}
		for _, file := range files {
			b, err := os.ReadFile(file)
			if err != nil {
				f.Fatal(err)
			}
			// A corpus file is a header line and one string(...) argument.
			_, arg, _ := strings.Cut(strings.TrimSpace(string(b)), "\n")
			src, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(arg, "string("), ")"))
			if err != nil {
				f.Fatalf("%s: %v", file, err)
			}
			f.Add(src)
		}
	}
	f.Fuzz(func(t *testing.T, src string) {
		want, _, wantOK := sqlparse.ExtractTemplate(src)
		got, ok := sqlparse.TemplateKey(src)
		if got != want || ok != wantOK {
			t.Fatalf("%q: TemplateKey = %q, %v; ExtractTemplate's key = %q, %v", src, got, ok, want, wantOK)
		}
	})
}
