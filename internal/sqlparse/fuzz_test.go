package sqlparse_test

import (
	"strings"
	"testing"

	"prestroid/internal/logicalplan"
	"prestroid/internal/sqlparse"
	"prestroid/internal/tensor"
	"prestroid/internal/workload"
)

// FuzzParse holds the parser to two properties. No input panics Parse or
// ExtractTemplate (the fuzz engine fails on any panic). And the serve miss
// path's invariant: whenever a query parses and yields a template, a skeleton
// of that template rebound with the query's own literals plans exactly as
// the full parse does — the same Explain text, or an error on both sides.
// Two skeletons are tried: the query's own parse, and the parse of another
// literal variant of its template, the one with every number 0 and every
// string empty, which is how a template cache entry seeded by an earlier
// query meets a later one.
func FuzzParse(f *testing.F) {
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
	f.Fuzz(func(t *testing.T, src string) {
		stmt, perr := sqlparse.Parse(src)
		key, lits, ok := sqlparse.ExtractTemplate(src)
		if perr != nil || !ok {
			return
		}
		want, werr := logicalplan.Plan(stmt)
		skeletons := []*sqlparse.SelectStmt{stmt}
		variant := strings.NewReplacer("?n", "0", "?s", "''").Replace(key)
		if vkey, _, ok := sqlparse.ExtractTemplate(variant); ok && vkey == key {
			v, err := sqlparse.Parse(variant)
			if err != nil {
				t.Fatalf("%q parses but its template's variant %q does not: %v", src, variant, err)
			}
			skeletons = append(skeletons, v)
		}
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
