package sqlparse

import (
	"reflect"
	"strings"
	"testing"
)

func TestExtractTemplateBasics(t *testing.T) {
	tmpl, lits, ok := ExtractTemplate("select a, b from t where a > 5 and name = 'bob''s' limit 3")
	if !ok {
		t.Fatal("extract failed")
	}
	want := "SELECT a , b FROM t WHERE a > ?n AND name = ?s LIMIT ?n"
	if tmpl != want {
		t.Fatalf("template %q, want %q", tmpl, want)
	}
	wantLits := []TemplateLiteral{
		{Text: "5"},
		{Text: "bob's", IsString: true},
		{Text: "3"},
	}
	if !reflect.DeepEqual(lits, wantLits) {
		t.Fatalf("literals %+v, want %+v", lits, wantLits)
	}
}

func TestExtractTemplateEquivalence(t *testing.T) {
	a, _, ok := ExtractTemplate("SELECT a FROM t WHERE a > 5 AND b < 9 LIMIT 10")
	if !ok {
		t.Fatal("extract a failed")
	}
	b, _, ok := ExtractTemplate("select  a\nfrom t -- comment\nwhere a > 123 and b < 4 limit 1")
	if !ok {
		t.Fatal("extract b failed")
	}
	if a != b {
		t.Fatalf("literal variants should share a template:\n  %q\n  %q", a, b)
	}
}

func TestExtractTemplateKindDistinct(t *testing.T) {
	a, _, _ := ExtractTemplate("SELECT a FROM t WHERE name LIKE 'x%'")
	b, _, _ := ExtractTemplate("SELECT a FROM t WHERE name = 'x'")
	if a == b {
		t.Fatal("different grammar shapes must not share a template")
	}
	num, _, _ := ExtractTemplate("SELECT a FROM t WHERE a = 5")
	str, _, _ := ExtractTemplate("SELECT a FROM t WHERE a = '5'")
	if num == str {
		t.Fatal("numeric and string literals must produce distinct templates")
	}
}

func TestExtractTemplateNegativeLiteral(t *testing.T) {
	a, litsA, ok := ExtractTemplate("SELECT a FROM t WHERE a > -5")
	if !ok {
		t.Fatal("extract failed")
	}
	if !strings.Contains(a, "- ?n") {
		t.Fatalf("sign should stay in the template: %q", a)
	}
	if len(litsA) != 1 || litsA[0].Text != "5" {
		t.Fatalf("slot should carry digits only: %+v", litsA)
	}
	b, _, _ := ExtractTemplate("SELECT a FROM t WHERE a > 5")
	if a == b {
		t.Fatal("negative and positive literal positions must differ in the template")
	}
}

func TestExtractTemplateLexError(t *testing.T) {
	if _, _, ok := ExtractTemplate("SELECT a FROM t WHERE name = 'unterminated"); ok {
		t.Fatal("lex error should report ok=false")
	}
	if _, _, ok := ExtractTemplate("   "); ok {
		t.Fatal("empty input should report ok=false")
	}
}

// TestExtractTemplateLimit pins the one literal-value check ExtractTemplate
// shares with the parser: a number after LIMIT that strconv.Atoi rejects
// (fractional or out of range, in either arm of a UNION ALL) yields no
// template, so the caller's full parse reports the parser's own error; one
// Atoi accepts, leading zeros included, templates as usual.
func TestExtractTemplateLimit(t *testing.T) {
	for _, c := range []struct {
		src, key, parseErr string // key "" means ok=false
	}{
		{"SELECT a FROM t LIMIT 1.5", "", `sqlparse: bad LIMIT "1.5" at 22`},
		{"SELECT a FROM t LIMIT 99999999999999999999", "", `sqlparse: bad LIMIT "99999999999999999999" at 22`},
		{"SELECT a FROM t LIMIT 007", "SELECT a FROM t LIMIT ?n", ""},
		{"SELECT a FROM t LIMIT 3 UNION ALL SELECT b FROM u LIMIT 7",
			"SELECT a FROM t LIMIT ?n UNION ALL SELECT b FROM u LIMIT ?n", ""},
		{"SELECT a FROM t LIMIT 3 UNION ALL SELECT b FROM u LIMIT 2.5", "", `sqlparse: bad LIMIT "2.5" at 56`},
		{"SELECT a FROM t LIMIT 0.5 UNION ALL SELECT b FROM u LIMIT 2", "", `sqlparse: bad LIMIT "0.5" at 22`},
	} {
		key, _, ok := ExtractTemplate(c.src)
		if ok != (c.key != "") || key != c.key {
			t.Errorf("ExtractTemplate(%q) = %q, %v; want %q, %v", c.src, key, ok, c.key, c.key != "")
		}
		_, err := Parse(c.src)
		if (err == nil) != (c.parseErr == "") || (err != nil && err.Error() != c.parseErr) {
			t.Errorf("Parse(%q) error %v, want %q", c.src, err, c.parseErr)
		}
	}
}

// rebindQueries pairs a skeleton query with a literal-variant of the same
// template, covering every literal grammar position: comparisons, negative
// numbers, IN lists, BETWEEN / NOT BETWEEN, LIKE, LIMIT, literals inside ON,
// derived tables, UNION ALL branches and HAVING.
var rebindQueries = []struct{ skeleton, variant string }{
	{"SELECT a FROM t WHERE a > 5", "SELECT a FROM t WHERE a > 42"},
	{"SELECT a FROM t WHERE a > -5", "SELECT a FROM t WHERE a > -7"},
	{"SELECT a, b FROM t WHERE a = 1 AND b = 'x' OR a < 3",
		"SELECT a, b FROM t WHERE a = 9 AND b = 'yy' OR a < 8"},
	{"SELECT a FROM t WHERE a IN (1, 2, 3) AND b NOT IN ('x', 'y')",
		"SELECT a FROM t WHERE a IN (7, 8, 9) AND b NOT IN ('p', 'q')"},
	{"SELECT a FROM t WHERE a BETWEEN 1 AND 10 AND b NOT BETWEEN 2 AND 4",
		"SELECT a FROM t WHERE a BETWEEN 5 AND 50 AND b NOT BETWEEN 6 AND 8"},
	{"SELECT a FROM t WHERE name LIKE 'x%' AND alt NOT LIKE 'y_'",
		"SELECT a FROM t WHERE name LIKE 'z%%' AND alt NOT LIKE 'w'"},
	{"SELECT a FROM t WHERE a IS NULL OR b IS NOT NULL",
		"SELECT a FROM t WHERE a IS NULL OR b IS NOT NULL"},
	{"SELECT a, b FROM t JOIN u ON t.id = u.id AND u.v > 3 WHERE a > 1 ORDER BY a LIMIT 7",
		"SELECT a, b FROM t JOIN u ON t.id = u.id AND u.v > 30 WHERE a > 10 ORDER BY a LIMIT 70"},
	{"SELECT a FROM t, u, v WHERE t.a = 1", "SELECT a FROM t, u, v WHERE t.a = 2"},
	{"SELECT x FROM (SELECT a AS x FROM t WHERE a > 2 LIMIT 5) d WHERE x < 9",
		"SELECT x FROM (SELECT a AS x FROM t WHERE a > 20 LIMIT 50) d WHERE x < 90"},
	{"SELECT a FROM t WHERE a > 1 UNION ALL SELECT a FROM u WHERE a < 2 LIMIT 3",
		"SELECT a FROM t WHERE a > 10 UNION ALL SELECT a FROM u WHERE a < 20 LIMIT 30"},
	{"SELECT a, COUNT(*) FROM t GROUP BY a HAVING a > 4 ORDER BY a DESC",
		"SELECT a, COUNT(*) FROM t GROUP BY a HAVING a > 44 ORDER BY a DESC"},
	{"SELECT DISTINCT a FROM t LEFT OUTER JOIN u ON t.id = u.id WHERE u.x = 'v' LIMIT 2",
		"SELECT DISTINCT a FROM t LEFT OUTER JOIN u ON t.id = u.id WHERE u.x = 'other' LIMIT 12"},
}

func TestRebindMatchesFullParse(t *testing.T) {
	for _, q := range rebindQueries {
		skel, err := Parse(q.skeleton)
		if err != nil {
			t.Fatalf("parse skeleton %q: %v", q.skeleton, err)
		}
		st, sl, ok := ExtractTemplate(q.skeleton)
		if !ok {
			t.Fatalf("extract skeleton %q failed", q.skeleton)
		}
		vt, vl, ok := ExtractTemplate(q.variant)
		if !ok {
			t.Fatalf("extract variant %q failed", q.variant)
		}
		if st != vt {
			t.Fatalf("pair does not share a template:\n  %q\n  %q", st, vt)
		}
		rebound, err := skel.Rebind(vl)
		if err != nil {
			t.Fatalf("rebind %q: %v", q.variant, err)
		}
		direct, err := Parse(q.variant)
		if err != nil {
			t.Fatalf("parse variant %q: %v", q.variant, err)
		}
		if !reflect.DeepEqual(rebound, direct) {
			t.Errorf("rebind diverges from full parse for %q:\n  rebound: %+v\n  direct:  %+v",
				q.variant, rebound, direct)
		}
		// The skeleton itself must round-trip through its own literals too.
		self, err := skel.Rebind(sl)
		if err != nil {
			t.Fatalf("self-rebind %q: %v", q.skeleton, err)
		}
		if !reflect.DeepEqual(self, skel) {
			t.Errorf("self-rebind diverges for %q", q.skeleton)
		}
	}
}

func TestRebindDoesNotMutateSkeleton(t *testing.T) {
	const src = "SELECT a FROM t JOIN u ON t.id = u.id WHERE a IN (1, 2) AND b LIKE 'x' LIMIT 5"
	skel, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	pristine, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	_, lits, _ := ExtractTemplate("SELECT a FROM t JOIN u ON t.id = u.id WHERE a IN (8, 9) AND b LIKE 'q' LIMIT 50")
	if _, err := skel.Rebind(lits); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(skel, pristine) {
		t.Fatal("rebind mutated the cached skeleton")
	}
}

func TestRebindErrors(t *testing.T) {
	skel, err := Parse("SELECT a FROM t WHERE a > 5 LIMIT 3")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := skel.Rebind([]TemplateLiteral{{Text: "1"}}); err == nil {
		t.Error("too few literals should fail")
	}
	if _, err := skel.Rebind([]TemplateLiteral{{Text: "1"}, {Text: "2"}, {Text: "3"}}); err == nil {
		t.Error("too many literals should fail")
	}
	if _, err := skel.Rebind([]TemplateLiteral{{Text: "x", IsString: true}, {Text: "2"}}); err == nil {
		t.Error("kind mismatch should fail")
	}
	// LIMIT re-validation: "LIMIT 1.5" shares the skeleton's template but the
	// parser would reject it, so the rebind path must reject it too.
	if _, err := skel.Rebind([]TemplateLiteral{{Text: "1"}, {Text: "1.5"}}); err == nil {
		t.Error("fractional LIMIT should fail on the rebind path")
	}
}
