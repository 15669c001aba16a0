package sqlparse

import (
	"reflect"
	"strings"
	"testing"
)

func mustParse(t *testing.T, src string) *SelectStmt {
	t.Helper()
	stmt, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return stmt
}

func TestLexerBasics(t *testing.T) {
	toks, err := Tokenize("SELECT a.b, 'it''s', 3.14 FROM t -- comment\nWHERE x >= 2")
	if err != nil {
		t.Fatal(err)
	}
	var kinds []TokenKind
	var texts []string
	for _, tk := range toks {
		kinds = append(kinds, tk.Kind)
		texts = append(texts, tk.Text)
	}
	if texts[0] != "SELECT" || kinds[0] != TokKeyword {
		t.Fatalf("first token %v %q", kinds[0], texts[0])
	}
	found := false
	for _, s := range texts {
		if s == "it's" {
			found = true
		}
	}
	if !found {
		t.Fatalf("escaped string not lexed: %v", texts)
	}
	if texts[len(texts)-2] != "2" {
		t.Fatalf("comment not skipped: %v", texts)
	}
}

func TestLexerOperators(t *testing.T) {
	toks, err := Tokenize("a <= b >= c <> d != e < f > g = h")
	if err != nil {
		t.Fatal(err)
	}
	var ops []string
	for _, tk := range toks {
		if tk.Kind == TokOp {
			ops = append(ops, tk.Text)
		}
	}
	want := []string{"<=", ">=", "<>", "!=", "<", ">", "="}
	if strings.Join(ops, " ") != strings.Join(want, " ") {
		t.Fatalf("ops = %v, want %v", ops, want)
	}
}

func TestLexerUnterminatedString(t *testing.T) {
	if _, err := Tokenize("SELECT 'oops"); err == nil {
		t.Fatal("expected error for unterminated string")
	}
}

// TestLexerUTF8Identifiers pins that a UTF-8 identifier lexes whole, whatever
// its code points — café's 0xA9 byte is no Latin-1 letter — and that only an
// all-ASCII identifier is a keyword: ſelect and ıs upper-case to SELECT and IS
// under strings.ToUpper, and stay identifiers.
func TestLexerUTF8Identifiers(t *testing.T) {
	toks, err := Tokenize("SELECT café, ſelect FROM t WHERE ıs > 1")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, tk := range toks {
		if tk.Kind == TokIdent {
			got = append(got, tk.Text)
		}
	}
	if want := "café ſelect t ıs"; strings.Join(got, " ") != want {
		t.Fatalf("identifiers = %q, want %q", got, want)
	}
	stmt := mustParse(t, "SELECT café FROM t")
	if len(stmt.Columns) != 1 || ExprString(stmt.Columns[0].Expr) != "café" {
		t.Fatalf("SELECT café FROM t parsed to columns %#v", stmt.Columns)
	}
}

func TestParseSimpleSelect(t *testing.T) {
	stmt := mustParse(t, "SELECT a, b FROM orders WHERE a > 10")
	if len(stmt.Columns) != 2 {
		t.Fatalf("columns = %d", len(stmt.Columns))
	}
	tr, ok := stmt.From.(*TableRef)
	if !ok || tr.Name != "orders" {
		t.Fatalf("from = %#v", stmt.From)
	}
	be, ok := stmt.Where.(*BinaryExpr)
	if !ok || be.Op != ">" {
		t.Fatalf("where = %#v", stmt.Where)
	}
}

func TestParseStar(t *testing.T) {
	stmt := mustParse(t, "SELECT * FROM t")
	if !stmt.Columns[0].Star {
		t.Fatal("star projection not parsed")
	}
}

func TestParseJoinChain(t *testing.T) {
	stmt := mustParse(t, `SELECT o.id FROM orders o
		JOIN customers c ON o.cust_id = c.id
		LEFT JOIN payments p ON o.id = p.order_id`)
	outer, ok := stmt.From.(*JoinExpr)
	if !ok || outer.Kind != "LEFT" {
		t.Fatalf("outer join = %#v", stmt.From)
	}
	inner, ok := outer.Left.(*JoinExpr)
	if !ok || inner.Kind != "INNER" {
		t.Fatalf("inner join = %#v", outer.Left)
	}
	if tr := inner.Left.(*TableRef); tr.Name != "orders" || tr.Alias != "o" {
		t.Fatalf("base table = %#v", inner.Left)
	}
}

func TestParseCommaJoin(t *testing.T) {
	stmt := mustParse(t, "SELECT * FROM a, b, c")
	j1, ok := stmt.From.(*JoinExpr)
	if !ok || j1.Kind != "CROSS" {
		t.Fatalf("comma join = %#v", stmt.From)
	}
	j2, ok := j1.Left.(*JoinExpr)
	if !ok || j2.Kind != "CROSS" {
		t.Fatalf("nested comma join = %#v", j1.Left)
	}
}

func TestParsePredicateVariety(t *testing.T) {
	stmt := mustParse(t, `SELECT * FROM t WHERE
		a IN (1, 2, 3) AND b BETWEEN 5 AND 10
		AND c LIKE 'abc%' AND d IS NOT NULL
		AND NOT (e = 1 OR f <> 2)`)
	// Walk the AND chain and collect leaf types.
	var kinds []string
	var walk func(e Expr)
	walk = func(e Expr) {
		switch v := e.(type) {
		case *BinaryExpr:
			if v.Op == "AND" || v.Op == "OR" {
				walk(v.Left)
				walk(v.Right)
				return
			}
			kinds = append(kinds, "cmp:"+v.Op)
		case *InExpr:
			kinds = append(kinds, "in")
		case *BetweenExpr:
			kinds = append(kinds, "between")
		case *LikeExpr:
			kinds = append(kinds, "like")
		case *IsNullExpr:
			kinds = append(kinds, "isnull")
		case *NotExpr:
			kinds = append(kinds, "not")
		}
	}
	walk(stmt.Where)
	got := strings.Join(kinds, ",")
	want := "in,between,like,isnull,not"
	if got != want {
		t.Fatalf("predicate kinds = %v, want %v", got, want)
	}
}

func TestParseGroupOrderLimit(t *testing.T) {
	stmt := mustParse(t, `SELECT region, COUNT(*) AS n FROM sales
		GROUP BY region HAVING n > 5 ORDER BY region DESC LIMIT 10`)
	if len(stmt.GroupBy) != 1 || stmt.GroupBy[0].Column != "region" {
		t.Fatalf("group by = %#v", stmt.GroupBy)
	}
	if stmt.Having == nil {
		t.Fatal("having not parsed")
	}
	if len(stmt.OrderBy) != 1 || !stmt.OrderBy[0].Desc {
		t.Fatalf("order by = %#v", stmt.OrderBy)
	}
	if stmt.Limit != 10 {
		t.Fatalf("limit = %d", stmt.Limit)
	}
	fe, ok := stmt.Columns[1].Expr.(*FuncExpr)
	if !ok || fe.Name != "COUNT" || !fe.Star {
		t.Fatalf("aggregate = %#v", stmt.Columns[1].Expr)
	}
	if stmt.Columns[1].Alias != "n" {
		t.Fatalf("alias = %q", stmt.Columns[1].Alias)
	}
}

func TestParseSubquery(t *testing.T) {
	stmt := mustParse(t, `SELECT t.x FROM (SELECT a AS x FROM inner_tbl WHERE a > 1) t WHERE t.x < 100`)
	sub, ok := stmt.From.(*SubqueryRef)
	if !ok || sub.Alias != "t" {
		t.Fatalf("subquery = %#v", stmt.From)
	}
	if sub.Query.Where == nil {
		t.Fatal("inner where lost")
	}
}

func TestParseUnionAll(t *testing.T) {
	stmt := mustParse(t, "SELECT a FROM t1 UNION ALL SELECT a FROM t2 UNION ALL SELECT a FROM t3")
	n := 0
	for s := stmt; s != nil; s = s.Union {
		n++
	}
	if n != 3 {
		t.Fatalf("union branches = %d, want 3", n)
	}
}

func TestParseDistinct(t *testing.T) {
	stmt := mustParse(t, "SELECT DISTINCT a FROM t")
	if !stmt.Distinct {
		t.Fatal("distinct not parsed")
	}
}

func TestParseNegativeLiteral(t *testing.T) {
	stmt := mustParse(t, "SELECT * FROM t WHERE a > -5")
	be := stmt.Where.(*BinaryExpr)
	lit := be.Right.(Literal)
	if lit.Value != "-5" {
		t.Fatalf("literal = %q", lit.Value)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT",
		"SELECT a",
		"SELECT a FROM",
		"SELECT a FROM t WHERE",
		"SELECT a FROM t WHERE a >",
		"SELECT a FROM t GROUP region",
		"SELECT a FROM t LIMIT x",
		"SELECT a FROM t UNION SELECT a FROM u", // UNION without ALL unsupported
		"SELECT a FROM t extra garbage here ,,,",
		"SELECT a FROM t WHERE a NOT IS NULL", // the form is IS NOT NULL
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Fatalf("Parse(%q) succeeded, want error", src)
		}
	}
	// Every parser error names the byte offset of the token it stopped at.
	for _, c := range []struct {
		src, want string
	}{
		{"SELECT a FROM t x )", `trailing input ")" at 18`},
		{"SELECT a FROM t LIMIT 1.5", `bad LIMIT "1.5" at 22`},
		{"SELECT a FROM t LIMIT 99999999999999999999", `bad LIMIT "99999999999999999999" at 22`},
		{"SELECT a FROM t WHERE a NOT IS NULL", `NOT must precede IN/BETWEEN/LIKE at 28`},
	} {
		_, err := Parse(c.src)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("Parse(%q) error = %v, want it to contain %q", c.src, err, c.want)
		}
	}
}

// TestParseErrorTexts pins whole error messages: an expectation names the
// keyword or the token kind it wanted, and the token it got, or end of input.
func TestParseErrorTexts(t *testing.T) {
	for _, c := range []struct{ src, want string }{
		{"SELECT FROM t", `sqlparse: expected identifier, got "FROM" at 7`},
		{"SELECT a FROM 5", `sqlparse: expected identifier, got "5" at 14`},
		{"SELECT a FROM t WHERE (a > 1", `sqlparse: expected ")", got end of input at 28`},
		{"SELECT COUNT a FROM t", `sqlparse: expected "(", got "a" at 13`},
		{"SELECT a FROM t WHERE a LIKE 5", `sqlparse: expected string, got "5" at 29`},
		{"SELECT a FROM t LIMIT x", `sqlparse: expected number, got "x" at 22`},
		{"SELECT a", `sqlparse: expected "FROM", got end of input at 8`},
		{"SELECT a FROM t GROUP region", `sqlparse: expected "BY", got "region" at 22`},
		{"SELECT a FROM t WHERE a >", `sqlparse: expected literal, got end of input at 25`},
		{"SELECT a FROM t WHERE a", `sqlparse: expected comparison operator, got end of input at 23`},
		{"SELECT a FROM t WHERE a NOT IS NULL", `sqlparse: NOT must precede IN/BETWEEN/LIKE at 28`},
	} {
		_, err := Parse(c.src)
		if err == nil || err.Error() != c.want {
			t.Errorf("Parse(%q) error = %v, want %s", c.src, err, c.want)
		}
	}
}

func TestExprStringRoundTripTokens(t *testing.T) {
	stmt := mustParse(t, "SELECT * FROM t WHERE a.b >= 10 AND c IN (1, 2) OR d LIKE 'x%'")
	s := ExprString(stmt.Where)
	for _, frag := range []string{"a.b >= 10", "IN (1, 2)", "LIKE 'x%'", "AND", "OR"} {
		if !strings.Contains(s, frag) {
			t.Fatalf("ExprString = %q missing %q", s, frag)
		}
	}
}

// TestParseKeepsNoPooledTokens: Parse lexes into a pooled buffer that it
// clears and the next parse overwrites, so no AST may point into it. A
// statement parsed before a run of other parses — erroring ones included —
// must still equal, field for field, one parsed from tokens Tokenize made,
// which nothing reuses.
func TestParseKeepsNoPooledTokens(t *testing.T) {
	const src = "SELECT d.name AS n, COUNT(*) FROM drivers d JOIN (SELECT id FROM cars WHERE x IN (1, 'a''b')) c ON d.id = c.id " +
		"WHERE d.rating BETWEEN 1 AND 3 AND d.city LIKE 'sg%' GROUP BY d.name ORDER BY d.name DESC LIMIT 7"
	first := mustParse(t, src)
	for _, other := range []string{
		"SELECT zz FROM qq WHERE yy = 'overwritten' UNION ALL SELECT ww FROM vv",
		"SELECT a FROM",
		"SELECT 'unterminated FROM t",
		strings.Repeat("SELECT x FROM t UNION ALL ", 40) + "SELECT y FROM u",
	} {
		Parse(other)
	}
	toks, err := Tokenize(src)
	if err != nil {
		t.Fatal(err)
	}
	want, err := parseTokens(toks)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, want) {
		t.Fatalf("a statement changed after later parses:\n%#v\nwant\n%#v", first, want)
	}
}
