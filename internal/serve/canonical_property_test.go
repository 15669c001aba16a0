package serve

import (
	"math/rand"
	"strings"
	"testing"

	"prestroid/internal/sqlparse"
)

// The cache-key contract is that canonicalisation never merges queries it
// cannot prove identical: CanonicalSQL may only rewrite what the lexer
// ignores. The property pinning that is token-stream preservation — for any
// query, CanonicalSQL(sql) must lex to the exact same token stream as sql.
// The generator below assembles queries from lexically valid pieces joined
// by adversarial junk: runs of mixed whitespace, `--` line comments (with
// and without a terminating newline), and string literals containing
// spaces, `--` and doubled quotes.

var genPieces = []string{
	"SELECT", "FROM", "WHERE", "AND", "OR", "ORDER", "BY", "LIMIT",
	"JOIN", "ON", "GROUP", "IN", "BETWEEN", "NOT",
	"a", "B", "tbl_1", "Name", "t", "u", "x9",
	"1", "42", "3.14", "0",
	"<", ">", "=", "<=", ">=", "<>", "!=", "+", "-", "/", "%",
	",", "(", ")", ".", "*",
	"'a  b'", "'-- not a comment'", "'it''s'", "'x\ty'", "''",
}

var genSpaces = []string{" ", "  ", "\t", "\n", "\r\n", " \t ", "\n\n", " \r "}

var genComments = []string{
	"-- note",
	"--",
	"-- WHERE x > 1",
	"-- 'quoted' -- nested",
	"--\t trailing\t",
}

// genQuery assembles one random query. Every piece is separated by at least
// one whitespace run, optionally fattened with line comments; a comment
// that ends up without a trailing newline swallows the rest of the query,
// which the lexer and CanonicalSQL must agree on.
func genQuery(rng *rand.Rand) string {
	var b strings.Builder
	n := 2 + rng.Intn(14)
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteString(genSpaces[rng.Intn(len(genSpaces))])
			if rng.Intn(6) == 0 {
				b.WriteString(genComments[rng.Intn(len(genComments))])
				if rng.Intn(8) != 0 { // usually terminate the comment
					b.WriteString("\n")
				} else {
					b.WriteString(" ") // comment swallows the tail
				}
			}
		}
		b.WriteString(genPieces[rng.Intn(len(genPieces))])
	}
	if rng.Intn(4) == 0 {
		b.WriteString(genSpaces[rng.Intn(len(genSpaces))])
		b.WriteString(genComments[rng.Intn(len(genComments))])
	}
	return b.String()
}

func tokenStream(t *testing.T, src string) ([]sqlparse.Token, bool) {
	t.Helper()
	toks, err := sqlparse.Tokenize(src)
	if err != nil {
		return nil, false
	}
	return toks, true
}

// TestCanonicalSQLPreservesTokenStream is the property test over the
// generated corpus: canonicalisation preserves the token stream exactly
// (kind and text; positions are the one thing allowed to move) and is
// idempotent, so a canonical key re-canonicalises to itself.
func TestCanonicalSQLPreservesTokenStream(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		sql := genQuery(rng)
		canon := CanonicalSQL(sql)
		orig, okOrig := tokenStream(t, sql)
		got, okCanon := tokenStream(t, canon)
		if okOrig != okCanon {
			t.Fatalf("case %d: lexability changed: sql %q (ok=%v) vs canonical %q (ok=%v)",
				i, sql, okOrig, canon, okCanon)
		}
		if !okOrig {
			continue
		}
		if len(orig) != len(got) {
			t.Fatalf("case %d: token count %d != %d\nsql: %q\ncanonical: %q", i, len(orig), len(got), sql, canon)
		}
		for j := range orig {
			if orig[j].Kind != got[j].Kind || orig[j].Text != got[j].Text {
				t.Fatalf("case %d token %d: %v %q != %v %q\nsql: %q\ncanonical: %q",
					i, j, orig[j].Kind, orig[j].Text, got[j].Kind, got[j].Text, sql, canon)
			}
		}
		if again := CanonicalSQL(canon); again != canon {
			t.Fatalf("case %d: not idempotent:\nonce:  %q\ntwice: %q", i, canon, again)
		}
	}
}

// TestCanonicalFastPathAgrees pins the zero-allocation fast path to the
// rewriting path over the same adversarial corpus: canonicalAlready must
// claim a query exactly when the rewriter would return it unchanged, on both
// the raw generated queries and their canonical forms.
func TestCanonicalFastPathAgrees(t *testing.T) {
	check := func(i int, sql string) {
		t.Helper()
		rewritten := canonicalizeSQL(sql)
		if got, want := canonicalAlready(sql), rewritten == sql; got != want {
			t.Fatalf("case %d: canonicalAlready(%q) = %v, rewriter %s",
				i, sql, got, map[bool]string{true: "agrees", false: "disagrees"}[want])
		}
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 5000; i++ {
		sql := genQuery(rng)
		check(i, sql)
		check(i, canonicalizeSQL(sql))
	}
}

// TestCanonicalSQLZeroAllocs asserts the hoisted-allocation contract: a
// query already in canonical form — the steady-state shape every repeat
// client sends — passes through CanonicalSQL without allocating.
func TestCanonicalSQLZeroAllocs(t *testing.T) {
	sql := "SELECT a, b FROM t JOIN u ON t.id = u.id WHERE a > 42 AND b < 7 ORDER BY a LIMIT 3"
	if CanonicalSQL(sql) != sql {
		t.Fatalf("test query is not canonical: %q", CanonicalSQL(sql))
	}
	var sink string
	allocs := testing.AllocsPerRun(100, func() {
		sink = CanonicalSQL(sql)
	})
	_ = sink
	if allocs != 0 {
		t.Fatalf("CanonicalSQL on canonical input allocates %.1f/op, want 0", allocs)
	}
}

// FuzzCanonicalSQL holds CanonicalSQL's fast path to its rewriter on
// arbitrary text: canonicalAlready claims a query exactly when
// canonicalizeSQL returns it unchanged, and canonicalising is idempotent. The
// seeds are the property tests' generated queries plus hand-picked runs of
// tabs, comment openers and quotes (see testdata/fuzz).
func FuzzCanonicalSQL(f *testing.F) {
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 64; i++ {
		f.Add(genQuery(rng))
	}
	f.Fuzz(func(t *testing.T, sql string) {
		if got, want := canonicalAlready(sql), canonicalizeSQL(sql) == sql; got != want {
			t.Fatalf("canonicalAlready(%q) = %v, canonicalizeSQL(%q) == input is %v", sql, got, sql, want)
		}
		once := CanonicalSQL(sql)
		if twice := CanonicalSQL(once); twice != once {
			t.Fatalf("CanonicalSQL is not idempotent on %q:\nonce:  %q\ntwice: %q", sql, once, twice)
		}
	})
}
