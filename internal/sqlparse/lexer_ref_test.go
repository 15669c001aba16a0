package sqlparse_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"unicode"

	"prestroid/internal/sqlparse"
	"prestroid/internal/workload"
)

// The lexer as it stood before the table-driven rewrite, kept verbatim
// (identifiers renamed, package names qualified) as the oracle the rewrite is
// held to: the same tokens — Kind, Text, Pos — and the same error strings on
// every input, non-ASCII bytes included. It sits in the external test package
// because the workload generators it is checked on import sqlparse. One
// change since: it read each byte as Latin-1, so SELECT café FROM t failed at
// '©' (0xA9); now, like the lexer, it takes every byte at or above 0x80 as an
// identifier byte, and only an all-ASCII identifier can be a keyword, so
// ſelect stays an identifier though strings.ToUpper maps it to SELECT.

var refKeywords = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "JOIN": true, "INNER": true,
	"LEFT": true, "RIGHT": true, "FULL": true, "OUTER": true, "CROSS": true,
	"ON": true, "AND": true, "OR": true, "NOT": true, "GROUP": true,
	"BY": true, "ORDER": true, "HAVING": true, "LIMIT": true, "AS": true,
	"UNION": true, "ALL": true, "DISTINCT": true, "IN": true, "BETWEEN": true,
	"LIKE": true, "IS": true, "NULL": true, "ASC": true, "DESC": true,
	"COUNT": true, "SUM": true, "AVG": true, "MIN": true, "MAX": true,
	"CASE": true, "WHEN": true, "THEN": true, "ELSE": true, "END": true,
}

// refLexer splits SQL text into tokens.
type refLexer struct {
	src string
	pos int
}

// newRefLexer returns a lexer over src.
func newRefLexer(src string) *refLexer { return &refLexer{src: src} }

// Next returns the next token, or a sqlparse.TokEOF token at end of input.
func (l *refLexer) Next() (sqlparse.Token, error) {
	l.refSkipSpace()
	if l.pos >= len(l.src) {
		return sqlparse.Token{Kind: sqlparse.TokEOF, Pos: l.pos}, nil
	}
	start := l.pos
	c := l.src[l.pos]
	switch {
	case c == ',':
		l.pos++
		return sqlparse.Token{Kind: sqlparse.TokComma, Text: ",", Pos: start}, nil
	case c == '(':
		l.pos++
		return sqlparse.Token{Kind: sqlparse.TokLParen, Text: "(", Pos: start}, nil
	case c == ')':
		l.pos++
		return sqlparse.Token{Kind: sqlparse.TokRParen, Text: ")", Pos: start}, nil
	case c == '.':
		l.pos++
		return sqlparse.Token{Kind: sqlparse.TokDot, Text: ".", Pos: start}, nil
	case c == '*':
		l.pos++
		return sqlparse.Token{Kind: sqlparse.TokStar, Text: "*", Pos: start}, nil
	case c == '\'':
		return l.refLexString()
	case refIsDigit(c):
		return l.refLexNumber()
	case refIsIdentStart(c):
		return l.refLexIdent()
	case strings.ContainsRune("<>=!+-/%", rune(c)):
		return l.refLexOp()
	default:
		return sqlparse.Token{}, fmt.Errorf("sqlparse: unexpected character %q at %d", c, start)
	}
}

// refTokenize lexes the whole input eagerly.
func refTokenize(src string) ([]sqlparse.Token, error) {
	lx := newRefLexer(src)
	var toks []sqlparse.Token
	for {
		t, err := lx.Next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.Kind == sqlparse.TokEOF {
			return toks, nil
		}
	}
}

func (l *refLexer) refSkipSpace() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			l.pos++
			continue
		}
		// Line comments: -- to end of line.
		if c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '-' {
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
			continue
		}
		return
	}
}

func (l *refLexer) refLexString() (sqlparse.Token, error) {
	start := l.pos
	l.pos++ // opening quote
	var b strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '\'' {
			// Doubled quote is an escaped quote.
			if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' {
				b.WriteByte('\'')
				l.pos += 2
				continue
			}
			l.pos++
			return sqlparse.Token{Kind: sqlparse.TokString, Text: b.String(), Pos: start}, nil
		}
		b.WriteByte(c)
		l.pos++
	}
	return sqlparse.Token{}, fmt.Errorf("sqlparse: unterminated string at %d", start)
}

func (l *refLexer) refLexNumber() (sqlparse.Token, error) {
	start := l.pos
	seenDot := false
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if refIsDigit(c) {
			l.pos++
		} else if c == '.' && !seenDot && l.pos+1 < len(l.src) && refIsDigit(l.src[l.pos+1]) {
			seenDot = true
			l.pos++
		} else {
			break
		}
	}
	return sqlparse.Token{Kind: sqlparse.TokNumber, Text: l.src[start:l.pos], Pos: start}, nil
}

func (l *refLexer) refLexIdent() (sqlparse.Token, error) {
	start := l.pos
	for l.pos < len(l.src) && refIsIdentPart(l.src[l.pos]) {
		l.pos++
	}
	text := l.src[start:l.pos]
	if refIsASCII(text) && refKeywords[strings.ToUpper(text)] {
		return sqlparse.Token{Kind: sqlparse.TokKeyword, Text: strings.ToUpper(text), Pos: start}, nil
	}
	return sqlparse.Token{Kind: sqlparse.TokIdent, Text: text, Pos: start}, nil
}

func (l *refLexer) refLexOp() (sqlparse.Token, error) {
	start := l.pos
	c := l.src[l.pos]
	l.pos++
	if l.pos < len(l.src) {
		two := string(c) + string(l.src[l.pos])
		switch two {
		case "<=", ">=", "<>", "!=":
			l.pos++
			return sqlparse.Token{Kind: sqlparse.TokOp, Text: two, Pos: start}, nil
		}
	}
	return sqlparse.Token{Kind: sqlparse.TokOp, Text: string(c), Pos: start}, nil
}

func refIsDigit(c byte) bool      { return c >= '0' && c <= '9' }
func refIsIdentStart(c byte) bool { return c == '_' || c >= 0x80 || unicode.IsLetter(rune(c)) }
func refIsIdentPart(c byte) bool  { return refIsIdentStart(c) || refIsDigit(c) }

func refIsASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= 0x80 {
			return false
		}
	}
	return true
}

// checkMatchesReference fails t when Tokenize and refTokenize disagree on
// src: a different token in any field, or a different error string.
func checkMatchesReference(t *testing.T, src string) {
	t.Helper()
	got, gotErr := sqlparse.Tokenize(src)
	want, wantErr := refTokenize(src)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("Tokenize(%q) error %v, reference %v", src, gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Tokenize(%q) =\n%v\nreference\n%v", src, got, want)
	}
}

// workloadSQL is the SQL of every workload generator, at sizes the
// experiments use at test scale.
func workloadSQL(t testing.TB) []string {
	t.Helper()
	grab := workload.DefaultGrabConfig()
	grab.Queries = 600
	tpcds := workload.DefaultTPCDSConfig()
	tpcds.Queries = 200
	var out []string
	for _, traces := range [][]*workload.Trace{
		workload.NewGrabGenerator(grab).Generate(),
		workload.NewTPCDSGenerator(tpcds).Generate(),
		workload.NewTPCHGenerator(workload.DefaultTPCHConfig()).Generate(),
	} {
		for _, tr := range traces {
			out = append(out, tr.SQL)
		}
	}
	return out
}

// adversarialSQL holds the inputs where a table-driven lexer could part
// from the predicate-driven one: every byte as an identifier's start and
// part, non-ASCII letters whose upper case is ASCII, keywords in mixed case
// and one byte too long, escaped and unterminated strings, and operators
// and comment openers at end of input.
func adversarialSQL() []string {
	out := []string{
		"", " ", "\t\n\r ", "ſelect", "SELECT ſum(a) FROM t", "ıs", "a ıs NULL",
		"café", "SELECT café FROM t", "Ã", "ÿ", "µ", "ª", "º",
		"select", "SeLeCt", "sElEcT a FrOm t", "distinct", "DiStInCt", "DISTINCTX",
		"distincts", "BETWEENX", "betweenx", "selectselect", "ANDOR", "a_1", "_",
		"'it''s'", "''", "''''", "'a''", "'''", "'unterminated", "'", "'abc''x",
		"x = 'a''b''c' AND y = 'd'", "'--' -- '", "'\n'",
		"a <", "a <=", "<", "!", "a !", "<>", "a !=", "a ! = b", "%", "a /",
		"a --", "--", "-- comment", "a -- c\nb", "-", "a -", "a-b", "a--b\nc",
		"3.", "3.14.15", "1..2", ".5", "007", "3.x", "12ab",
		"SELECT * FROM t WHERE a >= 1 AND b <> 'x' OR c != 2",
	}
	for c := 0; c < 256; c++ {
		b := string([]byte{byte(c)})
		out = append(out, b, b+"x", "x"+b, "x"+b+"y", "SELECT "+b+"a FROM t", "a"+b+"1")
	}
	return out
}

// TestTokenizeMatchesReference runs both lexers over every workload
// generator's SQL and the adversarial table.
func TestTokenizeMatchesReference(t *testing.T) {
	generated := workloadSQL(t)
	for _, src := range append(generated, adversarialSQL()...) {
		checkMatchesReference(t, src)
	}
	// Upper-cased, lower-cased and mixed-case generator SQL moves every
	// keyword through the case folding.
	for i, src := range generated {
		if i%10 != 0 {
			continue
		}
		checkMatchesReference(t, strings.ToLower(src))
		checkMatchesReference(t, strings.ToUpper(src))
		checkMatchesReference(t, strings.Map(func(r rune) rune {
			if r%2 == 0 {
				return unicode.ToUpper(r)
			}
			return r
		}, src))
	}
}

// FuzzTokenizeMatchesReference runs both lexers over arbitrary bytes.
func FuzzTokenizeMatchesReference(f *testing.F) {
	for _, src := range adversarialSQL()[:60] {
		f.Add(src)
	}
	f.Add("SELECT café, ſelect FROM t WHERE ıs > 1")
	f.Add("ſelect café")
	f.Fuzz(func(t *testing.T, src string) {
		checkMatchesReference(t, src)
	})
}

// TestExtractTemplateAllocs pins that lexing allocates nothing per token:
// ExtractTemplate on a Grab query repeated 16 times (16x the tokens) may
// allocate only what its growing buffers — the template key's, sized from
// the source, and the literal vector — add, never an allocation per token; and
// Tokenize allocates its presized token slice and nothing else. The lexer
// before the rewrite allocated twice per identifier.
func TestExtractTemplateAllocs(t *testing.T) {
	src := workloadSQL(t)[0]
	allocs := func(sql string) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, _, ok := sqlparse.ExtractTemplate(sql); !ok {
				t.Fatalf("ExtractTemplate failed on %q", sql)
			}
		})
	}
	one := allocs(src)
	many := allocs(strings.TrimSpace(strings.Repeat(src+" ", 16)))
	toks, err := sqlparse.Tokenize(src)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d tokens: %.0f allocs; 16 copies: %.0f allocs", len(toks), one, many)
	if one > 8 {
		t.Errorf("ExtractTemplate on a %d-token query: %.0f allocs, want <= 8", len(toks), one)
	}
	// Two doubling buffers, 16x the contents: at most four more growths each.
	if many > one+8 {
		t.Errorf("16x the tokens: %.0f allocs against %.0f, want at most %.0f", many, one, one+8)
	}
	if n := testing.AllocsPerRun(20, func() {
		if _, err := sqlparse.Tokenize(src); err != nil {
			t.Fatal(err)
		}
	}); n != 1 {
		t.Errorf("Tokenize on a %d-token query: %.0f allocs, want 1", len(toks), n)
	}
}
