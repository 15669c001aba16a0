// Package sqlparse implements a lexer and recursive-descent parser for the
// SQL subset appearing in the reproduced query workloads: SELECT queries
// with joins, WHERE conjunction trees, grouping, ordering, limits, UNION ALL
// and derived tables. Parsed queries are lowered to logical plans by
// internal/logicalplan, mirroring the paper's "EXPLAIN <text>" extraction
// step that obtains a plan without executing the query.
package sqlparse

import (
	"fmt"
	"strings"
	"sync"
)

// TokenKind classifies lexical tokens.
type TokenKind int

// Token kinds.
const (
	TokEOF TokenKind = iota
	TokIdent
	TokKeyword
	TokNumber
	TokString
	TokOp // comparison and arithmetic operators
	TokComma
	TokLParen
	TokRParen
	TokDot
	TokStar
)

// Token is a single lexical unit with its source position.
type Token struct {
	Kind TokenKind
	Text string
	Pos  int
}

// keywordsByShape buckets the keywords by length and first letter, so a
// lookup compares an identifier with the one to four keywords of its shape
// and returns the keyword's own string: a keyword token's Text never
// allocates.
var keywordsByShape [maxKeywordLen + 1][26][]string

// maxKeywordLen bounds the identifiers worth a keyword lookup: DISTINCT is
// the longest keyword.
const maxKeywordLen = 8

// identStart and identPart classify a byte as it may begin or continue an
// identifier: '_', an ASCII letter, and (identPart) a digit, plus every byte
// at or above 0x80, so a UTF-8 identifier such as café lexes whole, whatever
// its code points are.
var identStart, identPart [256]bool

func init() {
	for _, kw := range []string{
		"SELECT", "FROM", "WHERE", "JOIN", "INNER",
		"LEFT", "RIGHT", "FULL", "OUTER", "CROSS",
		"ON", "AND", "OR", "NOT", "GROUP",
		"BY", "ORDER", "HAVING", "LIMIT", "AS",
		"UNION", "ALL", "DISTINCT", "IN", "BETWEEN",
		"LIKE", "IS", "NULL", "ASC", "DESC",
		"COUNT", "SUM", "AVG", "MIN", "MAX",
		"CASE", "WHEN", "THEN", "ELSE", "END",
	} {
		shape := &keywordsByShape[len(kw)][kw[0]-'A']
		*shape = append(*shape, kw)
	}
	for i := range identStart {
		c := byte(i)
		lower := c | 0x20 // ASCII letters to lower case
		identStart[i] = c == '_' || 'a' <= lower && lower <= 'z' || c >= 0x80
		identPart[i] = identStart[i] || isDigit(c)
	}
}

// Lexer splits SQL text into tokens. Every token's Text is a slice of the
// source or an interned constant — only Next's unescape of a string literal
// with an escaped (doubled) quote allocates — so lexing costs no allocation
// per token.
type Lexer struct {
	src string
	pos int
}

// NewLexer returns a lexer over src.
func NewLexer(src string) *Lexer { return &Lexer{src: src} }

// Next returns the next token, or a TokEOF token at end of input.
func (l *Lexer) Next() (Token, error) {
	t, err := l.scan()
	if t.Kind == TokString && strings.Contains(t.Text, "''") {
		t.Text = strings.ReplaceAll(t.Text, "''", "'")
	}
	return t, err
}

// scan is Next without the unescape: a string literal's Text is its raw body
// between the quotes, each escaped quote still doubled, so scan never
// allocates. Template scans, which need no literal's value, read tokens here.
func (l *Lexer) scan() (Token, error) {
	l.skipSpace()
	if l.pos >= len(l.src) {
		return Token{Kind: TokEOF, Pos: l.pos}, nil
	}
	start := l.pos
	c := l.src[l.pos]
	switch {
	case c == ',':
		l.pos++
		return Token{Kind: TokComma, Text: ",", Pos: start}, nil
	case c == '(':
		l.pos++
		return Token{Kind: TokLParen, Text: "(", Pos: start}, nil
	case c == ')':
		l.pos++
		return Token{Kind: TokRParen, Text: ")", Pos: start}, nil
	case c == '.':
		l.pos++
		return Token{Kind: TokDot, Text: ".", Pos: start}, nil
	case c == '*':
		l.pos++
		return Token{Kind: TokStar, Text: "*", Pos: start}, nil
	case c == '\'':
		return l.lexString()
	case isDigit(c):
		return l.lexNumber()
	case identStart[c]:
		return l.lexIdent()
	case strings.ContainsRune("<>=!+-/%", rune(c)):
		return l.lexOp()
	default:
		return Token{}, fmt.Errorf("sqlparse: unexpected character %q at %d", c, start)
	}
}

// Tokenize lexes the whole input eagerly into a slice the caller owns. The
// slice is presized to one token per three bytes: the densest generated
// workload query runs 3.25 bytes a token, and one in five outgrows a
// four-byte estimate. Denser text (one-letter names) costs one regrowth.
func Tokenize(src string) ([]Token, error) {
	toks, err := appendTokens(make([]Token, 0, len(src)/3+1), src)
	if err != nil {
		return nil, err
	}
	return toks, nil
}

// appendTokens lexes the whole input onto toks. It returns toks as grown so
// far even on an error, so a pooled buffer is never lost.
func appendTokens(toks []Token, src string) ([]Token, error) {
	lx := NewLexer(src)
	for {
		t, err := lx.Next()
		if err != nil {
			return toks, err
		}
		toks = append(toks, t)
		if t.Kind == TokEOF {
			return toks, nil
		}
	}
}

// maxPooledTokens bounds the token buffers Parse keeps for reuse: a
// pathological query's buffer goes to the garbage collector instead of
// staying in the pool.
const maxPooledTokens = 4096

// tokenBufs recycles Parse's token buffers. A parse reads its tokens only
// while it runs — the AST keeps copies of their texts, which are slices of
// the source, never the buffer — so the buffer goes back as Parse returns.
var tokenBufs = sync.Pool{New: func() any { return new([]Token) }}

func (l *Lexer) skipSpace() {
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

// lexString returns a string literal's raw body, a slice of the source
// between its quotes: inside it a quote only ever appears doubled, as an
// escaped quote, which Next unescapes.
func (l *Lexer) lexString() (Token, error) {
	start := l.pos
	for i := start + 1; ; {
		n := strings.IndexByte(l.src[i:], '\'')
		if n < 0 {
			l.pos = len(l.src)
			return Token{}, fmt.Errorf("sqlparse: unterminated string at %d", start)
		}
		i += n + 1
		if i < len(l.src) && l.src[i] == '\'' {
			i++ // doubled quote is an escaped quote
			continue
		}
		l.pos = i
		return Token{Kind: TokString, Text: l.src[start+1 : i-1], Pos: start}, nil
	}
}

func (l *Lexer) lexNumber() (Token, error) {
	start := l.pos
	seenDot := false
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if isDigit(c) {
			l.pos++
		} else if c == '.' && !seenDot && l.pos+1 < len(l.src) && isDigit(l.src[l.pos+1]) {
			seenDot = true
			l.pos++
		} else {
			break
		}
	}
	return Token{Kind: TokNumber, Text: l.src[start:l.pos], Pos: start}, nil
}

func (l *Lexer) lexIdent() (Token, error) {
	start := l.pos
	for l.pos < len(l.src) && identPart[l.src[l.pos]] {
		l.pos++
	}
	text := l.src[start:l.pos]
	if kw, ok := keyword(text); ok {
		return Token{Kind: TokKeyword, Text: kw, Pos: start}, nil
	}
	return Token{Kind: TokIdent, Text: text, Pos: start}, nil
}

// keyword reports whether ident upper-cases to a keyword, and returns the
// keyword's text. Only an all-ASCII identifier can: a byte at or above 0x80
// never equals a keyword's, so 'ſ' and 'ı', which strings.ToUpper would map
// to 'S' and 'I', keep ſelect and ıs identifiers. Candidates share the
// identifier's length and first letter; the comparison upper-cases ASCII
// letters as it goes.
func keyword(ident string) (string, bool) {
	if len(ident) > maxKeywordLen {
		return "", false
	}
	first := ident[0] &^ ('a' - 'A')
	if first < 'A' || first > 'Z' {
		return "", false
	}
	for _, kw := range keywordsByShape[len(ident)][first-'A'] {
		if equalUpperASCII(ident, kw) {
			return kw, true
		}
	}
	return "", false
}

// equalUpperASCII reports whether s, with its ASCII letters upper-cased,
// equals upper, which has len(s) bytes.
func equalUpperASCII(s, upper string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		if c != upper[i] {
			return false
		}
	}
	return true
}

// lexOp slices a one- or two-byte operator from the source.
func (l *Lexer) lexOp() (Token, error) {
	start := l.pos
	l.pos++
	if l.pos < len(l.src) {
		switch l.src[start : l.pos+1] {
		case "<=", ">=", "<>", "!=":
			l.pos++
		}
	}
	return Token{Kind: TokOp, Text: l.src[start:l.pos], Pos: start}, nil
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }
