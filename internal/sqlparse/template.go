package sqlparse

import (
	"fmt"
	"strconv"
	"strings"
)

// TemplateLiteral is one literal occurrence extracted from a query, in
// source order: the raw token text (numeric digits, or unescaped string
// contents) and which of the two literal token kinds produced it.
type TemplateLiteral struct {
	Text     string
	IsString bool
}

// ExtractTemplate canonicalises src into a prepared-statement-style template
// key in one lexer pass: numeric literals become the placeholder "?n",
// string literals "?s", and every other token keeps its lexical text
// (keywords upper-cased by the lexer, identifiers verbatim), joined by
// single spaces. The second result is the literal vector in source order —
// the values to Rebind into a skeleton parsed from any query with the same
// template. ok is false when src does not lex, is empty, or has a number
// after LIMIT that the parser's strconv.Atoi rejects; callers fall back to
// the full parse path, which reports the error.
//
// Queries with equal templates tokenize identically up to literal values, so
// the parser takes identical branches on both: it branches only on token
// kinds and non-literal token text. Its one check of a literal's value —
// LIMIT's Atoi — is made here, so two queries with equal keys either both
// parse or both fail, and when they parse their plans have the same shape
// (node count, depth, tables): only literal values differ. The placeholders
// are kind-distinct on purpose: a string where a number stood, or vice versa,
// changes the template, so a cache hit can never mask a parse error. Neither
// placeholder can collide with a real token ('?' does not lex), and string
// contents never leak into the key.
func ExtractTemplate(src string) (string, []TemplateLiteral, bool) {
	var lits []TemplateLiteral
	key, ok := scanTemplate(src, &lits)
	if !ok {
		return "", nil, false
	}
	return key, lits, true
}

// TemplateKey is ExtractTemplate's key alone: the same scan, building no
// literal vector and unescaping no string, so its one allocation is the key.
func TemplateKey(src string) (string, bool) {
	return scanTemplate(src, nil)
}

// scanTemplate is the one template scan behind ExtractTemplate and
// TemplateKey: it returns src's template key and, when lits is not nil,
// appends each literal to it in source order. The key is assembled in a
// stack buffer — on the heap for a source too long for it, sized so that
// placeholders and separators rarely outgrow it — and copied out once, at
// its own length, so a cached key holds no slack.
func scanTemplate(src string, lits *[]TemplateLiteral) (string, bool) {
	lx := Lexer{src: src}
	var buf [512]byte
	key := buf[:0]
	if n := len(src) + len(src)/2; n > len(buf) {
		key = make([]byte, 0, n)
	}
	limit := false
	for {
		t, err := lx.scan()
		if err != nil {
			return "", false
		}
		if t.Kind == TokEOF {
			break
		}
		if limit && t.Kind == TokNumber {
			if _, err := strconv.Atoi(t.Text); err != nil {
				return "", false
			}
		}
		limit = t.Kind == TokKeyword && t.Text == "LIMIT"
		if len(key) > 0 {
			key = append(key, ' ')
		}
		switch t.Kind {
		case TokNumber:
			key = append(key, "?n"...)
			if lits != nil {
				*lits = append(*lits, TemplateLiteral{Text: t.Text})
			}
		case TokString:
			key = append(key, "?s"...)
			if lits != nil {
				*lits = append(*lits, TemplateLiteral{Text: strings.ReplaceAll(t.Text, "''", "'"), IsString: true})
			}
		default:
			key = append(key, t.Text...)
		}
	}
	if len(key) == 0 {
		return "", false
	}
	return string(key), true
}

// Rebind returns a copy of s with every literal slot replaced by the
// corresponding entry of lits, visited in the order the parser consumed
// them. The parser is single-pass with no backtracking, so consumption order
// is source order — exactly the order ExtractTemplate emits — and the
// traversal here mirrors the grammar: FROM (join chains left-assoc, so
// Left → Right → ON reproduces token order), WHERE, HAVING, LIMIT, then the
// UNION ALL continuation. Subexpressions without literal slots are shared
// with the skeleton, which is safe because statements and plans are
// immutable once built.
//
// Any mismatch — too few or too many literals, a kind mismatch, a LIMIT
// value Atoi rejects — returns an error and callers must fall back to the
// full parse path, which reproduces the exact error message the uncached
// path would have reported.
func (s *SelectStmt) Rebind(lits []TemplateLiteral) (*SelectStmt, error) {
	r := &rebinder{lits: lits}
	out := r.selectStmt(s)
	if r.err != nil {
		return nil, r.err
	}
	if r.pos != len(lits) {
		return nil, fmt.Errorf("sqlparse: rebind used %d of %d literals", r.pos, len(lits))
	}
	return out, nil
}

type rebinder struct {
	lits []TemplateLiteral
	pos  int
	err  error
}

func (r *rebinder) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

// take consumes the next literal slot, enforcing the token kind the grammar
// position requires.
func (r *rebinder) take(wantString bool) (TemplateLiteral, bool) {
	if r.err != nil {
		return TemplateLiteral{}, false
	}
	if r.pos >= len(r.lits) {
		r.fail("sqlparse: rebind ran out of literals at slot %d", r.pos)
		return TemplateLiteral{}, false
	}
	lit := r.lits[r.pos]
	r.pos++
	if lit.IsString != wantString {
		r.fail("sqlparse: rebind literal kind mismatch at slot %d", r.pos-1)
		return TemplateLiteral{}, false
	}
	return lit, true
}

func (r *rebinder) selectStmt(s *SelectStmt) *SelectStmt {
	if s == nil || r.err != nil {
		return s
	}
	// Columns, GroupBy and OrderBy carry no literal slots; the shallow copy
	// shares their slices.
	out := *s
	out.From = r.tableExpr(s.From)
	out.Where = r.expr(s.Where)
	out.Having = r.expr(s.Having)
	if s.Limit >= 0 {
		if lit, ok := r.take(false); ok {
			n, err := strconv.Atoi(lit.Text)
			if err != nil {
				// Mirrors the parser's LIMIT validation: a fractional or
				// out-of-range number must fail on the rebind path too.
				r.fail("sqlparse: bad LIMIT %q", lit.Text)
			} else {
				out.Limit = n
			}
		}
	}
	out.Union = r.selectStmt(s.Union)
	return &out
}

func (r *rebinder) tableExpr(te TableExpr) TableExpr {
	if r.err != nil {
		return te
	}
	switch v := te.(type) {
	case nil:
		return nil
	case *TableRef:
		return v
	case *JoinExpr:
		out := *v
		out.Left = r.tableExpr(v.Left)
		out.Right = r.tableExpr(v.Right)
		out.On = r.expr(v.On)
		return &out
	case *SubqueryRef:
		out := *v
		out.Query = r.selectStmt(v.Query)
		return &out
	default:
		r.fail("sqlparse: rebind: unknown table expression %T", te)
		return te
	}
}

func (r *rebinder) expr(e Expr) Expr {
	if e == nil || r.err != nil {
		return e
	}
	switch v := e.(type) {
	case ColumnRef:
		return v
	case Literal:
		return r.literal(v)
	case *BinaryExpr:
		out := *v
		out.Left = r.expr(v.Left)
		out.Right = r.expr(v.Right)
		return &out
	case *NotExpr:
		out := *v
		out.Inner = r.expr(v.Inner)
		return &out
	case *InExpr:
		out := *v
		out.Values = make([]Literal, len(v.Values))
		for i, lit := range v.Values {
			out.Values[i] = r.literal(lit)
		}
		return &out
	case *BetweenExpr:
		out := *v
		out.Lo = r.literal(v.Lo)
		out.Hi = r.literal(v.Hi)
		return &out
	case *LikeExpr:
		lit, ok := r.take(true)
		if !ok {
			return e
		}
		out := *v
		out.Pattern = lit.Text
		return &out
	case *IsNullExpr:
		return v
	case *FuncExpr:
		return v
	default:
		r.fail("sqlparse: rebind: unknown expression %T", e)
		return e
	}
}

func (r *rebinder) literal(l Literal) Literal {
	if l.IsString {
		lit, ok := r.take(true)
		if !ok {
			return l
		}
		return Literal{Value: lit.Text, IsString: true}
	}
	lit, ok := r.take(false)
	if !ok {
		return l
	}
	// A negative literal lexes as two tokens; the sign stayed in the
	// template, so the slot carries digits only and the skeleton's sign is
	// restored here.
	if strings.HasPrefix(l.Value, "-") {
		return Literal{Value: "-" + lit.Text}
	}
	return Literal{Value: lit.Text}
}
