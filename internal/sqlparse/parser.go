package sqlparse

// The grammar Parse accepts, in EBNF. Quoted words are keyword tokens, which
// the lexer matches in any case; quoted symbols are punctuation and
// operator tokens.
//
//	select    = "SELECT" [ "DISTINCT" ] item { "," item }
//	            "FROM" from
//	            [ "WHERE" or ]
//	            [ "GROUP" "BY" column { "," column } ]
//	            [ "HAVING" or ]
//	            [ "ORDER" "BY" column [ "DESC" | "ASC" ] { "," column [ "DESC" | "ASC" ] } ]
//	            [ "LIMIT" number ]
//	            [ "UNION" "ALL" select ] .
//	item      = "*" | ( aggregate | column ) [ alias ] .
//	aggregate = ( "COUNT" | "SUM" | "AVG" | "MIN" | "MAX" ) "(" ( "*" | column ) ")" .
//	alias     = "AS" [ ident ] | ident .
//	from      = chain { "," chain } .
//	chain     = primary { join primary "ON" or | "CROSS" "JOIN" primary } .
//	join      = "JOIN" | "INNER" "JOIN" | ( "LEFT" | "RIGHT" | "FULL" ) [ "OUTER" ] "JOIN" .
//	primary   = ( "(" select ")" | ident ) [ alias ] .
//	or        = and { "OR" and } .
//	and       = unary { "AND" unary } .
//	unary     = "NOT" unary | "(" or ")" | predicate .
//	predicate = column ( [ "NOT" ] ( "IN" "(" literal { "," literal } ")"
//	                               | "BETWEEN" literal "AND" literal
//	                               | "LIKE" string
//	                               | "IS" [ "NOT" ] "NULL" )
//	                   | op ( column | literal ) ) .
//	column    = ident [ "." ident ] .
//	literal   = number | string | "-" number .
//	op        = "<" | ">" | "=" | "!" | "+" | "-" | "/" | "%" | "<=" | ">=" | "<>" | "!=" .
//
// Tokens (lexer.go), between which blanks, tabs, newlines and "--" line
// comments are skipped:
//
//	ident     = identStart { identStart | digit } .  (not a keyword; identStart
//	                                                 is '_', an ASCII letter or
//	                                                 any byte >= 0x80)
//	number    = digit { digit } [ "." digit { digit } ] .
//	string    = "'" { any byte but "'" | "''" } "'" .
//
// Errors follow the productions, each naming the byte offset of the token it
// stopped at and rendering that token quoted, or as "end of input". A token
// that fails a keyword reads `expected "KW", got "text" at pos`; one that
// fails a kind reads `expected identifier` (number, string, "(", ")") the
// same way. predicate reports its own two errors (NOT not followed by
// IN/BETWEEN/LIKE — so "column NOT IS NULL" is refused, the form being
// "column IS NOT NULL" — and no operator) and literal its one; LIMIT reports
// a number Atoi rejects, and Parse trailing input.

import (
	"fmt"
	"strconv"
)

// Parser turns a token stream into a SelectStmt AST.
type Parser struct {
	toks []Token
	pos  int
}

// Parse parses a single SELECT statement (with optional UNION ALL chain). It
// lexes into a pooled token buffer and hands it back, cleared, when it
// returns.
func Parse(src string) (*SelectStmt, error) {
	buf := tokenBufs.Get().(*[]Token)
	toks, err := appendTokens((*buf)[:0], src)
	var stmt *SelectStmt
	if err == nil {
		stmt, err = parseTokens(toks)
	}
	if cap(toks) <= maxPooledTokens {
		clear(toks) // drop the source's strings
		*buf = toks[:0]
		tokenBufs.Put(buf)
	}
	return stmt, err
}

// parseTokens parses a lexed statement.
func parseTokens(toks []Token) (*SelectStmt, error) {
	p := Parser{toks: toks}
	stmt, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	if !p.atEOF() {
		t := p.peek()
		return nil, fmt.Errorf("sqlparse: trailing input %q at %d", t.Text, t.Pos)
	}
	return stmt, nil
}

func (p *Parser) peek() Token { return p.toks[p.pos] }
func (p *Parser) next() Token { t := p.toks[p.pos]; p.pos++; return t }
func (p *Parser) atEOF() bool { return p.peek().Kind == TokEOF }

func (p *Parser) accept(kind TokenKind, text string) bool {
	t := p.peek()
	if t.Kind == kind && (text == "" || t.Text == text) {
		p.pos++
		return true
	}
	return false
}

// kindNames names what a kind-only expect wants.
var kindNames = [...]string{TokIdent: "identifier", TokNumber: "number", TokString: "string",
	TokLParen: `"("`, TokRParen: `")"`}

func (p *Parser) expect(kind TokenKind, text string) (Token, error) {
	t := p.peek()
	if t.Kind != kind || (text != "" && t.Text != text) {
		want := kindNames[kind]
		if text != "" {
			want = strconv.Quote(text)
		}
		return t, fmt.Errorf("sqlparse: expected %s, got %s at %d", want, found(t), t.Pos)
	}
	p.pos++
	return t, nil
}

// found renders the token a parse stopped at for an error message.
func found(t Token) string {
	if t.Kind == TokEOF {
		return "end of input"
	}
	return strconv.Quote(t.Text)
}

func (p *Parser) parseSelect() (*SelectStmt, error) {
	if _, err := p.expect(TokKeyword, "SELECT"); err != nil {
		return nil, err
	}
	stmt := &SelectStmt{Limit: -1}
	stmt.Distinct = p.accept(TokKeyword, "DISTINCT")

	// Projection list.
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		stmt.Columns = append(stmt.Columns, item)
		if !p.accept(TokComma, "") {
			break
		}
	}

	if _, err := p.expect(TokKeyword, "FROM"); err != nil {
		return nil, err
	}
	from, err := p.parseTableExpr()
	if err != nil {
		return nil, err
	}
	stmt.From = from

	if p.accept(TokKeyword, "WHERE") {
		stmt.Where, err = p.parseOr()
		if err != nil {
			return nil, err
		}
	}
	if p.accept(TokKeyword, "GROUP") {
		if _, err := p.expect(TokKeyword, "BY"); err != nil {
			return nil, err
		}
		for {
			col, err := p.parseColumnRef()
			if err != nil {
				return nil, err
			}
			stmt.GroupBy = append(stmt.GroupBy, col)
			if !p.accept(TokComma, "") {
				break
			}
		}
	}
	if p.accept(TokKeyword, "HAVING") {
		stmt.Having, err = p.parseOr()
		if err != nil {
			return nil, err
		}
	}
	if p.accept(TokKeyword, "ORDER") {
		if _, err := p.expect(TokKeyword, "BY"); err != nil {
			return nil, err
		}
		for {
			col, err := p.parseColumnRef()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Col: col}
			if p.accept(TokKeyword, "DESC") {
				item.Desc = true
			} else {
				p.accept(TokKeyword, "ASC")
			}
			stmt.OrderBy = append(stmt.OrderBy, item)
			if !p.accept(TokComma, "") {
				break
			}
		}
	}
	if p.accept(TokKeyword, "LIMIT") {
		t, err := p.expect(TokNumber, "")
		if err != nil {
			return nil, err
		}
		n, err := strconv.Atoi(t.Text)
		if err != nil {
			return nil, fmt.Errorf("sqlparse: bad LIMIT %q at %d", t.Text, t.Pos)
		}
		stmt.Limit = n
	}
	if p.accept(TokKeyword, "UNION") {
		if _, err := p.expect(TokKeyword, "ALL"); err != nil {
			return nil, err
		}
		stmt.Union, err = p.parseSelect()
		if err != nil {
			return nil, err
		}
	}
	return stmt, nil
}

func (p *Parser) parseSelectItem() (SelectItem, error) {
	if p.accept(TokStar, "") {
		return SelectItem{Star: true}, nil
	}
	// Aggregate function?
	if t := p.peek(); t.Kind == TokKeyword && isAggregate(t.Text) {
		p.next()
		if _, err := p.expect(TokLParen, ""); err != nil {
			return SelectItem{}, err
		}
		fe := &FuncExpr{Name: t.Text}
		if p.accept(TokStar, "") {
			fe.Star = true
		} else {
			col, err := p.parseColumnRef()
			if err != nil {
				return SelectItem{}, err
			}
			fe.Arg = &col
		}
		if _, err := p.expect(TokRParen, ""); err != nil {
			return SelectItem{}, err
		}
		item := SelectItem{Expr: fe}
		item.Alias = p.parseOptionalAlias()
		return item, nil
	}
	col, err := p.parseColumnRef()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: col}
	item.Alias = p.parseOptionalAlias()
	return item, nil
}

func (p *Parser) parseOptionalAlias() string {
	if p.accept(TokKeyword, "AS") {
		if t := p.peek(); t.Kind == TokIdent {
			p.next()
			return t.Text
		}
		return ""
	}
	if t := p.peek(); t.Kind == TokIdent {
		p.next()
		return t.Text
	}
	return ""
}

func isAggregate(kw string) bool {
	switch kw {
	case "COUNT", "SUM", "AVG", "MIN", "MAX":
		return true
	}
	return false
}

// parseTableExpr parses the FROM clause: primary table expressions combined
// by comma-joins (implicit cross joins) and explicit JOIN ... ON clauses.
func (p *Parser) parseTableExpr() (TableExpr, error) {
	left, err := p.parseJoinChain()
	if err != nil {
		return nil, err
	}
	// Comma joins: FROM a, b, c.
	for p.accept(TokComma, "") {
		right, err := p.parseJoinChain()
		if err != nil {
			return nil, err
		}
		left = &JoinExpr{Kind: "CROSS", Left: left, Right: right}
	}
	return left, nil
}

func (p *Parser) parseJoinChain() (TableExpr, error) {
	left, err := p.parseTablePrimary()
	if err != nil {
		return nil, err
	}
	for {
		kind := ""
		switch {
		case p.accept(TokKeyword, "JOIN"):
			kind = "INNER"
		case p.accept(TokKeyword, "INNER"):
			if _, err := p.expect(TokKeyword, "JOIN"); err != nil {
				return nil, err
			}
			kind = "INNER"
		case p.accept(TokKeyword, "LEFT"):
			p.accept(TokKeyword, "OUTER")
			if _, err := p.expect(TokKeyword, "JOIN"); err != nil {
				return nil, err
			}
			kind = "LEFT"
		case p.accept(TokKeyword, "RIGHT"):
			p.accept(TokKeyword, "OUTER")
			if _, err := p.expect(TokKeyword, "JOIN"); err != nil {
				return nil, err
			}
			kind = "RIGHT"
		case p.accept(TokKeyword, "FULL"):
			p.accept(TokKeyword, "OUTER")
			if _, err := p.expect(TokKeyword, "JOIN"); err != nil {
				return nil, err
			}
			kind = "FULL"
		case p.accept(TokKeyword, "CROSS"):
			if _, err := p.expect(TokKeyword, "JOIN"); err != nil {
				return nil, err
			}
			kind = "CROSS"
		default:
			return left, nil
		}
		right, err := p.parseTablePrimary()
		if err != nil {
			return nil, err
		}
		je := &JoinExpr{Kind: kind, Left: left, Right: right}
		if kind != "CROSS" {
			if _, err := p.expect(TokKeyword, "ON"); err != nil {
				return nil, err
			}
			je.On, err = p.parseOr()
			if err != nil {
				return nil, err
			}
		}
		left = je
	}
}

func (p *Parser) parseTablePrimary() (TableExpr, error) {
	if p.accept(TokLParen, "") {
		sub, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokRParen, ""); err != nil {
			return nil, err
		}
		ref := &SubqueryRef{Query: sub}
		ref.Alias = p.parseOptionalAlias()
		return ref, nil
	}
	t, err := p.expect(TokIdent, "")
	if err != nil {
		return nil, err
	}
	ref := &TableRef{Name: t.Text}
	ref.Alias = p.parseOptionalAlias()
	return ref, nil
}

// Boolean expression grammar: Or := And (OR And)* ; And := Unary (AND Unary)*.
func (p *Parser) parseOr() (Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.accept(TokKeyword, "OR") {
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: "OR", Left: left, Right: right}
	}
	return left, nil
}

func (p *Parser) parseAnd() (Expr, error) {
	left, err := p.parseBoolUnary()
	if err != nil {
		return nil, err
	}
	for p.accept(TokKeyword, "AND") {
		right, err := p.parseBoolUnary()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: "AND", Left: left, Right: right}
	}
	return left, nil
}

func (p *Parser) parseBoolUnary() (Expr, error) {
	if p.accept(TokKeyword, "NOT") {
		inner, err := p.parseBoolUnary()
		if err != nil {
			return nil, err
		}
		return &NotExpr{Inner: inner}, nil
	}
	if p.accept(TokLParen, "") {
		inner, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokRParen, ""); err != nil {
			return nil, err
		}
		return inner, nil
	}
	return p.parsePredicate()
}

// parsePredicate parses a single atomic condition anchored on a column:
// comparisons, IN, BETWEEN, LIKE, IS [NOT] NULL.
func (p *Parser) parsePredicate() (Expr, error) {
	col, err := p.parseColumnRef()
	if err != nil {
		return nil, err
	}
	negate := p.accept(TokKeyword, "NOT")
	if t := p.peek(); negate && !(t.Kind == TokKeyword && (t.Text == "IN" || t.Text == "BETWEEN" || t.Text == "LIKE")) {
		return nil, fmt.Errorf("sqlparse: NOT must precede IN/BETWEEN/LIKE at %d", t.Pos)
	}
	switch {
	case p.accept(TokKeyword, "IN"):
		if _, err := p.expect(TokLParen, ""); err != nil {
			return nil, err
		}
		var vals []Literal
		for {
			lit, err := p.parseLiteral()
			if err != nil {
				return nil, err
			}
			vals = append(vals, lit)
			if !p.accept(TokComma, "") {
				break
			}
		}
		if _, err := p.expect(TokRParen, ""); err != nil {
			return nil, err
		}
		return &InExpr{Col: col, Values: vals, Negate: negate}, nil
	case p.accept(TokKeyword, "BETWEEN"):
		lo, err := p.parseLiteral()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokKeyword, "AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseLiteral()
		if err != nil {
			return nil, err
		}
		if negate {
			return &NotExpr{Inner: &BetweenExpr{Col: col, Lo: lo, Hi: hi}}, nil
		}
		return &BetweenExpr{Col: col, Lo: lo, Hi: hi}, nil
	case p.accept(TokKeyword, "LIKE"):
		t, err := p.expect(TokString, "")
		if err != nil {
			return nil, err
		}
		return &LikeExpr{Col: col, Pattern: t.Text, Negate: negate}, nil
	case p.accept(TokKeyword, "IS"):
		neg2 := p.accept(TokKeyword, "NOT")
		if _, err := p.expect(TokKeyword, "NULL"); err != nil {
			return nil, err
		}
		return &IsNullExpr{Col: col, Negate: neg2}, nil
	default:
		op := p.peek()
		if op.Kind != TokOp {
			return nil, fmt.Errorf("sqlparse: expected comparison operator, got %s at %d", found(op), op.Pos)
		}
		p.next()
		// Right side: literal or column (join-style equality).
		if t := p.peek(); t.Kind == TokIdent {
			rcol, err := p.parseColumnRef()
			if err != nil {
				return nil, err
			}
			return &BinaryExpr{Op: op.Text, Left: col, Right: rcol}, nil
		}
		lit, err := p.parseLiteral()
		if err != nil {
			return nil, err
		}
		return &BinaryExpr{Op: op.Text, Left: col, Right: lit}, nil
	}
}

func (p *Parser) parseColumnRef() (ColumnRef, error) {
	t, err := p.expect(TokIdent, "")
	if err != nil {
		return ColumnRef{}, err
	}
	if p.accept(TokDot, "") {
		c, err := p.expect(TokIdent, "")
		if err != nil {
			return ColumnRef{}, err
		}
		return ColumnRef{Table: t.Text, Column: c.Text}, nil
	}
	return ColumnRef{Column: t.Text}, nil
}

func (p *Parser) parseLiteral() (Literal, error) {
	t := p.peek()
	switch t.Kind {
	case TokNumber:
		p.next()
		return Literal{Value: t.Text}, nil
	case TokString:
		p.next()
		return Literal{Value: t.Text, IsString: true}, nil
	case TokOp:
		if t.Text == "-" {
			p.next()
			n, err := p.expect(TokNumber, "")
			if err != nil {
				return Literal{}, err
			}
			return Literal{Value: "-" + n.Text}, nil
		}
	}
	return Literal{}, fmt.Errorf("sqlparse: expected literal, got %s at %d", found(t), t.Pos)
}
