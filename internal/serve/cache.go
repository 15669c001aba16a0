package serve

import (
	"strings"

	"prestroid/internal/telemetry"
)

// CanonicalSQL normalises what the lexer ignores so cosmetic reformattings
// of the same template share one cache entry: runs of blanks, tabs and
// newlines outside single-quoted string literals collapse to a single
// space, leading/trailing whitespace is dropped, and `--` line comments are
// stripped exactly as the lexer strips them (to end of line). Stripping
// comments — rather than collapsing the newline that terminates them — is
// load-bearing: "SELECT a -- x\nWHERE b > 1" and "SELECT a -- x WHERE b > 1"
// lex to different token streams and must not share a key. Identifier and
// keyword case is preserved — the parser is the authority on case
// semantics, so canonicalisation never merges queries it cannot prove
// identical.
func CanonicalSQL(sql string) string {
	if canonicalAlready(sql) {
		return sql
	}
	return canonicalizeSQL(sql)
}

// canonicalizeSQL is the rewriting path of CanonicalSQL: one pass through a
// builder. Split out so the fast path's agreement with it is testable —
// canonicalAlready(sql) must hold exactly when canonicalizeSQL(sql) == sql.
func canonicalizeSQL(sql string) string {
	var b strings.Builder
	b.Grow(len(sql))
	inString := false
	pendingSpace := false
	for i := 0; i < len(sql); i++ {
		c := sql[i]
		if inString {
			b.WriteByte(c)
			if c == '\'' {
				inString = false
			}
			continue
		}
		switch c {
		case ' ', '\t', '\n', '\r':
			pendingSpace = true
		case '-':
			if i+1 < len(sql) && sql[i+1] == '-' {
				for i < len(sql) && sql[i] != '\n' {
					i++
				}
				pendingSpace = true
				continue
			}
			if pendingSpace && b.Len() > 0 {
				b.WriteByte(' ')
			}
			pendingSpace = false
			b.WriteByte(c)
		case '\'':
			if pendingSpace && b.Len() > 0 {
				b.WriteByte(' ')
			}
			pendingSpace = false
			inString = true
			b.WriteByte(c)
		default:
			if pendingSpace && b.Len() > 0 {
				b.WriteByte(' ')
			}
			pendingSpace = false
			b.WriteByte(c)
		}
	}
	return b.String()
}

// canonicalAlready reports whether CanonicalSQL would return sql unchanged,
// so the dominant case — clients sending single-line SQL with single spaces —
// runs the canonicalisation as a read-only scan with zero allocations. The
// conditions mirror the rewriter exactly: canonical text has no leading
// space, and outside single-quoted strings no tab/newline/CR, no adjacent
// spaces, no `--` comment opener and no trailing space (an unterminated
// string keeps its trailing bytes verbatim).
func canonicalAlready(sql string) bool {
	if sql == "" {
		return true
	}
	if sql[0] == ' ' {
		return false
	}
	inString := false
	for i := 0; i < len(sql); i++ {
		c := sql[i]
		if inString {
			if c == '\'' {
				inString = false
			}
			continue
		}
		switch c {
		case '\t', '\n', '\r':
			return false
		case ' ':
			if i+1 < len(sql) && sql[i+1] == ' ' {
				return false
			}
		case '-':
			if i+1 < len(sql) && sql[i+1] == '-' {
				return false
			}
		case '\'':
			inString = true
		}
	}
	return inString || sql[len(sql)-1] != ' '
}

// predictionCache is the engine's cache of finished predictions keyed by
// canonicalised SQL. Repeated templates — the dominant case in the paper's
// Grab workload — skip parse, encode and model inference entirely. A present
// key is overwritten (one engine's answer for a key is byte-identical every
// time) and entries are not byte-accounted.
type predictionCache = lru[string, Prediction]

func newPredictionCache(max int, hits, misses *telemetry.Counter) *predictionCache {
	return newLRU[string, Prediction](max, hits, misses, nil, nil)
}
