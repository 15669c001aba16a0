package serve

import (
	"prestroid/internal/models"
	"prestroid/internal/sqlparse"
	"prestroid/internal/telemetry"
)

// templateCache is the per-shard prepared-template segment, keyed by the
// ExtractTemplate canonical form. A hit turns a front-end pass — lex, parse,
// plan, recast, sample, flatten, encode — into a literal rebind of the
// skeleton, a plan, and the cached trees as they stand.
//
// The skeleton statement is weight-independent (parsing knows nothing about
// the model), but the encoding is not: its trees were featurized by one
// predictor identity's pipeline. Both are safe to keep for the segment's
// whole life because the segment belongs to one engine and an engine serves
// one identity: the explain path deposits skeleton-only entries, a
// prediction upgrades them in place with the trees it just built.
type templateCache = lru[string, *templateEntry]

// templateEntry is one cached template: the parsed skeleton and, once a
// prediction deposited them, the trees every literal variant encodes to.
type templateEntry struct {
	stmt *sqlparse.SelectStmt
	enc  *models.TemplateEncoding // nil until a predict deposit lands one
}

func newTemplateCache(max int, hits, misses *telemetry.Counter) *templateCache {
	return newLRU(max, hits, misses, admitTemplate, templateBytes)
}

// admitTemplate replaces a present entry only to upgrade it: the explain
// path deposits skeleton-only entries that a later prediction enriches with
// its featurization.
func admitTemplate(old *templateEntry, present bool, in *templateEntry) (*templateEntry, bool) {
	return in, !present || (old.enc == nil && in.enc != nil)
}

// templateBytes approximates an entry's heap footprint for the bytes gauge:
// the key, a statement estimate proportional to the key (the skeleton's node
// count tracks its token count), and the encoding's own accounting.
func templateBytes(key string, ent *templateEntry) int64 {
	b := int64(2 * len(key))
	if ent.enc != nil {
		b += int64(ent.enc.Bytes())
	}
	return b
}
