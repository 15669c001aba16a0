package serve

import (
	"prestroid/internal/models"
	"prestroid/internal/sqlparse"
	"prestroid/internal/telemetry"
)

// templateCache is the per-shard prepared-template segment, keyed by the
// ExtractTemplate canonical form. A prediction's hit on an entry with trees
// turns a front-end pass — lex, parse, plan, recast, sample, flatten, encode —
// into the lookup itself; a hit on a skeleton-only entry, or an explain's,
// into a literal rebind of the skeleton and a plan.
//
// The skeleton statement is weight-independent (parsing knows nothing about
// the model), but the encoding is not: its trees were featurized by one
// predictor identity's pipeline. Both are safe to keep for the segment's
// whole life because the segment belongs to one engine and an engine serves
// one identity. Every entry is born skeleton-only, whether an explain or a
// prediction missed on its template; the first prediction to hit it upgrades
// it in place with the trees it just built, so only templates that recur hold
// trees (~110 kB each against a skeleton's few hundred bytes).
type templateCache = lru[string, *templateEntry]

// templateEntry is one cached template: the parsed skeleton, the shape every
// literal variant plans to (taken from the plan of the query that deposited
// the entry), and, once a prediction hit it, the trees every literal variant
// encodes to.
type templateEntry struct {
	stmt  *sqlparse.SelectStmt
	shape planShape
	enc   *models.TemplateEncoding // nil until a prediction hits the entry
	trees any                      // enc's trees as a job carries them, boxed once
}

func newTemplateCache(max int, hits, misses *telemetry.Counter) *templateCache {
	return newLRU(max, hits, misses, admitTemplate, templateBytes)
}

// admitTemplate replaces a present entry only to upgrade it: entries are
// deposited skeleton-only and the first prediction to hit one enriches it with
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
