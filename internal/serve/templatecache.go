package serve

import (
	"prestroid/internal/sqlparse"
	"prestroid/internal/telemetry"
)

// templateCache is one shard's segment of its engine's template cache, keyed
// by the ExtractTemplate canonical form. An engine's segments form one cache:
// a template lives in the segment of the shard its key hashes to, whichever
// shard computed it, so each template is held once per engine.
//
// An entry is the parsed skeleton, the plan shape and, once a prediction of
// the template has been computed, that prediction's normalised answer. The
// encoder strips every literal value before embedding, so every literal
// variant of a template encodes to the same trees and the model gives them
// the same answer: from the second prediction on, a template costs its key
// extraction and this lookup (see ShardedEngine.predictKey). The answer is
// weight-dependent, and safe to keep for the segment's whole life because the
// segment belongs to one engine and an engine serves one identity: no answer
// crosses a roll. An engine whose pipeline hashes predicate text
// (HashedPredicates) encodes literals, so it never stores an answer; its
// entries stay skeletons, which a hit rebinds with the query's literals and
// replans. Explain deposits skeletons too. Entries are about a skeleton's
// size, a few hundred bytes.
type templateCache = lru[string, *templateEntry]

// templateEntry is one cached template: the parsed skeleton and, when
// answered, the prediction every literal variant gets — the normalised model
// output with the plan shape every variant plans to (taken from the plan of
// the query that deposited it). Entries are immutable once Put.
type templateEntry struct {
	stmt     *sqlparse.SelectStmt
	p        Prediction // meaningful only when answered
	answered bool
}

func newTemplateCache(max int, hits, misses *telemetry.Counter) *templateCache {
	return newLRU(max, hits, misses, admitTemplate, templateBytes)
}

// admitTemplate is the segment's one replace rule: an answered deposit
// replaces an unanswered entry, never the reverse, and a present entry is
// otherwise kept.
func admitTemplate(old *templateEntry, present bool, in *templateEntry) (*templateEntry, bool) {
	return in, !present || (!old.answered && in.answered)
}

// templateBytes approximates an entry's heap footprint for the bytes gauge:
// the key and a statement estimate proportional to it (the skeleton's node
// count tracks its token count). The answer adds a few words.
func templateBytes(key string, _ *templateEntry) int64 {
	return int64(2 * len(key))
}

// tmplLookup is a query's place in its engine's template cache: the key and
// literal vector ExtractTemplate produced, the segment the key homes to, and
// the entry found there (nil on a miss). The zero value is a query without
// one: the cache is off, or the query has no template key.
type tmplLookup struct {
	key  string
	lits []sqlparse.TemplateLiteral
	seg  *templateCache
	ent  *templateEntry
}

// lookupTemplate extracts sql's template key and literals in one lexer pass
// and reads the key's entry from the segment of the shard the key hashes to,
// whichever shard asks.
func (e *Engine) lookupTemplate(sql string) tmplLookup {
	if e.tmplCache == nil {
		return tmplLookup{}
	}
	key, lits, ok := sqlparse.ExtractTemplate(sql)
	if !ok {
		return tmplLookup{}
	}
	seg := e.shards[fnv32a(key)%uint32(len(e.shards))].tmplCache
	ent, _ := seg.Get(key)
	return tmplLookup{key: key, lits: lits, seg: seg, ent: ent}
}
