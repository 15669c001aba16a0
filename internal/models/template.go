package models

import (
	"prestroid/internal/logicalplan"
	"prestroid/internal/treecnn"
)

// TemplateEncoding is the flattened trees of one query's plan plus their byte
// count. The serving engine keeps no trees in its template entries (an entry
// holds the template's answer instead); TemplateEncoding and
// BuildTemplateEncoding are kept only because benchmark/hand.go's replay of
// an older miss path still calls them.
//
// The encoder strips every literal value before embedding (PredTokens keeps
// columns and shape keywords only), so the trees of one query are the trees
// of every query sharing its template (same token stream up to literal
// values, hence an isomorphic plan and recast tree) — byte for byte:
// features, structure, votes, hashes. FuzzTemplateEncodingInvariant pins it,
// and it is what lets a served template answer every literal variant.
//
// The one literal-sensitive pipeline mode, the HashedPredicates ablation, has
// no template encoding at all (BuildTemplateEncoding returns nil).
type TemplateEncoding struct {
	trees []*treecnn.Tree
	bytes int
}

// Bytes reports the approximate heap footprint of the encoding, for cache
// accounting: every tree's features, structure, votes and non-zero index.
func (te *TemplateEncoding) Bytes() int { return te.bytes }

// Trees exposes the cached flattened trees (shared, read-only).
func (te *TemplateEncoding) Trees() []*treecnn.Tree { return te.trees }

// BuildTemplateEncoding encodes plan through the model's exact featurization
// path — the same single encode EncodeTrace runs — and wraps the trees as a
// TemplateEncoding; only benchmark/hand.go calls it. It returns nil, without
// encoding anything, for a
// HashedPredicates pipeline, whose trees are not shared between literal
// variants. It reads only immutable pipeline state, so it is safe to call
// concurrently with serving; the caller decides where (and whether) to cache
// the result.
func (m *Prestroid) BuildTemplateEncoding(plan *logicalplan.Node) *TemplateEncoding {
	if m.pipe.Enc.HashedPredicates {
		return nil
	}
	te := &TemplateEncoding{trees: m.encodePlan(plan)}
	for _, t := range te.trees {
		te.bytes += t.Bytes()
	}
	return te
}

// Rebind returns the trees featurizing plan — a plan parsed from a query
// with the encoding's template. They are the cached trees themselves,
// identical for every literal variant and only ever read by the model; ok is
// always true.
func (te *TemplateEncoding) Rebind(plan *logicalplan.Node) ([]*treecnn.Tree, bool) {
	return te.trees, true
}
