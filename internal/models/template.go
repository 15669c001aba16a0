package models

import (
	"prestroid/internal/logicalplan"
	"prestroid/internal/otp"
	"prestroid/internal/treecnn"
)

// TemplateEncoding is the featurization half of a prepared-template cache
// entry: the flattened trees of one query's plan plus everything needed to
// rebind them to another query sharing the same template (same token stream
// up to literal values, hence an isomorphic plan and recast tree).
//
// In the default Word2Vec mode the encoder strips every literal value before
// embedding (PredTokens keeps columns and shape keywords only), so the trees
// are literal-value-independent and a rebind returns them as-is — zero work.
// Only the HashedPredicates ablation hashes full predicate text; for that
// mode the encoding keeps, per tree, the feature rows holding PRED encodings
// together with each row's node position in the recast tree, plus an
// incremental Rebinder, so a rebind re-featurizes just those rows and
// re-digests just their ancestor chains.
//
// Either way the rebound trees are byte-identical (features, structure,
// votes, hashes) to what a full parse/plan/recast/flatten of the new query
// would produce, which is what lets the conv cache compose with template
// hits: equal hashes replay pooled conv outputs.
type TemplateEncoding struct {
	sensitive bool
	trees     []*treecnn.Tree
	bytes     int

	// Sensitive-mode state (nil otherwise).
	enc       *otp.Encoder
	rebinders []*treecnn.Rebinder
	predRows  [][]int // per tree: feature rows encoding a non-nil PRED
	predPos   [][]int // per tree: pre-order position of each such row's node
	nodeCount int     // pre-order node count of the recast tree, for sanity
}

// Bytes reports the approximate heap footprint of the encoding, for cache
// accounting: every tree's features, structure, votes and non-zero index
// (which a Rebinder shares with its tree rather than copying), plus in
// sensitive mode the Rebinder digests and the PRED row tables.
func (te *TemplateEncoding) Bytes() int { return te.bytes }

// Trees exposes the cached flattened trees (shared, read-only).
func (te *TemplateEncoding) Trees() []*treecnn.Tree { return te.trees }

// BuildTemplateEncoding encodes plan through the model's exact featurization
// path and captures the rebind state for its template. It reads only
// immutable pipeline state, so it is safe to call concurrently with serving;
// the caller decides where (and whether) to cache the result.
func (m *Prestroid) BuildTemplateEncoding(plan *logicalplan.Node) *TemplateEncoding {
	root, trees, rows := m.encodePlan(plan)
	te := &TemplateEncoding{sensitive: m.pipe.Enc.HashedPredicates, trees: trees}
	for _, t := range trees {
		te.bytes += t.Bytes()
	}
	if !te.sensitive {
		return te
	}
	// Pre-order positions identify corresponding nodes across isomorphic
	// recast trees: Walk visits node, then left, then right, and two queries
	// sharing a template recast to identical shapes.
	pos := make(map[*otp.Node]int)
	root.Walk(func(n *otp.Node) {
		pos[n] = len(pos)
	})
	te.enc = m.pipe.Enc
	te.nodeCount = len(pos)
	te.rebinders = make([]*treecnn.Rebinder, len(trees))
	te.predRows = make([][]int, len(trees))
	te.predPos = make([][]int, len(trees))
	for i, t := range trees {
		te.rebinders[i] = treecnn.NewRebinder(t)
		te.bytes += 16 * t.Len() // digest + parent words
		for row, n := range rows[i] {
			if n.Type != otp.NodePred || n.Pred == nil {
				continue
			}
			te.predRows[i] = append(te.predRows[i], row)
			te.predPos[i] = append(te.predPos[i], pos[n])
		}
		te.bytes += 16 * len(te.predRows[i])
	}
	return te
}

// Rebind returns trees featurizing plan — a plan parsed from a query with
// the encoding's template — reusing the cached topology, node encodings and
// subtree digests. In the insensitive (default) mode the cached trees are
// returned directly; they are identical for every literal variant and the
// model only reads them. In sensitive mode the PRED rows are re-encoded from
// the new plan's recast nodes and incrementally re-hashed.
//
// ok is false when plan's recast shape diverges from the cached template's —
// impossible for a genuine template match, but checked defensively so a
// caller can fall back to the full encode path instead of serving a wrong
// featurization.
func (te *TemplateEncoding) Rebind(plan *logicalplan.Node) ([]*treecnn.Tree, bool) {
	if !te.sensitive {
		return te.trees, true
	}
	root := otp.Recast(plan)
	var nodes []*otp.Node
	root.Walk(func(n *otp.Node) {
		nodes = append(nodes, n)
	})
	if len(nodes) != te.nodeCount {
		return nil, false
	}
	out := make([]*treecnn.Tree, len(te.rebinders))
	for i, rb := range te.rebinders {
		rows := te.predRows[i]
		if len(rows) == 0 {
			out[i] = rb.Base()
			continue
		}
		feats := make([][]float64, len(rows))
		for k := range rows {
			n := nodes[te.predPos[i][k]]
			if n.Type != otp.NodePred {
				return nil, false
			}
			// The hashed encoding ignores the query context, so no context is
			// rebuilt here — NodeFeature's PRED branch never dereferences it.
			feats[k] = te.enc.NodeFeature(n, nil)
		}
		out[i] = rb.Rebind(rows, feats)
	}
	return out, true
}
