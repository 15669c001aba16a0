package main

import (
	"fmt"
	"sync"

	"prestroid/internal/logicalplan"
	"prestroid/internal/models"
	"prestroid/internal/otp"
	"prestroid/internal/serve"
	"prestroid/internal/sqlparse"
	"prestroid/internal/subtree"
	"prestroid/internal/treecnn"
	"prestroid/internal/workload"
)

// mapConvCache is the sub-tree cache of the by-hand engine: unbounded, which
// over the few thousand requests of a ladder pass behaves like the server's
// 4096-entry segment set.
type mapConvCache struct {
	mu sync.Mutex
	m  map[uint64][]float64
}

func (c *mapConvCache) Get(h uint64) ([]float64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.m[h]
	return v, ok
}

func (c *mapConvCache) Put(h uint64, pooled []float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[h] = append([]float64(nil), pooled...)
}

// handEngine walks one request through the stages Engine.predictKey and
// Engine.flush run, calling each layer's public entry point itself so every
// call can sit in a span. It keeps the same three caches, so a request takes
// the path (cache hit, template rebind, or full parse and encode) it takes in
// the server, whatever the workload.
type handEngine struct {
	m    *models.Prestroid
	pipe *models.Pipeline
	norm workload.Normalizer

	seen  map[string]serve.Prediction
	tmpls map[string]handTemplate

	// What the request path handed to the model: counts over every request,
	// and the first treesKept trees for the kernel rungs.
	nTrees, nNodes int
	trees          []*treecnn.Tree
}

type handTemplate struct {
	stmt *sqlparse.SelectStmt
	enc  *models.TemplateEncoding
}

// Both bounds keep a pass over distinct templates from holding every dense
// feature tensor it produced: the template cache stops admitting (a pass of
// distinct templates never reads an entry back), and the kernel rungs need
// only a sample of trees.
const (
	handTemplateCap = 1024
	treesKept       = 2048
)

func newHandEngine(fx *servingFixture) *handEngine {
	m := fx.m.Clone().(*models.Prestroid)
	m.SetConvCache(&mapConvCache{m: map[uint64][]float64{}})
	return &handEngine{m: m, pipe: fx.pipe, norm: fx.ts.norm,
		seen: map[string]serve.Prediction{}, tmpls: map[string]handTemplate{}}
}

// samplingC is Algorithm 1's depth for the shipped model: its three conv
// layers capped at the largest C with N > 2^(C+1)-1 for N = 15. The by-hand
// encode is checked against EncodeTrace, so a drift from the model's own
// choice fails the run.
const samplingC = 2

// encodeByHand repeats EncodeTrace's four steps as separate spans under
// parent.
func (h *handEngine) encodeByHand(plan *logicalplan.Node, rec *recorder, req, parent int) ([]*treecnn.Tree, error) {
	var root *otp.Node
	rec.call("otp.recast", req, parent, func() { root = otp.Recast(plan) })
	var qctx *otp.QueryContext
	rec.call("otp.query_context", req, parent, func() { qctx = h.pipe.Enc.NewQueryContext(root) })
	var samples []subtree.SubTree
	var err error
	rec.call("subtree.sample", req, parent, func() {
		cfg := modelConfig()
		if samples, err = subtree.Sample(root, subtree.Config{N: cfg.N, C: samplingC}); err == nil {
			samples = subtree.Select(samples, cfg.K)
		}
	})
	if err != nil {
		return nil, err
	}
	trees := make([]*treecnn.Tree, len(samples))
	rec.call("treecnn.flatten", req, parent, func() {
		for i, st := range samples {
			trees[i] = treecnn.FlattenSubTree(st, h.pipe.Enc, qctx)
		}
	})
	return trees, nil
}

// resolved is one request past the front end: the prepared trace and, after a
// template miss, the deposit the caller owes once the prediction is made.
type resolved struct {
	tr   *workload.Trace
	tkey string
	stmt *sqlparse.SelectStmt
	miss bool
}

// frontEnd resolves sql to a prepared trace the way Engine.resolveSQL and the
// flush's encode step do.
func (h *handEngine) frontEnd(sql string, rec *recorder, req, parent int) (resolved, error) {
	var r resolved
	var lits []sqlparse.TemplateLiteral
	var ok bool
	var err error
	rec.call("sqlparse.extract_template", req, parent, func() { r.tkey, lits, ok = sqlparse.ExtractTemplate(sql) })
	if !ok {
		return r, fmt.Errorf("no template for %q", sql)
	}
	var plan *logicalplan.Node
	var trees []*treecnn.Tree
	ent, hit := h.tmpls[r.tkey]
	r.miss = !hit
	if hit {
		rec.call("sqlparse.rebind", req, parent, func() { r.stmt, err = ent.stmt.Rebind(lits) })
	} else {
		rec.call("sqlparse.parse", req, parent, func() { r.stmt, err = sqlparse.Parse(sql) })
	}
	if err != nil {
		return r, err
	}
	rec.call("logicalplan.plan", req, parent, func() { plan, err = logicalplan.Plan(r.stmt) })
	if err != nil {
		return r, err
	}
	r.tr = &workload.Trace{SQL: sql, Plan: plan, Template: -1}
	if hit {
		rec.call("models.template_rebind", req, parent, func() { trees, ok = ent.enc.Rebind(plan) })
		if !ok {
			return r, fmt.Errorf("template encoding did not rebind for %q", sql)
		}
	} else {
		id := rec.call("models.encode_trace", req, parent, func() { trees = h.m.EncodeTrace(r.tr).([]*treecnn.Tree) })
		byHand, err := h.encodeByHand(plan, rec, req, id)
		if err != nil {
			return r, err
		}
		if len(byHand) != len(trees) {
			return r, fmt.Errorf("by-hand encode gave %d trees, EncodeTrace %d", len(byHand), len(trees))
		}
		for i := range trees {
			if byHand[i].Hash != trees[i].Hash {
				return r, fmt.Errorf("by-hand encode diverges from EncodeTrace on tree %d of %q", i, sql)
			}
		}
	}
	h.m.AdoptEncoding(r.tr, trees)
	for _, t := range trees {
		h.nTrees++
		h.nNodes += t.Len()
		if len(h.trees) < treesKept {
			h.trees = append(h.trees, t)
		}
	}
	return r, nil
}

// predict costs one query stage by stage.
func (h *handEngine) predict(sql string, rec *recorder, req, parent int) (serve.Prediction, error) {
	var key string
	rec.call("serve.canonical", req, parent, func() { key = serve.CanonicalSQL(sql) })
	if p, ok := h.seen[key]; ok {
		return p, nil
	}
	r, err := h.frontEnd(sql, rec, req, parent)
	if err != nil {
		return serve.Prediction{}, err
	}
	batch := []*workload.Trace{r.tr}
	var dst [1]float64
	rec.call("models.predict_into", req, parent, func() { h.m.PredictInto(batch, dst[:]) })
	h.m.Evict(batch)
	p := serve.Prediction{
		CPUMinutes: h.norm.Denormalize(dst[0]),
		Normalized: dst[0],
		PlanNodes:  r.tr.Plan.NodeCount(),
		PlanDepth:  r.tr.Plan.MaxDepth(),
		Tables:     len(r.tr.Plan.Tables()),
	}
	h.seen[key] = p
	if r.miss {
		var enc *models.TemplateEncoding
		rec.call("models.build_template", req, parent, func() { enc = h.m.BuildTemplateEncoding(r.tr.Plan) })
		if len(h.tmpls) < handTemplateCap {
			h.tmpls[r.tkey] = handTemplate{stmt: r.stmt, enc: enc}
		}
	}
	return p, nil
}
