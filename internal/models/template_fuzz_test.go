package models

import (
	"testing"

	"prestroid/internal/logicalplan"
	"prestroid/internal/sqlparse"
	"prestroid/internal/treecnn"
	"prestroid/internal/workload"
)

// FuzzTemplateEncodingInvariant pins the premise a served template answer
// rests on: under the default (Word2Vec) pipeline a query's trees do not
// depend on its literal values. For any src that has a template key and
// parses and plans, the variant with every literal zeroed or emptied —
// rebound through SelectStmt.Rebind — must encode to trees bit-identical to
// src's: hash, features, structure and votes, the out-of-vocabulary fallback
// included. testdata/fuzz holds the shapes the serving tests draw literal
// variants of.
func FuzzTemplateEncodingInvariant(f *testing.F) {
	for _, p := range templatePairs {
		f.Add(p.skeleton)
		f.Add(p.variant)
	}
	cfg := DefaultPrestroidConfig(15, 5)
	cfg.ConvWidths = []int{8}
	cfg.DenseWidths = []int{8}
	m := NewPrestroid(cfg, bed(f).pipe)
	encode := func(plan *logicalplan.Node) []*treecnn.Tree {
		return m.EncodeTrace(&workload.Trace{Plan: plan, Template: -1}).([]*treecnn.Tree)
	}
	f.Fuzz(func(t *testing.T, src string) {
		_, lits, ok := sqlparse.ExtractTemplate(src)
		if !ok {
			return
		}
		stmt, err := sqlparse.Parse(src)
		if err != nil {
			return
		}
		plan, err := logicalplan.Plan(stmt)
		if err != nil {
			return
		}
		zero := make([]sqlparse.TemplateLiteral, len(lits))
		for i, l := range lits {
			zero[i] = sqlparse.TemplateLiteral{Text: "0", IsString: l.IsString}
			if l.IsString {
				zero[i].Text = ""
			}
		}
		vstmt, err := stmt.Rebind(zero)
		if err != nil {
			return
		}
		vplan, err := logicalplan.Plan(vstmt)
		if err != nil {
			return
		}
		assertTreesIdentical(t, src, encode(vplan), encode(plan))
	})
}
