package otp

import (
	"math"
	"testing"

	"prestroid/internal/logicalplan"
	"prestroid/internal/sqlparse"
	"prestroid/internal/word2vec"
)

func plan(t *testing.T, src string) *logicalplan.Node {
	t.Helper()
	p, err := logicalplan.PlanSQL(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestRecastScanRule(t *testing.T) {
	p := plan(t, "SELECT a FROM t")
	n := Recast(p)
	if !n.IsBinary() {
		t.Fatal("recast tree must be binary")
	}
	// Find the scan OPR: its left child is TBL[t], right is ∅.
	var scan *Node
	n.Walk(func(x *Node) {
		if x.Type == NodeOpr && x.Op == logicalplan.OpTableScan {
			scan = x
		}
	})
	if scan == nil {
		t.Fatal("scan OPR missing")
	}
	if scan.Left.Type != NodeTbl || scan.Left.Table != "t" {
		t.Fatalf("scan left child = %v", scan.Left.Type)
	}
	if scan.Right.Type != NodeNull {
		t.Fatalf("scan right child = %v", scan.Right.Type)
	}
}

func TestRecastFilterRule(t *testing.T) {
	p := plan(t, "SELECT a FROM t WHERE a > 1")
	n := Recast(p)
	var filter *Node
	n.Walk(func(x *Node) {
		if x.Type == NodeOpr && x.Op == logicalplan.OpFilter {
			filter = x
		}
	})
	if filter == nil {
		t.Fatal("filter OPR missing")
	}
	if filter.Right.Type != NodePred || filter.Right.Pred == nil {
		t.Fatalf("filter right child = %v, want PRED", filter.Right.Type)
	}
	if filter.Left.Type != NodeOpr {
		t.Fatalf("filter left child = %v, want OPR input", filter.Left.Type)
	}
}

func TestRecastJoinRule(t *testing.T) {
	p := plan(t, "SELECT * FROM a JOIN b ON a.x = b.x")
	n := Recast(p)
	var join *Node
	n.Walk(func(x *Node) {
		if x.Type == NodeOpr && x.Op == logicalplan.OpJoin {
			join = x
		}
	})
	if join == nil {
		t.Fatal("join OPR missing")
	}
	if join.Left.Type != NodeOpr || join.Right.Type != NodeOpr {
		t.Fatal("join children must be recast inputs, not PRED")
	}
}

func TestRecastAlwaysBinary(t *testing.T) {
	srcs := []string{
		"SELECT a FROM t",
		"SELECT a FROM t WHERE a > 1 AND b < 2",
		"SELECT * FROM a JOIN b ON a.x = b.x WHERE a.y = 3",
		"SELECT a FROM t1 UNION ALL SELECT a FROM t2",
		"SELECT x FROM (SELECT a AS x FROM t WHERE a IN (1,2)) s ORDER BY x LIMIT 3",
	}
	for _, src := range srcs {
		n := Recast(plan(t, src))
		if !n.IsBinary() {
			t.Fatalf("non-binary recast for %q", src)
		}
	}
}

func TestNodeCounts(t *testing.T) {
	n := Recast(plan(t, "SELECT a FROM t WHERE a > 1"))
	if n.NodeCount() <= n.RealNodeCount() {
		t.Fatal("padding nodes must add to total count")
	}
	if n.MaxDepth() < 3 {
		t.Fatalf("depth = %d, too shallow", n.MaxDepth())
	}
}

func TestPredTokensStripValues(t *testing.T) {
	stmt, err := sqlparse.Parse("SELECT * FROM t WHERE orders > 10 AND id < 100 OR product_id = 222")
	if err != nil {
		t.Fatal(err)
	}
	toks := PredTokens(stmt.Where)
	want := []string{"orders", ">", "id", "<", "product_id", "="}
	if len(toks) != len(want) {
		t.Fatalf("tokens = %v, want %v", toks, want)
	}
	for i := range want {
		if toks[i] != want[i] {
			t.Fatalf("tokens = %v, want %v", toks, want)
		}
	}
}

func TestPredTokensJoinColumns(t *testing.T) {
	stmt, err := sqlparse.Parse("SELECT * FROM a JOIN b ON a.x = b.y")
	if err != nil {
		t.Fatal(err)
	}
	je := stmt.From.(*sqlparse.JoinExpr)
	toks := PredTokens(je.On)
	// Both columns should appear (x, =, y).
	if len(toks) != 3 || toks[0] != "x" || toks[1] != "=" || toks[2] != "y" {
		t.Fatalf("join tokens = %v", toks)
	}
}

func TestConjTreeStructure(t *testing.T) {
	stmt, _ := sqlparse.Parse("SELECT * FROM t WHERE a = 1 AND b = 2 AND c = 3 OR d = 4")
	tree := BuildConjTree(stmt.Where)
	if tree.Conj != "OR" {
		t.Fatalf("root conj = %q, want OR", tree.Conj)
	}
	if len(tree.Children) != 2 {
		t.Fatalf("root children = %d", len(tree.Children))
	}
	and := tree.Children[0]
	if and.Conj != "AND" || len(and.Children) != 3 {
		t.Fatalf("AND chain not flattened: %q %d", and.Conj, len(and.Children))
	}
	if got := len(tree.Leaves()); got != 4 {
		t.Fatalf("leaves = %d, want 4", got)
	}
}

func newTestEncoder(t *testing.T) (*Encoder, []*logicalplan.Node) {
	t.Helper()
	srcs := []string{
		"SELECT * FROM orders WHERE amount > 10 AND fee < 5",
		"SELECT * FROM orders WHERE amount < 100 OR fee > 1",
		"SELECT * FROM trips WHERE longitude > 3 AND latitude < 9",
		"SELECT * FROM trips WHERE longitude < 8 AND latitude > 2",
		"SELECT * FROM orders WHERE amount BETWEEN 1 AND 9",
		"SELECT * FROM trips WHERE longitude = 4 AND latitude = 4",
		"SELECT * FROM orders WHERE fee = 2 AND amount = 3",
		"SELECT * FROM trips WHERE latitude > 1 OR longitude < 2",
	}
	var plans []*logicalplan.Node
	for _, s := range srcs {
		plans = append(plans, plan(t, s))
	}
	cfg := word2vec.DefaultConfig(8)
	cfg.MinCount = 1
	cfg.Epochs = 5
	w2v := word2vec.Train(Corpus(plans), cfg)
	return NewEncoder([]string{"orders", "trips"}, w2v), plans
}

func TestEncoderFeatureLayout(t *testing.T) {
	enc, plans := newTestEncoder(t)
	wantDim := len(logicalplan.AllOps()) + 8 + 3 // ops + Pf + (2 tables + unknown)
	if enc.FeatureDim() != wantDim {
		t.Fatalf("FeatureDim = %d, want %d", enc.FeatureDim(), wantDim)
	}
	root := Recast(plans[0])
	ctx := enc.NewQueryContext(root)

	// OPR node: exactly one bit set, inside the operator block.
	f := enc.NodeFeature(root, ctx)
	ones := 0
	for i, v := range f {
		if v != 0 {
			if i >= len(enc.OpIndex) {
				t.Fatalf("OPR feature outside operator block at %d", i)
			}
			ones++
		}
	}
	if ones != 1 {
		t.Fatalf("OPR 1-hot has %d bits", ones)
	}
}

func TestEncoderTableOneHot(t *testing.T) {
	enc, plans := newTestEncoder(t)
	root := Recast(plans[0])
	ctx := enc.NewQueryContext(root)
	var tbl *Node
	root.Walk(func(n *Node) {
		if n.Type == NodeTbl {
			tbl = n
		}
	})
	f := enc.NodeFeature(tbl, ctx)
	hot := -1
	for i, v := range f {
		if v != 0 {
			hot = i
		}
	}
	if hot < enc.tblOffset() {
		t.Fatalf("TBL bit at %d, before table block %d", hot, enc.tblOffset())
	}
	// Unknown table lands on the reserved slot.
	unknown := &Node{Type: NodeTbl, Table: "never_seen"}
	f2 := enc.NodeFeature(unknown, ctx)
	if f2[enc.tblOffset()] != 1 {
		t.Fatal("unknown table must hit reserved slot 0")
	}
}

func TestEncoderNullIsZero(t *testing.T) {
	enc, _ := newTestEncoder(t)
	f := enc.NodeFeature(nullNode(), nil)
	for _, v := range f {
		if v != 0 {
			t.Fatal("∅ node must encode to zero vector")
		}
	}
}

func TestMinMaxConjunctionPooling(t *testing.T) {
	enc, _ := newTestEncoder(t)
	// a AND b should be element-wise <= a OR b given identical clause sets.
	stmtAnd, _ := sqlparse.Parse("SELECT * FROM t WHERE amount > 1 AND fee < 2")
	stmtOr, _ := sqlparse.Parse("SELECT * FROM t WHERE amount > 1 OR fee < 2")
	nAnd := &Node{Type: NodePred, Pred: stmtAnd.Where}
	nOr := &Node{Type: NodePred, Pred: stmtOr.Where}
	vAnd := enc.EncodePred(nAnd, nil)
	vOr := enc.EncodePred(nOr, nil)
	for i := range vAnd {
		if vAnd[i] > vOr[i]+1e-12 {
			t.Fatalf("MIN(AND) exceeded MAX(OR) at dim %d: %v > %v", i, vAnd[i], vOr[i])
		}
	}
}

func TestOOVFallbackHierarchy(t *testing.T) {
	enc, plans := newTestEncoder(t)
	root := Recast(plans[0])
	ctx := enc.NewQueryContext(root)
	// A predicate with entirely unknown tokens falls back to the query's
	// PRED mean (non-zero since the query has encodable predicates).
	// IS NULL tokens ("zzz_unknown_col", "isnull") are both out of vocabulary.
	stmt, _ := sqlparse.Parse("SELECT * FROM t WHERE zzz_unknown_col IS NULL")
	n := &Node{Type: NodePred, Pred: stmt.Where}
	v := enc.EncodePred(n, ctx)
	allZero := true
	for _, x := range v {
		if x != 0 {
			allZero = false
		}
	}
	if allZero {
		t.Fatal("OOV predicate should fall back to a non-zero vector")
	}
	// With no context at all, it must use the global mean.
	v2 := enc.EncodePred(n, nil)
	g := enc.W2V.GlobalMean()
	for i := range v2 {
		if v2[i] != g[i] {
			t.Fatal("nil-context fallback must be the global mean")
		}
	}
}

// The fallback chain is built from the whole query's tree on first use: an
// out-of-vocabulary clause takes the mean of the strict encodings of every
// PRED node in the query, and when none has one, the global mean.
func TestQueryContextFallbackIsTheWholeQuery(t *testing.T) {
	enc, _ := newTestEncoder(t)
	pred := func(where string) *Node {
		stmt, err := sqlparse.Parse("SELECT * FROM t WHERE " + where)
		if err != nil {
			t.Fatal(err)
		}
		return &Node{Type: NodePred, Pred: stmt.Where}
	}
	oov := pred("zzz_unknown_col IS NULL")
	known := []*Node{pred("amount > 10 AND fee < 5"), pred("latitude < 3 OR longitude > 1")}
	var direct [][]float64
	for _, n := range known {
		v, ok := enc.encodePredDirect(n)
		if !ok {
			t.Fatal("in-vocabulary predicate has no strict encoding")
		}
		direct = append(direct, v)
	}
	for _, tc := range []struct {
		name string
		root *Node
		want []float64
	}{
		{"pred-mean", &Node{Type: NodeOpr, Left: known[0], Right: &Node{Type: NodeOpr, Left: oov, Right: known[1]}}, meanOf(direct, enc.Pf)},
		{"global-mean", &Node{Type: NodeOpr, Left: pred("zzz_a IS NULL"), Right: oov}, enc.W2V.GlobalMean()},
	} {
		got := enc.EncodePred(oov, enc.NewQueryContext(tc.root))
		for i := range tc.want {
			if math.Float64bits(got[i]) != math.Float64bits(tc.want[i]) {
				t.Fatalf("%s: fallback[%d] = %v, want %v", tc.name, i, got[i], tc.want[i])
			}
		}
	}
}

func TestCorpusSkipsPredicateFreePlans(t *testing.T) {
	plans := []*logicalplan.Node{
		plan(t, "SELECT a FROM t"),
		plan(t, "SELECT a FROM t WHERE a > 1"),
	}
	c := Corpus(plans)
	if len(c) != 1 {
		t.Fatalf("corpus size = %d, want 1", len(c))
	}
}
