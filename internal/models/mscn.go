package models

import (
	"hash/fnv"
	"strconv"
	"strings"

	"prestroid/internal/dataset"
	"prestroid/internal/logicalplan"
	"prestroid/internal/nn"
	"prestroid/internal/sqlparse"
	"prestroid/internal/tensor"
	"prestroid/internal/workload"
)

// MSCNConfig configures the modified multi-set convolutional network. The
// paper uses 256 perceptron units per layer for Grab-Traces and 24 for
// TPC-DS, dropout 5%, ADAM.
type MSCNConfig struct {
	Units   int
	Dropout float64
	LR      float64
	Seed    uint64
}

// DefaultMSCNConfig returns a scaled-down architecture.
func DefaultMSCNConfig() MSCNConfig {
	return MSCNConfig{Units: 64, Dropout: 0.05, LR: 1e-3, Seed: 1}
}

var joinKinds = []string{"INNER", "LEFT", "RIGHT", "FULL", "CROSS"}

var predOps = []string{"=", "<", ">", "<=", ">=", "<>", "in", "between", "like", "isnull"}

// mscnSample is the cached multi-set encoding of one trace.
type mscnSample struct {
	tables [][]float64
	joins  [][]float64
	preds  [][]float64
}

// MSCN is the M-MSCN baseline: Deep-Sets style per-set MLPs with average
// pooling, concatenated into a final regression MLP.
type MSCN struct {
	cfg  MSCNConfig
	pipe *Pipeline

	colIndex map[string]int // predicate column vocabulary (0 = unknown)

	tableMLP, joinMLP, predMLP *setMLP
	final                      []nn.Layer

	slab *nn.Slab
	opt  *nn.Adam
	loss nn.HuberLoss

	cache                        map[*workload.Trace]*mscnSample
	maxTables, maxJoins, maxPred int
}

// setMLP is a two-layer perceptron applied element-wise over a set, followed
// by mean pooling per sample segment.
type setMLP struct {
	l1, l2 *nn.Dense
	r1, r2 *nn.ReLU
	segs   []int // element count per sample of the last forward
	total  int
}

func newSetMLP(in, units int, rng *tensor.RNG) *setMLP {
	return &setMLP{
		l1: nn.NewDense(in, units, rng),
		l2: nn.NewDense(units, units, rng),
		r1: nn.NewReLU(),
		r2: nn.NewReLU(),
	}
}

func (s *setMLP) params() []*nn.Param {
	return append(s.l1.Params(), s.l2.Params()...)
}

// forward stacks every element of every sample into one matrix, applies the
// MLP, and mean-pools each sample's segment. Samples with empty sets pool
// to zero.
func (s *setMLP) forward(batch [][][]float64, units int, training bool) *tensor.Tensor {
	s.segs = s.segs[:0]
	s.total = 0
	in := s.l1.In
	for _, elems := range batch {
		s.segs = append(s.segs, len(elems))
		s.total += len(elems)
	}
	out := tensor.New(len(batch), units)
	if s.total == 0 {
		return out
	}
	x := tensor.New(s.total, in)
	row := 0
	for _, elems := range batch {
		for _, e := range elems {
			copy(x.Row(row), e)
			row++
		}
	}
	h := s.r2.Forward(s.l2.Forward(s.r1.Forward(s.l1.Forward(x, training), training), training), training)
	row = 0
	for bi, n := range s.segs {
		if n == 0 {
			continue
		}
		dst := out.Row(bi)
		for i := 0; i < n; i++ {
			src := h.Row(row)
			for j := range dst {
				dst[j] += src[j] / float64(n)
			}
			row++
		}
	}
	return out
}

// backward expands the pooled gradient back over the elements and
// backpropagates through the MLP.
func (s *setMLP) backward(gradPooled *tensor.Tensor, units int) {
	if s.total == 0 {
		return
	}
	g := tensor.New(s.total, units)
	row := 0
	for bi, n := range s.segs {
		if n == 0 {
			continue
		}
		src := gradPooled.Row(bi)
		for i := 0; i < n; i++ {
			dst := g.Row(row)
			for j := range dst {
				dst[j] = src[j] / float64(n)
			}
			row++
		}
	}
	s.l1.Backward(s.r1.Backward(s.l2.Backward(s.r2.Backward(g))))
}

// NewMSCN builds the model over the shared pipeline (used for its table
// index; MSCN does not use Word2Vec embeddings — its 1-hot predicate
// encoding is exactly the space-inefficiency §3.3 critiques).
func NewMSCN(cfg MSCNConfig, pipe *Pipeline) *MSCN {
	m := &MSCN{
		cfg:      cfg,
		pipe:     pipe,
		colIndex: map[string]int{},
		loss:     nn.NewHuberLoss(1),
		slab:     nn.NewSlab(nil), // build lays out the real one
		opt:      nn.NewAdam(cfg.LR),
		cache:    map[*workload.Trace]*mscnSample{},
	}
	return m
}

// Name identifies the baseline.
func (m *MSCN) Name() string { return "M-MSCN" }

func (m *MSCN) tableWidth() int { return m.pipe.Enc.NumTables }
func (m *MSCN) joinWidth() int  { return len(joinKinds) + 1 }
func (m *MSCN) predWidth() int  { return 1 + len(m.colIndex) + len(predOps) + 1 }

// Prepare encodes each trace's three sets. The first call freezes the
// predicate-column vocabulary (call with training data first); later calls
// map unseen columns to the unknown slot.
func (m *MSCN) Prepare(traces []*workload.Trace) {
	if len(m.colIndex) == 0 {
		for _, tr := range traces {
			for _, cl := range extractClauses(tr.Plan) {
				if _, ok := m.colIndex[cl.col]; !ok {
					m.colIndex[cl.col] = len(m.colIndex) + 1 // 0 = unknown
				}
			}
		}
		m.build()
	}
	for _, tr := range traces {
		if _, ok := m.cache[tr]; ok {
			continue
		}
		s := m.encode(tr)
		m.cache[tr] = s
		if len(s.tables) > m.maxTables {
			m.maxTables = len(s.tables)
		}
		if len(s.joins) > m.maxJoins {
			m.maxJoins = len(s.joins)
		}
		if len(s.preds) > m.maxPred {
			m.maxPred = len(s.preds)
		}
	}
}

// build instantiates layers once the vocabulary is known.
func (m *MSCN) build() {
	rng := tensor.NewRNG(m.cfg.Seed)
	m.tableMLP = newSetMLP(m.tableWidth(), m.cfg.Units, rng)
	m.joinMLP = newSetMLP(m.joinWidth(), m.cfg.Units, rng)
	m.predMLP = newSetMLP(m.predWidth(), m.cfg.Units, rng)
	m.final = []nn.Layer{
		nn.NewDense(3*m.cfg.Units, m.cfg.Units, rng),
		nn.NewReLU(),
		nn.NewDropout(m.cfg.Dropout, rng),
		nn.NewDense(m.cfg.Units, 1, rng),
		nn.NewSigmoid(),
	}
	params := append(m.tableMLP.params(), m.joinMLP.params()...)
	params = append(params, m.predMLP.params()...)
	for _, l := range m.final {
		params = append(params, l.Params()...)
	}
	m.slab = nn.NewSlab(params)
}

// clause is one atomic predicate condition.
type clause struct {
	col, op string
	val     float64
}

// extractClauses pulls every atomic condition out of the plan's filter and
// join predicates.
func extractClauses(plan *logicalplan.Node) []clause {
	var out []clause
	plan.Walk(func(n *logicalplan.Node) {
		if n.Pred == nil {
			return
		}
		collectLeafClauses(n.Pred, &out)
	})
	return out
}

func collectLeafClauses(e sqlparse.Expr, out *[]clause) {
	switch v := e.(type) {
	case *sqlparse.BinaryExpr:
		if v.Op == "AND" || v.Op == "OR" {
			collectLeafClauses(v.Left, out)
			collectLeafClauses(v.Right, out)
			return
		}
		col, ok := v.Left.(sqlparse.ColumnRef)
		if !ok {
			return
		}
		val := 0.5
		if lit, isLit := v.Right.(sqlparse.Literal); isLit {
			val = literalValue(lit)
		}
		*out = append(*out, clause{col: strings.ToLower(col.Column), op: v.Op, val: val})
	case *sqlparse.NotExpr:
		collectLeafClauses(v.Inner, out)
	case *sqlparse.InExpr:
		*out = append(*out, clause{col: strings.ToLower(v.Col.Column), op: "in", val: float64(len(v.Values)) / 10})
	case *sqlparse.BetweenExpr:
		*out = append(*out, clause{col: strings.ToLower(v.Col.Column), op: "between", val: (literalValue(v.Lo) + literalValue(v.Hi)) / 2})
	case *sqlparse.LikeExpr:
		*out = append(*out, clause{col: strings.ToLower(v.Col.Column), op: "like", val: hashUnit(v.Pattern)})
	case *sqlparse.IsNullExpr:
		*out = append(*out, clause{col: strings.ToLower(v.Col.Column), op: "isnull", val: 1})
	}
}

// literalValue normalises a literal to roughly [0,1].
func literalValue(l sqlparse.Literal) float64 {
	if l.IsString {
		return hashUnit(l.Value)
	}
	f, err := strconv.ParseFloat(l.Value, 64)
	if err != nil {
		return 0.5
	}
	// Squash large magnitudes smoothly.
	return f / (1 + absF(f))
}

func absF(f float64) float64 {
	if f < 0 {
		return -f
	}
	return f
}

func hashUnit(s string) float64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return float64(h.Sum64()%1000) / 1000
}

// encode builds the three element sets for one trace.
func (m *MSCN) encode(tr *workload.Trace) *mscnSample {
	s := &mscnSample{}
	tr.Plan.Walk(func(n *logicalplan.Node) {
		switch n.Op {
		case logicalplan.OpTableScan:
			e := make([]float64, m.tableWidth())
			idx := 0
			if i, ok := m.pipe.Enc.TableIndex[n.Table]; ok {
				idx = i
			}
			e[idx] = 1
			s.tables = append(s.tables, e)
		case logicalplan.OpJoin:
			e := make([]float64, m.joinWidth())
			for i, k := range joinKinds {
				if n.JoinKind == k {
					e[i] = 1
				}
			}
			e[len(joinKinds)] = 1 // bias slot marking presence
			s.joins = append(s.joins, e)
		}
	})
	for _, cl := range extractClauses(tr.Plan) {
		e := make([]float64, m.predWidth())
		idx := 0
		if i, ok := m.colIndex[cl.col]; ok {
			idx = i
		}
		e[idx] = 1
		opOff := 1 + len(m.colIndex)
		for i, op := range predOps {
			if cl.op == op {
				e[opOff+i] = 1
			}
		}
		e[opOff+len(predOps)] = cl.val
		s.preds = append(s.preds, e)
	}
	return s
}

func (m *MSCN) gather(batch []*workload.Trace) (t, j, p [][][]float64) {
	t = make([][][]float64, len(batch))
	j = make([][][]float64, len(batch))
	p = make([][][]float64, len(batch))
	for i, tr := range batch {
		s, ok := m.cache[tr]
		if !ok {
			m.Prepare([]*workload.Trace{tr})
			s = m.cache[tr]
		}
		t[i], j[i], p[i] = s.tables, s.joins, s.preds
	}
	return
}

func (m *MSCN) forward(batch []*workload.Trace, training bool) *tensor.Tensor {
	tb, jb, pb := m.gather(batch)
	ht := m.tableMLP.forward(tb, m.cfg.Units, training)
	hj := m.joinMLP.forward(jb, m.cfg.Units, training)
	hp := m.predMLP.forward(pb, m.cfg.Units, training)
	x := tensor.New(len(batch), 3*m.cfg.Units)
	for i := 0; i < len(batch); i++ {
		row := x.Row(i)
		copy(row[:m.cfg.Units], ht.Row(i))
		copy(row[m.cfg.Units:2*m.cfg.Units], hj.Row(i))
		copy(row[2*m.cfg.Units:], hp.Row(i))
	}
	for _, l := range m.final {
		x = l.Forward(x, training)
	}
	return x
}

// TrainBatch performs one ADAM step.
func (m *MSCN) TrainBatch(batch []*workload.Trace, labels *tensor.Tensor) float64 {
	pred := m.forward(batch, true)
	lossVal := m.loss.Value(pred, labels)
	g := m.loss.Grad(pred, labels)
	for i := len(m.final) - 1; i >= 0; i-- {
		g = m.final[i].Backward(g)
	}
	// Split the concatenated gradient back to the three set branches.
	u := m.cfg.Units
	gt := tensor.New(len(batch), u)
	gj := tensor.New(len(batch), u)
	gp := tensor.New(len(batch), u)
	for i := 0; i < len(batch); i++ {
		row := g.Row(i)
		copy(gt.Row(i), row[:u])
		copy(gj.Row(i), row[u:2*u])
		copy(gp.Row(i), row[2*u:])
	}
	m.tableMLP.backward(gt, u)
	m.joinMLP.backward(gj, u)
	m.predMLP.backward(gp, u)
	m.opt.Step(m.slab)
	return lossVal
}

// Predict runs inference.
func (m *MSCN) Predict(batch []*workload.Trace) *tensor.Tensor {
	return m.forward(batch, false)
}

// ParamCount returns trainable scalars.
func (m *MSCN) ParamCount() int { return len(m.slab.W) }

// BatchBytes reports the padded multi-set batch size: every set padded to
// its maximum cardinality — the sparse, large tensors §5.4 attributes to
// M-MSCN's large distinct-predicate space.
func (m *MSCN) BatchBytes(batchSize int) int {
	return dataset.PaddedSetBatchBytes(batchSize,
		[]int{m.maxTables, m.maxJoins, m.maxPred},
		[]int{m.tableWidth(), m.joinWidth(), m.predWidth()})
}

// Weights exposes the trainable parameters for persistence and for
// data-parallel weight synchronisation.
func (m *MSCN) Weights() []*nn.Param { return m.slab.Params }

// StateTensors exposes non-trainable layer state for persistence; MSCN's
// final MLP has no batch norm, so this is empty.
func (m *MSCN) StateTensors() []*tensor.Tensor { return nn.CollectState(m.final) }

// Evict drops cached encodings for traces the caller no longer needs.
func (m *MSCN) Evict(traces []*workload.Trace) {
	for _, tr := range traces {
		delete(m.cache, tr)
	}
}
