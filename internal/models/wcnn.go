package models

import (
	"strconv"
	"strings"

	"prestroid/internal/dataset"
	"prestroid/internal/nn"
	"prestroid/internal/tensor"
	"prestroid/internal/workload"
)

// WCNNConfig configures the word-convolution baseline: token embedding,
// parallel convolution branches over sliding windows, max-over-time pooling,
// dropout and a dense head. The paper uses embedding dim 100, windows
// {3,4,5} with {100,250} kernels, dropout 50%.
type WCNNConfig struct {
	EmbedDim int
	Windows  []int
	Kernels  int
	Dropout  float64
	LR       float64
	MaxLen   int // token sequence cap; longer queries are truncated
	Seed     uint64
}

// DefaultWCNNConfig returns a scaled-down WCNN; the paper's variants are
// WCNN-100 and WCNN-250 (Kernels per window).
func DefaultWCNNConfig() WCNNConfig {
	return WCNNConfig{
		EmbedDim: 32,
		Windows:  []int{3, 4, 5},
		Kernels:  32,
		Dropout:  0.5,
		LR:       1e-3,
		MaxLen:   400,
		Seed:     1,
	}
}

// wcnnBranch is one window-size convolution path.
type wcnnBranch struct {
	conv *nn.Conv1D
	relu *nn.ReLU
	pool *nn.GlobalMaxPool1D
}

// WCNN is the word-convolution network: it reads the raw SQL token stream,
// so join order and operator choices made by the optimizer are invisible to
// it — the structural blindness §5.2 discusses.
type WCNN struct {
	cfg WCNNConfig

	vocab    map[string]int // 0 = pad, 1 = unk
	embed    *nn.Embedding
	branches []wcnnBranch
	head     []nn.Layer

	slab *nn.Slab
	opt  *nn.Adam
	loss nn.HuberLoss

	cache  map[*workload.Trace][]int
	maxLen int // longest (capped) training sequence, the padding target
}

// NewWCNN returns an unbuilt model; layers are instantiated on the first
// Prepare call once the vocabulary is known.
func NewWCNN(cfg WCNNConfig) *WCNN {
	if cfg.MaxLen <= 0 {
		cfg.MaxLen = 400
	}
	return &WCNN{
		cfg:   cfg,
		vocab: map[string]int{},
		loss:  nn.NewHuberLoss(1),
		slab:  nn.NewSlab(nil), // build lays out the real one
		opt:   nn.NewAdam(cfg.LR),
		cache: map[*workload.Trace][]int{},
	}
}

// Name reports the paper's naming: WCNN-<kernels>.
func (m *WCNN) Name() string {
	return "WCNN-" + strconv.Itoa(m.cfg.Kernels)
}

// tokenizeSQL splits a query string into lowercase word tokens, treating
// punctuation as separators.
func tokenizeSQL(sql string) []string {
	sql = strings.ToLower(sql)
	var toks []string
	var cur strings.Builder
	flush := func() {
		if cur.Len() > 0 {
			toks = append(toks, cur.String())
			cur.Reset()
		}
	}
	for _, r := range sql {
		switch {
		case r == ' ' || r == '\t' || r == '\n' || r == ',' || r == '(' || r == ')' || r == '\'':
			flush()
		case r == '.':
			flush()
		default:
			cur.WriteRune(r)
		}
	}
	flush()
	return toks
}

// Prepare tokenises and caches id sequences. The first call freezes the
// vocabulary and instantiates the layers (call with training data first).
func (m *WCNN) Prepare(traces []*workload.Trace) {
	first := len(m.vocab) == 0
	if first {
		for _, tr := range traces {
			toks := tokenizeSQL(tr.SQL)
			if len(toks) > m.cfg.MaxLen {
				toks = toks[:m.cfg.MaxLen]
			}
			for _, tok := range toks {
				if _, ok := m.vocab[tok]; !ok {
					m.vocab[tok] = len(m.vocab) + 2 // 0 pad, 1 unk
				}
			}
			if len(toks) > m.maxLen {
				m.maxLen = len(toks)
			}
		}
		minLen := maxWindow(m.cfg.Windows)
		if m.maxLen < minLen {
			m.maxLen = minLen
		}
		m.build()
	}
	for _, tr := range traces {
		if _, ok := m.cache[tr]; ok {
			continue
		}
		m.cache[tr] = m.encodeIDs(tr.SQL)
	}
}

func maxWindow(ws []int) int {
	best := 1
	for _, w := range ws {
		if w > best {
			best = w
		}
	}
	return best
}

func (m *WCNN) encodeIDs(sql string) []int {
	toks := tokenizeSQL(sql)
	if len(toks) > m.cfg.MaxLen {
		toks = toks[:m.cfg.MaxLen]
	}
	ids := make([]int, m.maxLen)
	for i, tok := range toks {
		if i >= m.maxLen {
			break
		}
		if id, ok := m.vocab[tok]; ok {
			ids[i] = id
		} else {
			ids[i] = 1 // unk
		}
	}
	return ids
}

func (m *WCNN) build() {
	rng := tensor.NewRNG(m.cfg.Seed)
	m.embed = nn.NewEmbedding(len(m.vocab)+2, m.cfg.EmbedDim, rng)
	for _, w := range m.cfg.Windows {
		m.branches = append(m.branches, wcnnBranch{
			conv: nn.NewConv1D(w, m.cfg.EmbedDim, m.cfg.Kernels, rng),
			relu: nn.NewReLU(),
			pool: nn.NewGlobalMaxPool1D(),
		})
	}
	concat := len(m.cfg.Windows) * m.cfg.Kernels
	m.head = []nn.Layer{
		nn.NewDropout(m.cfg.Dropout, rng),
		nn.NewDense(concat, 1, rng),
		nn.NewSigmoid(),
	}
	params := m.embed.Params()
	for _, br := range m.branches {
		params = append(params, br.conv.Params()...)
	}
	for _, l := range m.head {
		params = append(params, l.Params()...)
	}
	m.slab = nn.NewSlab(params)
}

func (m *WCNN) ids(batch []*workload.Trace) [][]int {
	out := make([][]int, len(batch))
	for i, tr := range batch {
		ids, ok := m.cache[tr]
		if !ok {
			m.Prepare([]*workload.Trace{tr})
			ids = m.cache[tr]
		}
		out[i] = ids
	}
	return out
}

func (m *WCNN) forward(batch []*workload.Trace, training bool) *tensor.Tensor {
	ids := m.ids(batch)
	emb := m.embed.ForwardIDs(ids)
	concat := tensor.New(len(batch), len(m.branches)*m.cfg.Kernels)
	for bi, br := range m.branches {
		h := br.pool.Forward(br.relu.Forward(br.conv.Forward(emb, training), training), training)
		for s := 0; s < len(batch); s++ {
			copy(concat.Row(s)[bi*m.cfg.Kernels:(bi+1)*m.cfg.Kernels], h.Row(s))
		}
	}
	x := concat
	for _, l := range m.head {
		x = l.Forward(x, training)
	}
	return x
}

// TrainBatch performs one ADAM step.
func (m *WCNN) TrainBatch(batch []*workload.Trace, labels *tensor.Tensor) float64 {
	pred := m.forward(batch, true)
	lossVal := m.loss.Value(pred, labels)
	g := m.loss.Grad(pred, labels)
	for i := len(m.head) - 1; i >= 0; i-- {
		g = m.head[i].Backward(g)
	}
	// Split concat gradient to branches; sum embedding gradients.
	var embGrad *tensor.Tensor
	for bi, br := range m.branches {
		gb := tensor.New(len(batch), m.cfg.Kernels)
		for s := 0; s < len(batch); s++ {
			copy(gb.Row(s), g.Row(s)[bi*m.cfg.Kernels:(bi+1)*m.cfg.Kernels])
		}
		ge := br.conv.Backward(br.relu.Backward(br.pool.Backward(gb)))
		if embGrad == nil {
			embGrad = ge
		} else {
			embGrad.AddInPlace(ge)
		}
	}
	m.embed.BackwardIDs(embGrad)
	m.opt.Step(m.slab)
	return lossVal
}

// Predict runs inference.
func (m *WCNN) Predict(batch []*workload.Trace) *tensor.Tensor {
	return m.forward(batch, false)
}

// ParamCount returns trainable scalars.
func (m *WCNN) ParamCount() int { return len(m.slab.W) }

// BatchBytes reports the padded token-id batch: WCNN's single 1-D vector
// per query is the most compact input layout of all compared models (§5.4).
func (m *WCNN) BatchBytes(batchSize int) int {
	return dataset.PaddedTokenBatchBytes(batchSize, m.maxLen)
}

// Weights exposes the trainable parameters for persistence and for
// data-parallel weight synchronisation.
func (m *WCNN) Weights() []*nn.Param { return m.slab.Params }

// StateTensors exposes non-trainable layer state for persistence; WCNN has
// no batch norm, so this is empty.
func (m *WCNN) StateTensors() []*tensor.Tensor { return nn.CollectState(m.head) }

// Evict drops cached encodings for traces the caller no longer needs.
func (m *WCNN) Evict(traces []*workload.Trace) {
	for _, tr := range traces {
		delete(m.cache, tr)
	}
}
