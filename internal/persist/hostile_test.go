package persist

import (
	"bytes"
	"encoding/gob"
	"math"
	"strings"
	"testing"

	"prestroid/internal/models"
	"prestroid/internal/otp"
	"prestroid/internal/word2vec"
	"prestroid/internal/workload"
)

// tinyPipeline is a pipeline small enough for bundles of a few kilobytes,
// built without training: a three-word, two-dimensional Word2Vec snapshot
// and a two-table universe.
func tinyPipeline() *models.Pipeline {
	w2v := word2vec.FromSnapshot(&word2vec.Snapshot{
		Dim:     2,
		Words:   []string{"a", "b", "c"},
		Freq:    []int{3, 2, 1},
		Vectors: [][]float64{{1, 0}, {0, 1}, {0.5, -0.5}},
	})
	return &models.Pipeline{W2V: w2v, Enc: otp.NewEncoder([]string{"t", "u"}, w2v)}
}

// tinyModel is a model over pipe with one two-wide conv layer and a
// two-wide head, so its weight section is a few hundred scalars.
func tinyModel(pipe *models.Pipeline, seed uint64) *models.Prestroid {
	cfg := models.DefaultPrestroidConfig(7, 1)
	cfg.ConvWidths = []int{2}
	cfg.DenseWidths = []int{2}
	cfg.Seed = seed
	return models.NewPrestroid(cfg, pipe)
}

// tinyNorm is a valid label range for hand-built full bundles.
var tinyNorm = workload.Normalizer{LogMin: 0, LogMax: 3}

// gobBytes encodes v the way the Save functions do.
func gobBytes(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// tinyFull is a coherent full bundle over tinyPipeline, for a test to
// corrupt before encoding.
func tinyFull() fullBundle {
	pipe := tinyPipeline()
	return fullBundle{
		Version:    formatVersion,
		FeatureDim: pipe.Enc.FeatureDim(),
		Norm:       tinyNorm,
		Pipeline:   newPipelineBundle(pipe),
		Weights:    newWeightBundle(tinyModel(pipe, 1)),
	}
}

// hostileBundle is a hand-built artefact whose sections disagree with
// themselves, named for its flaw.
type hostileBundle struct {
	name string
	full bool // a full bundle; a weight bundle otherwise
	raw  []byte
}

// hostileBundles are the flaws decode checks for. Every one used to decode;
// a weight section with fewer shapes than tensors then panicked in Validate
// with an index out of range, a snapshot with more words than vectors did
// so in word2vec.FromSnapshot inside DecodeFullBundle, and an empty
// vocabulary there asked for a Dim-wide row no process can allocate. An
// infinite normaliser bound decoded and rolled in, after which every
// prediction was infinite.
func hostileBundles(t testing.TB) []hostileBundle {
	weights := func(name string, corrupt func(*weightBundle)) hostileBundle {
		b := newWeightBundle(tinyModel(tinyPipeline(), 1))
		corrupt(&b)
		return hostileBundle{name, false, gobBytes(t, &b)}
	}
	full := func(name string, corrupt func(*fullBundle)) hostileBundle {
		b := tinyFull()
		corrupt(&b)
		return hostileBundle{name, true, gobBytes(t, &b)}
	}
	return []hostileBundle{
		weights("weights: fewer shapes than tensors", func(b *weightBundle) { b.Shapes = b.Shapes[:0] }),
		weights("weights: fewer names than tensors", func(b *weightBundle) { b.Names = b.Names[:1] }),
		full("full: weight section with fewer shapes than tensors", func(b *fullBundle) { b.Weights.Shapes = nil }),
		full("full: more words than vectors", func(b *fullBundle) { b.Pipeline.W2V.Vectors = nil }),
		full("full: fewer frequencies than words", func(b *fullBundle) { b.Pipeline.W2V.Freq = b.Pipeline.W2V.Freq[:1] }),
		full("full: a vector narrower than the dimension", func(b *fullBundle) { b.Pipeline.W2V.Vectors[2] = []float64{1} }),
		full("full: zero dimension", func(b *fullBundle) {
			s := b.Pipeline.W2V
			s.Dim, s.Vectors = 0, [][]float64{{}, {}, {}}
		}),
		full("full: empty vocabulary with a vast dimension", func(b *fullBundle) {
			b.Pipeline.W2V = &word2vec.Snapshot{Dim: 1 << 62}
		}),
		full("full: no Word2Vec snapshot", func(b *fullBundle) { b.Pipeline.W2V = nil }),
		full("full: an infinite normaliser bound", func(b *fullBundle) { b.Norm.LogMax = math.Inf(1) }),
		full("full: a NaN normaliser bound", func(b *fullBundle) { b.Norm.LogMin = math.NaN() }),
	}
}

// decodeAndApply does with raw what a roll does with an artefact: decode it
// and apply its weights to a model built off the pipeline they belong to
// (the bundle's own for a full bundle, tinyPipeline's for weights alone).
func decodeAndApply(raw []byte, full bool) error {
	if !full {
		bd, err := DecodeBundle(bytes.NewReader(raw))
		if err != nil {
			return err
		}
		return bd.Apply(tinyModel(tinyPipeline(), 2))
	}
	fb, err := DecodeFullBundle(bytes.NewReader(raw))
	if err != nil {
		return err
	}
	return fb.Weights().Apply(tinyModel(fb.Pipeline(), 2))
}

// TestHostileBundlesAreDecodeErrors pins that a bundle whose sections
// disagree with themselves is refused at decode, before anything is built
// from it, with an error rather than a panic.
func TestHostileBundlesAreDecodeErrors(t *testing.T) {
	sound := tinyFull()
	if err := decodeAndApply(gobBytes(t, &sound), true); err != nil {
		t.Fatalf("the uncorrupted tiny bundle is refused: %v", err)
	}
	for _, h := range hostileBundles(t) {
		t.Run(h.name, func(t *testing.T) {
			var err error
			if h.full {
				_, err = DecodeFullBundle(bytes.NewReader(h.raw))
			} else {
				_, err = DecodeBundle(bytes.NewReader(h.raw))
			}
			if err == nil {
				t.Fatalf("decode accepted the bundle; applying it returns %v", decodeAndApply(h.raw, h.full))
			}
			if !strings.HasPrefix(err.Error(), "persist: ") {
				t.Fatalf("refusal %q is not a persist error", err)
			}
		})
	}
}
