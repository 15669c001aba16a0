package persist

import (
	"encoding/gob"
	"fmt"
	"io"
	"math"

	"prestroid/internal/models"
	"prestroid/internal/workload"
)

// fullBundle is the on-disk representation of a complete predictor identity:
// the feature pipeline, the label normaliser and the weight tensors travel in
// one envelope so a retrain that grows the table universe (and therefore the
// feature dimension) or shifts the label range ships as a single artefact.
type fullBundle struct {
	Version int
	// FeatureDim is the per-node feature width the weights were trained
	// against, declared at save time so a decoded bundle whose pipeline
	// section reconstructs to a different width is rejected before any
	// model is built from it.
	FeatureDim int
	Norm       workload.Normalizer
	Pipeline   pipelineBundle
	Weights    weightBundle
	// ModelName optionally records the serving identity this bundle targets
	// in a multi-model daemon; a reload whose request names no model falls
	// back to it. gob tolerates it missing, so bundles written before the
	// field existed decode with an empty name (→ the default identity) and
	// old readers skip it.
	ModelName string
}

// SaveFullBundle writes the complete (pipeline, normaliser, weights) triple
// to w, with the pipeline's feature dimension and the serving identity name
// ("" = the daemon's default model) stamped in, so operators can ship
// per-model artefacts that route themselves without a model field on the
// reload request. The weight section is the representation SaveWeights
// writes standalone.
func SaveFullBundle(w io.Writer, p *models.Pipeline, norm workload.Normalizer, m WeightStore, name string) error {
	b := fullBundle{
		Version:    formatVersion,
		FeatureDim: p.Enc.FeatureDim(),
		Norm:       norm,
		Pipeline:   newPipelineBundle(p),
		Weights:    newWeightBundle(m),
		ModelName:  name,
	}
	return gob.NewEncoder(w).Encode(&b)
}

// FullBundle is a decoded, internally validated predictor identity staged in
// memory. Decoding reconstructs the pipeline and proves the bundle coherent
// (version, feature dimension, normaliser range) before the caller builds
// anything from it; the weight section still has to be validated against the
// model architecture via Weights().Apply, which happens on a staging replica
// so a mismatched bundle never touches the serving path.
type FullBundle struct {
	pipe    *models.Pipeline
	norm    workload.Normalizer
	weights Bundle
	name    string
}

// DecodeFullBundle reads and validates a full bundle from r without applying
// it anywhere. A truncated stream, a pipeline section that reconstructs to a
// feature dimension other than the declared one, or a normaliser whose range
// is inverted (LogMax <= LogMin would make Normalize/Denormalize divide by a
// non-positive range) or not finite (an infinite or NaN bound makes every
// denormalised prediction infinite or NaN, which JSON cannot carry) all
// reject the bundle as a whole, and so do sections whose columns disagree in
// length and weights that are not finite (see weightBundle.check and
// checkSnapshot): those are refused before anything is built from them.
func DecodeFullBundle(r io.Reader) (*FullBundle, error) {
	var b fullBundle
	if err := gob.NewDecoder(r).Decode(&b); err != nil {
		return nil, fmt.Errorf("persist: decode full bundle: %w", err)
	}
	if b.Version != formatVersion {
		return nil, fmt.Errorf("persist: unsupported full-bundle version %d", b.Version)
	}
	if n := b.Norm; math.IsInf(n.LogMin, 0) || math.IsNaN(n.LogMin) || math.IsInf(n.LogMax, 0) || math.IsNaN(n.LogMax) {
		return nil, fmt.Errorf("persist: normaliser range not finite: logmin=%v logmax=%v", n.LogMin, n.LogMax)
	}
	if !(b.Norm.LogMax > b.Norm.LogMin) {
		return nil, fmt.Errorf("persist: normaliser range inverted: logmin=%v logmax=%v", b.Norm.LogMin, b.Norm.LogMax)
	}
	if b.Weights.Version != formatVersion {
		return nil, fmt.Errorf("persist: unsupported weight-section version %d", b.Weights.Version)
	}
	if err := b.Weights.check(); err != nil {
		return nil, err
	}
	pipe, err := pipelineFromBundle(&b.Pipeline)
	if err != nil {
		return nil, err
	}
	if got := pipe.Enc.FeatureDim(); got != b.FeatureDim {
		return nil, fmt.Errorf("persist: pipeline reconstructs to feature dim %d, bundle declares %d", got, b.FeatureDim)
	}
	return &FullBundle{pipe: pipe, norm: b.Norm, weights: Bundle{b: b.Weights}, name: b.ModelName}, nil
}

// Name returns the serving identity stamped into the bundle at save time,
// empty for unnamed bundles (including every bundle written before the
// field existed), which target the daemon's default model.
func (fb *FullBundle) Name() string { return fb.name }

// Pipeline returns the reconstructed feature pipeline. It encodes queries
// identically to the pipeline that was saved; its Word2Vec model is frozen.
func (fb *FullBundle) Pipeline() *models.Pipeline { return fb.pipe }

// Norm returns the label normaliser fit alongside the bundle's weights.
func (fb *FullBundle) Norm() workload.Normalizer { return fb.norm }

// Weights returns the staged weight section, to be validated against (and
// applied to) a model built off the bundle's own pipeline: a caller cannot
// construct the destination model before decoding the bundle, because the
// bundle's own pipeline decides the model's shapes — every consumer decodes
// first, builds off Pipeline(), then applies.
func (fb *FullBundle) Weights() *Bundle { return &fb.weights }
