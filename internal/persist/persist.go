// Package persist serialises trained predictors so that a model trained by
// the daily-retraining job can be shipped to the inference service of Fig 1
// without retraining. The format is a small versioned gob envelope: a full
// bundle carries the whole serving identity — pipeline (Word2Vec vectors +
// table universe), label normaliser and weights — and a weight bundle
// carries weights alone, keyed by position with shape validation on load,
// for a roll that keeps the live pipeline and normaliser.
package persist

import (
	"encoding/gob"
	"fmt"
	"io"

	"prestroid/internal/nn"
	"prestroid/internal/tensor"
)

// formatVersion guards against loading bundles written by incompatible
// versions of the library.
const formatVersion = 1

// weightBundle is the on-disk weight representation. State tensors
// (batch-norm running statistics) travel alongside the weights so inference
// after load is bit-identical to the trained model.
type weightBundle struct {
	Version int
	Names   []string
	Shapes  [][]int
	Data    [][]float64
	State   [][]float64
}

// WeightStore is implemented by every model (Weights()), exposing its
// trainable parameters in a stable order.
type WeightStore interface {
	Weights() []*nn.Param
}

// StateStore is optionally implemented by models whose layers carry
// non-trainable state (batch-norm running statistics).
type StateStore interface {
	StateTensors() []*tensor.Tensor
}

// newWeightBundle captures a model's parameters and layer state; the
// full-bundle envelope embeds the same representation SaveWeights writes
// standalone.
func newWeightBundle(m WeightStore) weightBundle {
	b := weightBundle{Version: formatVersion}
	for _, p := range m.Weights() {
		b.Names = append(b.Names, p.Name)
		shape := append([]int(nil), p.W.Shape...)
		b.Shapes = append(b.Shapes, shape)
		b.Data = append(b.Data, append([]float64(nil), p.W.Data...))
	}
	if ss, ok := m.(StateStore); ok {
		for _, st := range ss.StateTensors() {
			b.State = append(b.State, append([]float64(nil), st.Data...))
		}
	}
	return b
}

// SaveWeights writes the model's parameters (and layer state, if any) to w.
func SaveWeights(w io.Writer, m WeightStore) error {
	b := newWeightBundle(m)
	return gob.NewEncoder(w).Encode(&b)
}

// Bundle is a decoded weight bundle staged in memory. Splitting decode from
// application lets a live service read and validate a bundle exactly once
// before any running replica is touched: Validate proves the bundle fits a
// model without mutating it, and Apply can then install the same decoded
// bundle into any number of architecture-identical models.
type Bundle struct {
	b weightBundle
}

// DecodeBundle reads a weight bundle from r without applying it anywhere.
func DecodeBundle(r io.Reader) (*Bundle, error) {
	var b weightBundle
	if err := gob.NewDecoder(r).Decode(&b); err != nil {
		return nil, fmt.Errorf("persist: decode: %w", err)
	}
	if b.Version != formatVersion {
		return nil, fmt.Errorf("persist: unsupported format version %d", b.Version)
	}
	if err := b.check(); err != nil {
		return nil, err
	}
	return &Bundle{b: b}, nil
}

// check refuses a weight section whose per-tensor columns differ in length:
// Validate walks Names, Shapes and Data by one index.
func (b *weightBundle) check() error {
	if len(b.Names) != len(b.Data) || len(b.Shapes) != len(b.Data) {
		return fmt.Errorf("persist: weight section has %d names, %d shapes and %d tensors",
			len(b.Names), len(b.Shapes), len(b.Data))
	}
	return nil
}

// Validate checks the bundle against the model's parameter count, shapes and
// layer-state sizes without writing anything, so a rejected bundle leaves the
// model bit-identical to before the call.
func (bd *Bundle) Validate(m WeightStore) error {
	b := &bd.b
	params := m.Weights()
	if len(params) != len(b.Data) {
		return fmt.Errorf("persist: bundle has %d tensors, model has %d", len(b.Data), len(params))
	}
	for i, p := range params {
		if len(b.Shapes[i]) != len(p.W.Shape) {
			return fmt.Errorf("persist: tensor %d (%s) rank mismatch", i, b.Names[i])
		}
		for d := range p.W.Shape {
			if b.Shapes[i][d] != p.W.Shape[d] {
				return fmt.Errorf("persist: tensor %d (%s) shape %v, model wants %v",
					i, b.Names[i], b.Shapes[i], p.W.Shape)
			}
		}
		if len(b.Data[i]) != len(p.W.Data) {
			return fmt.Errorf("persist: tensor %d (%s) size mismatch", i, b.Names[i])
		}
	}
	if ss, ok := m.(StateStore); ok {
		state := ss.StateTensors()
		if len(state) != len(b.State) {
			return fmt.Errorf("persist: bundle has %d state tensors, model has %d", len(b.State), len(state))
		}
		for i, st := range state {
			if len(b.State[i]) != len(st.Data) {
				return fmt.Errorf("persist: state tensor %d size mismatch", i)
			}
		}
	}
	return nil
}

// Apply validates the bundle against the model and then overwrites the
// model's parameters and layer state with the bundle's. Validation runs in
// full before the first write, so a failed Apply never leaves the model
// partially overwritten.
func (bd *Bundle) Apply(m WeightStore) error {
	if err := bd.Validate(m); err != nil {
		return err
	}
	for i, p := range m.Weights() {
		copy(p.W.Data, bd.b.Data[i])
	}
	if ss, ok := m.(StateStore); ok {
		for i, st := range ss.StateTensors() {
			copy(st.Data, bd.b.State[i])
		}
	}
	return nil
}
