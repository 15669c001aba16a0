package persist

import (
	"bytes"
	"math"
	"testing"
)

// addWithTruncations seeds f with raw and a spread of its prefixes: a
// stream cut inside every section the decoder walks.
func addWithTruncations(f *testing.F, raw []byte) {
	f.Add(raw)
	for _, frac := range []int{2, 3, 4, 8, 16, 64} {
		f.Add(raw[:len(raw)/frac])
	}
}

// FuzzDecodeBundle feeds arbitrary bytes to DecodeBundle. The oracle is no
// panic: a refused stream is an error, and an accepted bundle either applies
// onto a fresh model or is refused by Validate. The seeds are bundles of
// tinyModel, a few kilobytes each, and testdata/fuzz holds hand-built
// hostile ones (see hostileBundles).
func FuzzDecodeBundle(f *testing.F) {
	var buf bytes.Buffer
	if err := SaveWeights(&buf, tinyModel(tinyPipeline(), 1)); err != nil {
		f.Fatal(err)
	}
	addWithTruncations(f, buf.Bytes())
	f.Fuzz(func(t *testing.T, raw []byte) {
		_ = decodeAndApply(raw, false)
	})
}

// FuzzDecodeFullBundle feeds arbitrary bytes to DecodeFullBundle. The
// oracle is no panic — an accepted bundle's weights either apply onto a model
// built off its own pipeline, as a roll builds one, or are refused by
// Validate — and an accepted normaliser is finite and ordered, so every
// prediction it denormalises is a number JSON can carry.
func FuzzDecodeFullBundle(f *testing.F) {
	tiny := tinyFull()
	addWithTruncations(f, gobBytes(f, &tiny))
	f.Fuzz(func(t *testing.T, raw []byte) {
		_ = decodeAndApply(raw, true)
		if fb, err := DecodeFullBundle(bytes.NewReader(raw)); err == nil {
			n := fb.Norm()
			if math.IsInf(n.LogMin, 0) || math.IsInf(n.LogMax, 0) || !(n.LogMax > n.LogMin) {
				t.Fatalf("accepted normaliser %+v", n)
			}
		}
	})
}
