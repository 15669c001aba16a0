package persist

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"

	"prestroid/internal/dataset"
)

// testdata/parent_full.gob is a full bundle written before the model's
// parameters moved into one slab: fixture's pipeline and newModel(pipe, 1)
// trained five steps on Train[:32], as TestWeightsRoundTrip trains it.
// testdata/parent_predictions.txt holds, one 64-bit pattern per line in hex,
// what a model built off the bundle's pipeline predicted for fixture's Test
// split once the bundle was applied. Today's code must load the bundle and
// predict the same bits, and training the same five steps today must write
// the same weight section byte for byte: neither the format nor the
// training arithmetic may have moved. The files were written on amd64,
// where no multiply-add is fused; elsewhere the bits may differ.
func TestParentBundleLoadsAndPredicts(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("testdata was written on amd64")
	}
	raw, err := os.ReadFile("testdata/parent_full.gob")
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/parent_predictions.txt")
	if err != nil {
		t.Fatal(err)
	}
	fb, err := DecodeFullBundle(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	loaded := newModel(fb.Pipeline(), 99)
	if err := fb.Weights().Apply(loaded); err != nil {
		t.Fatal(err)
	}
	split, norm, pipe := fixture(t)
	var got strings.Builder
	for _, v := range loaded.Predict(split.Test).Data {
		fmt.Fprintf(&got, "%016x\n", math.Float64bits(v))
	}
	if got.String() != string(want) {
		t.Fatalf("predictions from the parent's bundle:\n%s\nthe parent predicted:\n%s", got.String(), want)
	}

	trained := newModel(pipe, 1)
	trained.Prepare(split.Train[:32])
	labels := dataset.Labels(split.Train[:32], norm)
	for i := 0; i < 5; i++ {
		trained.TrainBatch(split.Train[:32], labels)
	}
	var a, b bytes.Buffer
	if err := SaveWeights(&a, loaded); err != nil {
		t.Fatal(err)
	}
	if err := SaveWeights(&b, trained); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("five steps trained today write a different weight bundle from the parent's")
	}
}
