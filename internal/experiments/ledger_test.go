package experiments

import (
	"os"
	"runtime"
	"testing"
)

// TestLedger holds the test-scale suite's Table 4 (mean and std of the best
// test MSE per model) and Fig 7 (cheapest cluster and USD per model and
// batch size) to testdata/ledger.txt, byte for byte. Neither table carries a
// timing, and training is deterministic, so any change to the training
// arithmetic, the padded batch bytes of the paper's models or the cost
// model shows here. The file was written on amd64, where no multiply-add is
// fused; elsewhere the bits may differ. A change that moves either table on
// purpose rewrites the file with what the failure prints.
func TestLedger(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("testdata was written on amd64")
	}
	got := sharedTable4(t).String() + Fig7(sharedSuite(t)).String()
	want, err := os.ReadFile("testdata/ledger.txt")
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("ledger moved; the code now renders:\n%s\nthe ledger holds:\n%s", got, want)
	}
}
