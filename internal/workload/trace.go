package workload

import (
	"math"

	"prestroid/internal/costsim"
	"prestroid/internal/logicalplan"
)

// Trace is one executed query: the unit of the training datasets.
type Trace struct {
	ID       int
	SQL      string
	Plan     *logicalplan.Node
	Day      int // day of the simulated trace window the query ran on
	Template int // TPC-DS template id, -1 for Grab-like queries
	Profile  costsim.ResourceProfile
}

// CPUMinutes returns the ground-truth label.
func (t *Trace) CPUMinutes() float64 { return t.Profile.CPUMinutes }

// Normalizer applies the paper's label transform: log, then min-max to
// (0,1). It is fit on training labels and reused for validation/testing and
// for mapping predictions back to minutes.
type Normalizer struct {
	LogMin, LogMax float64
}

// FitNormalizer computes the log-space min and max of the labels.
func FitNormalizer(traces []*Trace) Normalizer {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, t := range traces {
		l := math.Log(t.Profile.CPUMinutes)
		if l < lo {
			lo = l
		}
		if l > hi {
			hi = l
		}
	}
	if !(hi > lo) {
		hi = lo + 1
	}
	return Normalizer{LogMin: lo, LogMax: hi}
}

// Normalize maps CPU minutes into (0,1).
func (n Normalizer) Normalize(cpuMinutes float64) float64 {
	v := (math.Log(cpuMinutes) - n.LogMin) / (n.LogMax - n.LogMin)
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// Denormalize maps a (0,1) prediction back to CPU minutes.
func (n Normalizer) Denormalize(y float64) float64 {
	return math.Exp(n.LogMin + y*(n.LogMax-n.LogMin))
}
