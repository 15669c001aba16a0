// Package baseline implements the paper's non-deep-learning comparison
// models: log binning over plan node counts, and support vector regression
// over query/plan aggregate features (Nyström-approximated kernel SVR
// trained with epsilon-insensitive subgradient descent). They are the LogBin
// and SVR rows of Tables 2a and 2b (experiments.Table2Grab, Table2TPCDS).
package baseline

import (
	"math"

	"prestroid/internal/workload"
)

// LogBin is the naive benchmark: split plans into B logarithmic bins by
// node count and predict each bin's mean CPU time. The paper's optimal B is
// 1000 for Grab-Traces and 20 for TPC-DS.
type LogBin struct {
	B       int
	maxLog  float64
	binMean []float64
	global  float64
}

// NewLogBin returns a log-binning model with B bins.
func NewLogBin(b int) *LogBin {
	if b < 1 {
		b = 1
	}
	return &LogBin{B: b}
}

// Fit computes per-bin mean CPU minutes over the training traces.
func (l *LogBin) Fit(train []*workload.Trace) {
	l.maxLog = 0
	for _, t := range train {
		lg := math.Log1p(float64(t.Plan.NodeCount()))
		if lg > l.maxLog {
			l.maxLog = lg
		}
	}
	sums := make([]float64, l.B)
	counts := make([]float64, l.B)
	total, n := 0.0, 0.0
	for _, t := range train {
		b := l.bin(t.Plan.NodeCount())
		sums[b] += t.CPUMinutes()
		counts[b]++
		total += t.CPUMinutes()
		n++
	}
	l.binMean = make([]float64, l.B)
	if n > 0 {
		l.global = total / n
	}
	for i := range sums {
		if counts[i] > 0 {
			l.binMean[i] = sums[i] / counts[i]
		} else {
			l.binMean[i] = l.global
		}
	}
}

func (l *LogBin) bin(nodeCount int) int {
	if l.maxLog == 0 {
		return 0
	}
	b := int(math.Log1p(float64(nodeCount)) / l.maxLog * float64(l.B))
	if b < 0 {
		b = 0
	}
	if b >= l.B {
		b = l.B - 1
	}
	return b
}

// Predict returns CPU minutes for a trace.
func (l *LogBin) Predict(t *workload.Trace) float64 {
	if l.binMean == nil {
		return 0
	}
	return l.binMean[l.bin(t.Plan.NodeCount())]
}

// MSE computes mean squared error in minutes² over traces.
func (l *LogBin) MSE(traces []*workload.Trace) float64 {
	if len(traces) == 0 {
		return 0
	}
	s := 0.0
	for _, t := range traces {
		d := l.Predict(t) - t.CPUMinutes()
		s += d * d
	}
	return s / float64(len(traces))
}

// Name identifies the baseline.
func (l *LogBin) Name() string { return "Log bins" }
