package models

import (
	"math"
	"sync"
	"testing"
)

// quantTol is the absolute tolerance between quantised and float predictions
// in the normalised (0,1) label space for the small test architectures: two
// int8 conv layers plus an int8 head stay well inside it.
const quantTol = 0.02

// maxErrSink is a concurrency-safe QuantErrorSink recording the running max.
type maxErrSink struct {
	mu  sync.Mutex
	max float64
	n   int
}

func (s *maxErrSink) ObserveQuantError(e float64) {
	s.mu.Lock()
	if e > s.max {
		s.max = e
	}
	s.n++
	s.mu.Unlock()
}

func TestQuantizedPredictIntoTracksFloat(t *testing.T) {
	m, test := predictIntoBed(t)
	want := m.Predict(test)

	sink := &maxErrSink{}
	m.SetQuantErrorSink(sink)
	m.SetQuantized(true)
	if !m.Quantized() {
		t.Fatal("Quantized() false after SetQuantized(true)")
	}
	got := make([]float64, len(test))
	m.PredictInto(test, got)
	identical := true
	for i := range got {
		if e := math.Abs(got[i] - want.Data[i]); e > quantTol {
			t.Fatalf("row %d: quantised %v vs float %v (err %v)", i, got[i], want.Data[i], e)
		}
		if got[i] != want.Data[i] {
			identical = false
		}
	}
	if identical {
		t.Fatal("quantised predictions byte-identical to float; int8 path did not engage")
	}
	if sink.n == 0 || sink.max <= 0 {
		t.Fatalf("sink observed %d errors, max %v; want >0 observations of >0 error", sink.n, sink.max)
	}

	// Turning quantisation off restores byte-identity with Predict.
	m.SetQuantized(false)
	back := make([]float64, len(test))
	m.PredictInto(test, back)
	for i := range back {
		if math.Float64bits(back[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("row %d after disabling: %v vs float %v", i, back[i], want.Data[i])
		}
	}
}

func TestQuantizedPredictIntoZeroAllocs(t *testing.T) {
	m, test := predictIntoBed(t)
	m.SetQuantized(true)
	batch := test[:1]
	dst := make([]float64, 1)
	for i := 0; i < 3; i++ {
		m.PredictInto(batch, dst)
	}
	allocs := testing.AllocsPerRun(100, func() {
		m.PredictInto(batch, dst)
	})
	if allocs != 0 {
		t.Fatalf("steady-state quantised PredictInto allocates: %v allocs/op", allocs)
	}
}

func TestQuantizedConvCacheConsistent(t *testing.T) {
	m, test := predictIntoBed(t)
	m.SetQuantized(true)
	base := make([]float64, len(test))
	m.PredictInto(test, base) // cache off

	cache := newMapConvCache()
	m.SetConvCache(cache)
	defer m.SetConvCache(nil)
	// Pooled outputs are cached post-kernel, so cached and uncached quantised
	// passes must agree bytewise.
	for pass := 0; pass < 2; pass++ {
		got := make([]float64, len(test))
		m.PredictInto(test, got)
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(base[i]) {
				t.Fatalf("pass %d row %d: cached %v, uncached %v", pass, i, got[i], base[i])
			}
		}
	}
	if cache.puts == 0 || cache.hits == 0 {
		t.Fatalf("conv cache puts=%d hits=%d; want both >0", cache.puts, cache.hits)
	}
}

// TestQuantizedCloneAndCopyRepack pins the packed tables to the weights
// through the two replica lifecycles: Clone packs the clone's own tables, and
// CopyWeightsFrom repacks so the very next quantised prediction serves the
// copied-in weights.
func TestQuantizedCloneAndCopyRepack(t *testing.T) {
	m, test := predictIntoBed(t)
	m.SetQuantized(true)

	c := m.Clone().(*Prestroid)
	if !c.Quantized() {
		t.Fatal("clone of a quantised model is not quantised")
	}
	want := make([]float64, len(test))
	m.PredictInto(test, want)
	got := make([]float64, len(test))
	c.PredictInto(test, got)
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("row %d: clone %v, source %v", i, got[i], want[i])
		}
	}

	// Train the source further, then copy into the clone: the clone's
	// quantised predictions must follow the new weights.
	b := bed(t)
	trainFor(t, m, b, 2)
	after := make([]float64, len(test))
	m.PredictInto(test, after)
	if err := c.CopyWeightsFrom(m); err != nil {
		t.Fatal(err)
	}
	swapped := make([]float64, len(test))
	c.PredictInto(test, swapped)
	for i := range swapped {
		if math.Float64bits(swapped[i]) != math.Float64bits(after[i]) {
			t.Fatalf("row %d after the copy: clone %v, source %v", i, swapped[i], after[i])
		}
	}
}

// TestQuantizedTrainRepacksBeforePredict pins the dirty-mark path: a training
// step on a quantised model stales the packed tables, and the next
// PredictInto repacks before serving.
func TestQuantizedTrainRepacksBeforePredict(t *testing.T) {
	m, test := predictIntoBed(t)
	m.SetQuantized(true)
	b := bed(t)
	trainFor(t, m, b, 2)
	want := m.Predict(test) // float path over the new weights
	got := make([]float64, len(test))
	m.PredictInto(test, got)
	for i := range got {
		if e := math.Abs(got[i] - want.Data[i]); e > quantTol {
			t.Fatalf("row %d: quantised %v vs float %v after retrain (err %v)", i, got[i], want.Data[i], e)
		}
	}
}
