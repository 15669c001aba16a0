package models

import (
	"math"
	"sync"
	"testing"

	"prestroid/internal/workload"
)

// mapConvCache is a minimal concurrency-safe ConvCache for tests.
type mapConvCache struct {
	mu   sync.Mutex
	m    map[uint64][]float64
	hits int
	puts int
}

func newMapConvCache() *mapConvCache { return &mapConvCache{m: make(map[uint64][]float64)} }

func (c *mapConvCache) Get(hash uint64) ([]float64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.m[hash]
	if ok {
		c.hits++
	}
	return v, ok
}

func (c *mapConvCache) Put(hash uint64, pooled []float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.m[hash]; ok {
		return
	}
	c.m[hash] = append([]float64(nil), pooled...)
	c.puts++
}

func predictIntoBed(t *testing.T) (*Prestroid, []*workload.Trace) {
	t.Helper()
	b := bed(t)
	cfg := DefaultPrestroidConfig(15, 5)
	cfg.ConvWidths = []int{16, 16}
	cfg.DenseWidths = []int{16}
	m := NewPrestroid(cfg, b.pipe)
	trainFor(t, m, b, 1)
	return m, b.split.Test
}

func TestPredictIntoMatchesPredictBytes(t *testing.T) {
	m, test := predictIntoBed(t)
	want := m.Predict(test)
	dst := make([]float64, len(test))
	m.PredictInto(test, dst)
	for i := range dst {
		if math.Float64bits(dst[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("row %d: PredictInto %v, Predict %v", i, dst[i], want.Data[i])
		}
	}
}

func TestPredictIntoConvCacheByteIdentical(t *testing.T) {
	m, test := predictIntoBed(t)
	base := make([]float64, len(test))
	m.PredictInto(test, base) // cache off

	cache := newMapConvCache()
	m.SetConvCache(cache)
	defer m.SetConvCache(nil)

	// First cached pass populates, second serves hits; both must equal the
	// uncached bytes.
	for pass := 0; pass < 2; pass++ {
		got := make([]float64, len(test))
		m.PredictInto(test, got)
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(base[i]) {
				t.Fatalf("pass %d row %d: cached %v, uncached %v", pass, i, got[i], base[i])
			}
		}
	}
	if cache.puts == 0 {
		t.Fatal("conv cache was never populated")
	}
	if cache.hits == 0 {
		t.Fatal("conv cache was never hit")
	}
}

func TestPredictIntoSingleTraceZeroAllocs(t *testing.T) {
	m, test := predictIntoBed(t)
	batch := test[:1]
	dst := make([]float64, 1)
	// Warm up: encode the trace, grow arenas to the high-water mark.
	for i := 0; i < 3; i++ {
		m.PredictInto(batch, dst)
	}
	allocs := testing.AllocsPerRun(100, func() {
		m.PredictInto(batch, dst)
	})
	if allocs != 0 {
		t.Fatalf("steady-state PredictInto allocates: %v allocs/op", allocs)
	}
}

func TestCloneSharesNoInferenceScratch(t *testing.T) {
	m, test := predictIntoBed(t)
	cache := newMapConvCache()
	m.SetConvCache(cache)
	defer m.SetConvCache(nil)

	c := m.Clone().(*Prestroid)
	if c.arenas == m.arenas {
		t.Fatal("clone shares inference arenas with its source")
	}
	if c.convCache != nil {
		t.Fatal("clone inherited the conv cache; placement belongs to the serving layer")
	}

	want := m.Predict(test)
	dst := make([]float64, len(test))
	c.PredictInto(test, dst)
	for i := range dst {
		if math.Float64bits(dst[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("row %d: clone PredictInto %v, source Predict %v", i, dst[i], want.Data[i])
		}
	}
}

// TestPredictEncodedConcurrent is the oracle for serving's one model: eight
// goroutines encode and predict the same traces on one model at once,
// through no conv cache and through one they share, and every answer must be
// Predict's bit for bit. Run under -race, it also catches any model state
// the calls write.
func TestPredictEncodedConcurrent(t *testing.T) {
	m, test := predictIntoBed(t)
	want := m.Predict(test)
	for _, cache := range []ConvCache{nil, newMapConvCache()} {
		const workers = 8
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range test {
					tr := test[(i+w)%len(test)]
					enc := m.EncodeTrace(tr)
					got := m.PredictEncoded(enc, cache)
					m.Recycle(enc)
					if want := want.Data[(i+w)%len(test)]; math.Float64bits(got) != math.Float64bits(want) {
						t.Errorf("cache %v, worker %d, trace %d: PredictEncoded %v, Predict %v", cache != nil, w, (i+w)%len(test), got, want)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
}
