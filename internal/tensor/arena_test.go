package tensor

import "testing"

func TestArenaGetZeroedAndShaped(t *testing.T) {
	a := NewArena(16)
	x := a.Get(2, 3)
	if x.Shape[0] != 2 || x.Shape[1] != 3 || len(x.Data) != 6 {
		t.Fatalf("arena tensor shape %v len %d", x.Shape, len(x.Data))
	}
	for i := range x.Data {
		x.Data[i] = float64(i + 1)
	}
	a.Reset()
	// A post-Reset Get over the same slab region must come back zeroed.
	y := a.Get(2, 3)
	for i, v := range y.Data {
		if v != 0 {
			t.Fatalf("reused slab not zeroed at %d: %v", i, v)
		}
	}
}

func TestArenaTensorsDoNotOverlap(t *testing.T) {
	a := NewArena(8)
	x := a.Get(4)
	y := a.Get(4)
	x.Fill(1)
	y.Fill(2)
	for _, v := range x.Data {
		if v != 1 {
			t.Fatal("arena tensors share memory within a cycle")
		}
	}
}

func TestArenaOverflowGrowsOnReset(t *testing.T) {
	a := NewArena(2)
	// First cycle overflows the 2-element slab.
	x := a.Get(3, 3)
	x.Fill(7)
	a.Get(2)
	a.Reset()
	// The regrown slab must now hold both tensors without heap fallback.
	allocs := testing.AllocsPerRun(10, func() {
		a.Get(3, 3)
		a.Get(2)
		a.Reset()
	})
	if allocs != 0 {
		t.Fatalf("arena still allocates after growth: %v allocs/op", allocs)
	}
}

func TestArenaSteadyStateZeroAllocs(t *testing.T) {
	a := NewArena(0)
	// Warm up: grow slab and header pool to the cycle's high-water mark.
	for i := 0; i < 3; i++ {
		a.Get(8, 8)
		a.Get(1, 64)
		a.Get(16)
		a.Reset()
	}
	allocs := testing.AllocsPerRun(100, func() {
		a.Get(8, 8)
		a.Get(1, 64)
		a.Get(16)
		a.Reset()
	})
	if allocs != 0 {
		t.Fatalf("steady-state arena cycle allocates: %v allocs/op", allocs)
	}
}

func TestArenaPoolReusesArenas(t *testing.T) {
	p := NewArenaPool(4)
	a := p.Get()
	x := a.Get(2)
	x.Fill(9)
	p.Put(a)
	b := p.Get()
	if b != a {
		t.Fatal("pool did not reuse the idle arena")
	}
	// Put resets, so the next Get sees zeroed memory again.
	y := b.Get(2)
	for _, v := range y.Data {
		if v != 0 {
			t.Fatal("pooled arena not reset on Put")
		}
	}
}

func TestNilArenaAllocatesFromHeap(t *testing.T) {
	var a *Arena
	x := a.Get(2, 3)
	if x.Shape[0] != 2 || x.Shape[1] != 3 || len(x.Data) != 6 {
		t.Fatalf("nil arena Get gave shape %v, %d elements", x.Shape, len(x.Data))
	}
	x.Data[0] = 1
	if y := a.Get(2, 3); y.Data[0] != 0 {
		t.Fatal("nil arena Get must return fresh zeroed tensors")
	}
	if s := a.GetI32(5); len(s) != 5 {
		t.Fatalf("nil arena GetI32 gave %d elements", len(s))
	}
}
