package tensor

import (
	"fmt"
	"sync"
)

// Arena is a bump allocator for inference scratch tensors. Get carves
// zero-filled tensors out of one float64 slab and Reset reclaims them all at
// once, so a forward pass that runs entirely inside an arena performs no heap
// allocation once the slab has grown to the pass's high-water mark. Tensor
// headers and their Shape slices are pooled and reused across cycles.
//
// An Arena is not safe for concurrent use; share arenas across goroutines
// through an ArenaPool. Tensors returned by Get are only valid until the next
// Reset — callers that need the data afterwards must copy it out.
//
// A nil *Arena is the heap: Get and GetI32 on it return fresh allocations, so
// one implementation serves both a pooled caller and a one-shot caller.
type Arena struct {
	slab     []float64
	off      int // elements of slab handed out this cycle
	overflow int // elements served outside the slab this cycle

	// The int8 and int32 slabs serve quantised-activation scratch (GetI8,
	// GetI32) with the same bump/Reset/regrow cycle as the float slab. They
	// start empty and only ever grow on arenas that actually run the
	// quantised kernels.
	i8slab     []int8
	i8off      int
	i8overflow int

	i32slab     []int32
	i32off      int
	i32overflow int

	headers []*Tensor
	hused   int
}

// NewArena returns an arena with an initial slab of the given element
// capacity. The slab grows on Reset to cover any overflow observed during the
// previous cycle, so steady-state workloads stop allocating after warm-up.
func NewArena(capacity int) *Arena {
	if capacity < 0 {
		panic(fmt.Sprintf("tensor: negative arena capacity %d", capacity))
	}
	return &Arena{slab: make([]float64, capacity)}
}

// Get returns a zero-filled tensor of the given shape backed by the arena.
// When the slab is exhausted the tensor falls back to a fresh heap buffer and
// the shortfall is recorded so the next Reset can grow the slab.
func (a *Arena) Get(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d < 0 {
			// A plain panic string keeps the variadic shape slice from
			// escaping to the heap, which would cost one allocation per Get.
			panic("tensor: negative dimension in arena Get")
		}
		n *= d
	}
	if a == nil {
		return &Tensor{Shape: append([]int(nil), shape...), Data: make([]float64, n)}
	}
	var data []float64
	if a.off+n <= len(a.slab) {
		data = a.slab[a.off : a.off+n : a.off+n]
		a.off += n
		for i := range data {
			data[i] = 0
		}
	} else {
		data = make([]float64, n)
		a.overflow += n
	}
	t := a.header()
	t.Shape = append(t.Shape[:0], shape...)
	t.Data = data
	return t
}

// GetI8 returns an int8 scratch slice of length n backed by the arena. The
// contents are unspecified — callers must overwrite every element (the
// quantisation kernels do). Like Get, exhaustion falls back to a heap slice
// and records the shortfall so the next Reset regrows the slab, keeping
// steady-state cycles allocation-free.
func (a *Arena) GetI8(n int) []int8 {
	if n < 0 {
		panic("tensor: negative length in arena GetI8")
	}
	if a.i8off+n <= len(a.i8slab) {
		s := a.i8slab[a.i8off : a.i8off+n : a.i8off+n]
		a.i8off += n
		return s
	}
	a.i8overflow += n
	return make([]int8, n)
}

// GetI32 returns an int32 scratch slice of length n backed by the arena,
// with the same unspecified-contents and regrow-on-Reset contract as GetI8.
// The quantised kernels use it for per-row activation metadata.
func (a *Arena) GetI32(n int) []int32 {
	if n < 0 {
		panic("tensor: negative length in arena GetI32")
	}
	if a == nil {
		return make([]int32, n)
	}
	if a.i32off+n <= len(a.i32slab) {
		s := a.i32slab[a.i32off : a.i32off+n : a.i32off+n]
		a.i32off += n
		return s
	}
	a.i32overflow += n
	return make([]int32, n)
}

// header returns a pooled *Tensor, minting a new one only the first time a
// cycle reaches this depth.
func (a *Arena) header() *Tensor {
	if a.hused < len(a.headers) {
		t := a.headers[a.hused]
		a.hused++
		return t
	}
	t := &Tensor{}
	a.headers = append(a.headers, t)
	a.hused++
	return t
}

// Reset reclaims every tensor handed out since the previous Reset. If the
// cycle overflowed the slab, the slab is regrown to the observed high-water
// mark so the next cycle stays allocation-free.
func (a *Arena) Reset() {
	if a.overflow > 0 {
		a.slab = make([]float64, a.off+a.overflow)
		a.overflow = 0
	}
	if a.i8overflow > 0 {
		a.i8slab = make([]int8, a.i8off+a.i8overflow)
		a.i8overflow = 0
	}
	if a.i32overflow > 0 {
		a.i32slab = make([]int32, a.i32off+a.i32overflow)
		a.i32overflow = 0
	}
	a.off = 0
	a.i8off = 0
	a.i32off = 0
	a.hused = 0
}

// ArenaPool hands out arenas to concurrent workers. Put resets the arena
// before returning it to the free list, so a pooled arena is always ready for
// a fresh cycle.
type ArenaPool struct {
	mu       sync.Mutex
	free     []*Arena
	capacity int
}

// NewArenaPool returns a pool whose arenas start with the given slab element
// capacity.
func NewArenaPool(capacity int) *ArenaPool {
	return &ArenaPool{capacity: capacity}
}

// Get returns an idle arena, minting one if the free list is empty.
func (p *ArenaPool) Get() *Arena {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.free); n > 0 {
		a := p.free[n-1]
		p.free = p.free[:n-1]
		return a
	}
	return NewArena(p.capacity)
}

// Put resets the arena and returns it to the pool.
func (p *ArenaPool) Put(a *Arena) {
	a.Reset()
	p.mu.Lock()
	p.free = append(p.free, a)
	p.mu.Unlock()
}
