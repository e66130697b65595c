package tensor

import (
	"math/bits"
	"sync"
)

// Alloc is a tensor allocation strategy. The zero strategy (a nil Alloc, or
// Heap) makes fresh garbage-collected buffers; Arena/Scope recycle buffers
// across training steps. Every Get returns a zero-filled tensor, matching
// New, so kernels that accumulate into or partially write their output
// (MatMul, Im2Col padding, Col2Im scatter) work identically under either
// strategy. The fill is +0, never −0: the matmul kernels' bit-identity
// with their naive references relies on it (see matmul_blocked.go).
type Alloc interface {
	// Get returns a zero-filled tensor of the given shape.
	Get(shape ...int) *Tensor
	// Put returns a tensor's buffer for reuse. The caller must not touch t
	// afterwards. Implementations may ignore it (Heap, Scope — a Scope
	// recycles wholesale on Release instead).
	Put(t *Tensor)
}

// Heap is the default allocation strategy: plain make, no reuse.
type Heap struct{}

// Get implements Alloc.
func (Heap) Get(shape ...int) *Tensor { return New(shape...) }

// Put implements Alloc (a no-op; the garbage collector reclaims).
func (Heap) Put(*Tensor) {}

// Size-class bounds: buffers are pooled in power-of-two classes from
// 1<<arenaMinBits to 1<<arenaMaxBits float32s. Smaller requests round up to
// the minimum class; larger ones bypass the pool entirely.
const (
	arenaMinBits = 6  // 64 floats, 256 B
	arenaMaxBits = 28 // 256 Mi floats, 1 GiB
)

// Arena is a thread-safe size-class buffer pool for tensor backing arrays.
// Get pops a recycled buffer of the next power-of-two class (zeroing the
// handed-out region) or makes one on a miss; Put pushes the buffer back.
// Steady-state training reaches a 100% hit rate after the first step, so
// per-step tensor garbage drops to ~zero — the physical side of the
// allocator. Logical tensor lifetimes (what graph.Tape reports to its
// AllocObserver and obs.MemTracker replays against the Section 4.3.3 B_mem
// estimate) are unchanged: metering counts tensors, not mallocs.
type Arena struct {
	mu    sync.Mutex
	free  [arenaMaxBits + 1][][]float32
	stats ArenaStats
}

// ArenaStats is a point-in-time snapshot of an arena's traffic.
type ArenaStats struct {
	// Gets counts all allocations served; Hits of those were recycled
	// buffers, Misses were fresh makes (including over-max bypasses).
	Gets, Hits, Misses int64
	// Puts counts buffers returned for reuse.
	Puts int64
	// PooledBytes is the byte footprint currently idle in the free lists.
	PooledBytes int64
}

// NewArena returns an empty arena.
func NewArena() *Arena { return &Arena{} }

// arenaClass returns the size-class exponent for n floats, or -1 when n is
// outside the pooled range.
func arenaClass(n int) int {
	if n <= 0 {
		return -1
	}
	c := bits.Len(uint(n - 1))
	if c < arenaMinBits {
		c = arenaMinBits
	}
	if c > arenaMaxBits {
		return -1
	}
	return c
}

// Get implements Alloc.
func (a *Arena) Get(shape ...int) *Tensor {
	n := NumElems(shape)
	c := arenaClass(n)
	if c < 0 {
		a.mu.Lock()
		a.stats.Gets++
		a.stats.Misses++
		a.mu.Unlock()
		t := New(shape...)
		t.alloc = a
		return t
	}
	var buf []float32
	a.mu.Lock()
	a.stats.Gets++
	if l := a.free[c]; len(l) > 0 {
		buf = l[len(l)-1]
		a.free[c] = l[:len(l)-1]
		a.stats.Hits++
		a.stats.PooledBytes -= int64(cap(buf)) * 4
	} else {
		a.stats.Misses++
	}
	a.mu.Unlock()
	if buf == nil {
		buf = make([]float32, 1<<c)
	}
	data := buf[:n]
	clear(data)
	return &Tensor{shape: append([]int(nil), shape...), data: data, alloc: a}
}

// Put implements Alloc. Only buffers whose capacity is exactly a pooled
// size class are kept; anything else is dropped for the garbage collector.
func (a *Arena) Put(t *Tensor) {
	if t == nil || cap(t.data) == 0 {
		return
	}
	buf := t.data[:0]
	c := bits.Len(uint(cap(buf) - 1))
	if c < arenaMinBits || c > arenaMaxBits || cap(buf) != 1<<c {
		return
	}
	a.mu.Lock()
	a.free[c] = append(a.free[c], buf)
	a.stats.Puts++
	a.stats.PooledBytes += int64(cap(buf)) * 4
	a.mu.Unlock()
}

// Stats returns a snapshot of the arena's allocation traffic.
func (a *Arena) Stats() ArenaStats {
	if a == nil {
		return ArenaStats{}
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.stats
}

// Scope returns a fresh step scope drawing from the arena. A nil arena
// yields a nil scope, whose methods fall back to heap allocation — callers
// thread one variable through unconditionally.
func (a *Arena) Scope() *Scope {
	if a == nil {
		return nil
	}
	return &Scope{arena: a}
}

// Scope is a step-scoped allocation context: every tensor Get during one
// training step (mini-batch forward + backward + optimizer step, or one
// materialization chunk) is recorded, and Release returns all of them to
// the arena at once. Tensors derived from a scoped tensor (via NewFrom or
// the tensor kernels) allocate from the same scope, so installing the scope
// on the step's root tensors — the batch feeds — is enough to capture every
// forward intermediate, cache, and gradient of the step.
//
// A Scope is safe for concurrent Gets (the feed prefetcher allocates batch
// t+1's feeds while batch t computes in a sibling scope), but Release must
// happen strictly after the last use of every tensor in the scope: the
// buffers are recycled immediately and will back unrelated tensors.
type Scope struct {
	arena *Arena
	mu    sync.Mutex
	taken []*Tensor
}

// Get implements Alloc. On a nil scope it falls back to New.
func (s *Scope) Get(shape ...int) *Tensor {
	if s == nil {
		return New(shape...)
	}
	t := s.arena.Get(shape...)
	t.alloc = s
	s.mu.Lock()
	s.taken = append(s.taken, t)
	s.mu.Unlock()
	return t
}

// Put implements Alloc as a no-op: a scope recycles wholesale on Release,
// so nothing is returned early (and no tensor can be double-freed).
func (s *Scope) Put(*Tensor) {}

// Release returns every tensor allocated through the scope to the arena
// and resets the scope for reuse. All tensors handed out since the last
// Release become invalid.
func (s *Scope) Release() {
	if s == nil {
		return
	}
	s.mu.Lock()
	taken := s.taken
	s.taken = nil
	s.mu.Unlock()
	for _, t := range taken {
		t.alloc = nil
		s.arena.Put(t)
	}
}

// Live returns how many tensors the scope currently holds (test hook).
func (s *Scope) Live() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.taken)
}

// NewFrom returns a zero-filled tensor of the given shape allocated from
// src's allocator — the propagation rule that threads a step scope through
// the kernels: feeds are allocated from the scope, every derived tensor
// follows. A nil src or an unscoped src falls back to New.
func NewFrom(src *Tensor, shape ...int) *Tensor {
	if src != nil && src.alloc != nil {
		return src.alloc.Get(shape...)
	}
	return New(shape...)
}

// NewFrom2 is NewFrom over two candidate sources, preferring the first
// scoped one. Binary kernels use it so the output lands in the step scope
// even when one operand is an unscoped view or parameter.
func NewFrom2(a, b *Tensor, shape ...int) *Tensor {
	if a != nil && a.alloc != nil {
		return a.alloc.Get(shape...)
	}
	return NewFrom(b, shape...)
}

// CloneIn returns a deep copy of t allocated from a; a nil a inherits t's
// own allocator (matching Clone).
func CloneIn(a Alloc, t *Tensor) *Tensor {
	var c *Tensor
	if a != nil {
		c = a.Get(t.shape...)
	} else {
		c = NewFrom(t, t.shape...)
	}
	copy(c.data, t.data)
	return c
}

// WithAlloc returns a header alias of t whose derived tensors allocate from
// a. It is how an executor roots a step scope at the batch feeds: the alias
// shares t's buffer (nothing is copied or recorded for release — the feed
// itself stays owned by its creator) but everything computed *from* it lands
// in the scope. A nil a, nil t, or already-scoped t is returned unchanged.
func WithAlloc(a Alloc, t *Tensor) *Tensor {
	if t == nil || a == nil || t.alloc != nil {
		return t
	}
	return &Tensor{shape: t.shape, data: t.data, alloc: a}
}
