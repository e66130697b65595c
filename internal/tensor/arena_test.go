package tensor

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

func TestArenaReusesSizeClasses(t *testing.T) {
	a := NewArena()
	t1 := a.Get(4, 16) // 64 floats, exactly the min class
	buf := t1.data[:cap(t1.data)]
	a.Put(t1)
	t2 := a.Get(8, 8)
	if &buf[0] != &t2.data[0] {
		t.Fatalf("expected recycled buffer for same size class")
	}
	st := a.Stats()
	if st.Gets != 2 || st.Hits != 1 || st.Misses != 1 || st.Puts != 1 {
		t.Fatalf("unexpected stats %+v", st)
	}
}

func TestArenaGetZeroesRecycledBuffers(t *testing.T) {
	a := NewArena()
	t1 := a.Get(10)
	for i := range t1.data {
		t1.data[i] = 7
	}
	// Dirty the slack beyond len too: the next Get may use a longer prefix.
	full := t1.data[:cap(t1.data)]
	for i := range full {
		full[i] = 9
	}
	a.Put(t1)
	t2 := a.Get(40)
	for i, v := range t2.data {
		if v != 0 {
			t.Fatalf("recycled buffer not zeroed at %d: %v", i, v)
		}
	}
}

// TestArenaGetReturnsPositiveZero pins the fill's sign: a recycled buffer
// that held −0 must come back as +0 bits, from the arena and from a scope.
// The matmul kernels rely on it: they compute ±0-coefficient terms the
// naive references skip, which is bit-identical only while no output
// starts at −0.
func TestArenaGetReturnsPositiveZero(t *testing.T) {
	negZero := float32(math.Copysign(0, -1))
	a := NewArena()
	dirty := func(x *Tensor) *float32 {
		full := x.data[:cap(x.data)]
		for i := range full {
			full[i] = negZero
		}
		return &full[0]
	}
	check := func(name string, x *Tensor, buf *float32) {
		t.Helper()
		if &x.data[0] != buf {
			t.Fatalf("%s: expected the recycled buffer", name)
		}
		for i, v := range x.data {
			if math.Float32bits(v) != 0 {
				t.Fatalf("%s: element %d has bits %08x, want +0", name, i, math.Float32bits(v))
			}
		}
	}
	t1 := a.Get(100)
	buf := dirty(t1)
	a.Put(t1)
	check("Arena.Get", a.Get(128), buf)

	s := a.Scope()
	buf = dirty(s.Get(3, 70))
	s.Release()
	check("Scope.Get", s.Get(200), buf)
	s.Release()
}

func TestArenaClassBounds(t *testing.T) {
	if c := arenaClass(0); c != -1 {
		t.Fatalf("class(0) = %d", c)
	}
	if c := arenaClass(1); c != arenaMinBits {
		t.Fatalf("class(1) = %d, want min %d", c, arenaMinBits)
	}
	if c := arenaClass(1 << arenaMaxBits); c != arenaMaxBits {
		t.Fatalf("class(max) = %d", c)
	}
	if c := arenaClass(1<<arenaMaxBits + 1); c != -1 {
		t.Fatalf("oversize should bypass pool, got class %d", c)
	}
	// Oversized Gets still work, they just are not pooled.
	a := NewArena()
	big := a.Get(1<<arenaMaxBits + 1)
	if big.Len() != 1<<arenaMaxBits+1 {
		t.Fatalf("oversize get wrong len")
	}
	a.Put(big)
	if st := a.Stats(); st.PooledBytes != 0 {
		t.Fatalf("oversize buffer must not be pooled: %+v", st)
	}
}

func TestScopeReleaseRecycles(t *testing.T) {
	a := NewArena()
	s := a.Scope()
	for i := 0; i < 5; i++ {
		s.Get(32, 32)
	}
	if s.Live() != 5 {
		t.Fatalf("live = %d, want 5", s.Live())
	}
	s.Release()
	if s.Live() != 0 {
		t.Fatalf("live after release = %d", s.Live())
	}
	// Second round should be all hits.
	before := a.Stats()
	for i := 0; i < 5; i++ {
		s.Get(32, 32)
	}
	after := a.Stats()
	if hits := after.Hits - before.Hits; hits != 5 {
		t.Fatalf("expected 5 hits after warmup, got %d", hits)
	}
	s.Release()
}

func TestNilArenaAndScopeFallBackToHeap(t *testing.T) {
	var a *Arena
	s := a.Scope()
	if s != nil {
		t.Fatalf("nil arena must yield nil scope")
	}
	got := s.Get(3, 3)
	if got == nil || got.Len() != 9 || got.alloc != nil {
		t.Fatalf("nil scope Get must heap-allocate: %+v", got)
	}
	s.Release() // must not panic
	if st := a.Stats(); st != (ArenaStats{}) {
		t.Fatalf("nil arena stats must be zero")
	}
}

func TestNewFromPropagatesScope(t *testing.T) {
	a := NewArena()
	s := a.Scope()
	feed := s.Get(4, 8)
	derived := NewFrom(feed, 4, 4)
	if derived.alloc != Alloc(s) {
		t.Fatalf("derived tensor must inherit the scope")
	}
	// Kernels propagate too.
	sum := Add(feed, feed)
	if sum.alloc != Alloc(s) {
		t.Fatalf("kernel output must inherit the scope")
	}
	// NewFrom2 prefers the first scoped operand.
	plain := New(4, 8)
	if out := NewFrom2(plain, feed, 2, 2); out.alloc != Alloc(s) {
		t.Fatalf("NewFrom2 must find the scoped operand")
	}
	if live := s.Live(); live != 4 {
		t.Fatalf("scope live = %d, want 4", live)
	}
	s.Release()
}

func TestReshapeAliasDoesNotDoubleFree(t *testing.T) {
	a := NewArena()
	s := a.Scope()
	orig := s.Get(4, 8)
	view := orig.Reshape(8, 4)
	if view.alloc != Alloc(s) {
		t.Fatalf("reshape must keep the scope")
	}
	if s.Live() != 1 {
		t.Fatalf("reshape must not be recorded separately: live=%d", s.Live())
	}
	s.Release()
	if st := a.Stats(); st.Puts != 1 {
		t.Fatalf("exactly one Put expected, got %+v", st)
	}
}

func TestScopeConcurrentGets(t *testing.T) {
	a := NewArena()
	s := a.Scope()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				s.Get(16, 16)
			}
		}()
	}
	wg.Wait()
	if s.Live() != 800 {
		t.Fatalf("live = %d, want 800", s.Live())
	}
	s.Release()
}

func TestCloneInheritsAllocator(t *testing.T) {
	a := NewArena()
	s := a.Scope()
	feed := s.Get(3, 3)
	feed.Fill(2)
	c := feed.Clone()
	if c.alloc != Alloc(s) {
		t.Fatalf("Clone must inherit the scope")
	}
	if c.data[0] != 2 {
		t.Fatalf("Clone must copy data")
	}
	// CloneIn with explicit target allocator.
	h := CloneIn(nil, feed)
	if h.alloc != Alloc(s) {
		t.Fatalf("CloneIn(nil) inherits source allocator")
	}
	s2 := a.Scope()
	c2 := CloneIn(s2, feed)
	if c2.alloc != Alloc(s2) {
		t.Fatalf("CloneIn must use the given allocator")
	}
	s.Release()
	s2.Release()
}

func TestSetMaxWorkers(t *testing.T) {
	defer SetMaxWorkers(0)
	SetMaxWorkers(3)
	if n := MaxWorkers(); n != 3 {
		t.Fatalf("MaxWorkers = %d, want 3", n)
	}
	SetMaxWorkers(0)
	if n := MaxWorkers(); n < 1 {
		t.Fatalf("default MaxWorkers = %d", n)
	}
}

// TestParallelMatchesSerial checks bit-identical results for the
// parallelized kernels under a forced multi-worker split versus one worker.
func TestParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	x := RandNormal(rng, 1, 2, 12, 12, 3)
	g := ConvGeom{InH: 12, InW: 12, InC: 3, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	pool := ConvGeom{InH: 12, InW: 12, InC: 3, KH: 2, KW: 2, StrideH: 2, StrideW: 2}
	a := RandNormal(rng, 1, 300, 40)
	b := RandNormal(rng, 1, 300, 40)

	type result struct {
		im2col, col2im, mp, mpBack, gap, gapBack, add, soft *Tensor
	}
	run := func() result {
		cols := Im2Col(x, g)
		mp, arg := MaxPool2D(x, pool)
		mpb := MaxPool2DBackward(mp, arg, x.Shape())
		gap := GlobalAvgPool(x)
		return result{
			im2col:  cols,
			col2im:  Col2Im(cols, 2, g),
			mp:      mp,
			mpBack:  mpb,
			gap:     gap,
			gapBack: GlobalAvgPoolBackward(gap, x.Shape()),
			add:     Add(a, b),
			soft:    SoftmaxRows(a),
		}
	}
	SetMaxWorkers(1)
	serial := run()
	SetMaxWorkers(4)
	defer SetMaxWorkers(0)
	par := run()

	check := func(name string, s, p *Tensor) {
		t.Helper()
		if !s.SameShape(p) {
			t.Fatalf("%s: shape mismatch", name)
		}
		for i := range s.data {
			if s.data[i] != p.data[i] {
				t.Fatalf("%s: parallel result differs at %d: %v vs %v", name, i, s.data[i], p.data[i])
			}
		}
	}
	check("Im2Col", serial.im2col, par.im2col)
	check("Col2Im", serial.col2im, par.col2im)
	check("MaxPool2D", serial.mp, par.mp)
	check("MaxPool2DBackward", serial.mpBack, par.mpBack)
	check("GlobalAvgPool", serial.gap, par.gap)
	check("GlobalAvgPoolBackward", serial.gapBack, par.gapBack)
	check("Add", serial.add, par.add)
	check("SoftmaxRows", serial.soft, par.soft)
}

func TestWorkersFromEnv(t *testing.T) {
	cases := map[string]int{"": 0, "x": 0, "-2": 0, "0": 0, "1": 1, "8": 8}
	for in, want := range cases {
		if got := workersFromEnv(in); got != want {
			t.Errorf("workersFromEnv(%q) = %d, want %d", in, got, want)
		}
	}
}
