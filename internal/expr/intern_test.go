package expr

import (
	"sync"
	"testing"
)

// TestConstHitAllocFree: a constant that is already interned comes
// back without allocating, whether it is served by the constant cache
// or, after a cache collision evicted it, by the intern table.
func TestConstHitAllocFree(t *testing.T) {
	b := NewBuilder()
	c := b.Const(42, 32)
	if n := testing.AllocsPerRun(100, func() {
		if b.Const(42, 32) != c {
			t.Fatal("constant not deduplicated")
		}
	}); n != 0 {
		t.Fatalf("Const hit: %v allocs, want 0", n)
	}
	// Fill the cache with other constants so 42 is likely evicted;
	// the table probe must still not allocate.
	for v := uint64(0); v < 4<<constCacheBits; v++ {
		b.Const(v+1000, 32)
	}
	if n := testing.AllocsPerRun(100, func() {
		if b.Const(42, 32) != c {
			t.Fatal("constant not deduplicated after eviction")
		}
	}); n != 0 {
		t.Fatalf("Const hit after eviction: %v allocs, want 0", n)
	}
}

// TestInternHitAllocFree: building a term that already exists probes
// the table before allocating, for every operand count.
func TestInternHitAllocFree(t *testing.T) {
	b := NewBuilder()
	x, y, c := b.Var("x", 32), b.Var("y", 32), b.Var("c", 1)
	sum := b.Add(x, y)
	ext := b.Extract(x, 8, 8)
	ite := b.Ite(c, x, y)
	not := b.Not(x)
	if n := testing.AllocsPerRun(100, func() {
		if b.Add(x, y) != sum || b.Extract(x, 8, 8) != ext || b.Ite(c, x, y) != ite ||
			b.Not(x) != not || b.Var("x", 32) != x {
			t.Fatal("term not deduplicated")
		}
	}); n != 0 {
		t.Fatalf("intern hit: %v allocs, want 0", n)
	}
}

// TestConstCacheKeysWidth: the constant cache must tell equal values
// of different widths apart and mask before looking up.
func TestConstCacheKeysWidth(t *testing.T) {
	b := NewBuilder()
	for w := uint(1); w <= 64; w++ {
		c := b.Const(5, w)
		if c.Width() != w {
			t.Fatalf("Const(5, %d) has width %d", w, c.Width())
		}
		if v, _ := c.Const(); v != 5&Mask(w) {
			t.Fatalf("Const(5, %d) = %d", w, v)
		}
		if b.Const(5|^Mask(w), w) != c {
			t.Fatalf("Const(5, %d) not masked before lookup", w)
		}
	}
}

// TestConcurrentInterningHammer: goroutines sharing one Builder, each
// building the same terms in a different order, must get the same
// pointer for every structurally equal term. Enough constants are
// built to collide in the constant cache, so both the lock-free cache
// and the locked table race.
func TestConcurrentInterningHammer(t *testing.T) {
	const (
		workers = 8
		consts  = 3 << constCacheBits
	)
	b := NewBuilder()
	build := func(start int) []*Term {
		out := make([]*Term, 0, 3*consts)
		x := b.Var("x", 32)
		for k := 0; k < consts; k++ {
			i := (start + k) % consts
			c := b.Const(uint64(i), uint(8+i%3*8))
			w := b.Const(uint64(i), 32)
			out = append(out, c, w, b.Add(x, w))
		}
		return out
	}
	results := make([][]*Term, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := build(g * consts / workers)
			// Normalise to a common order: index by position in the
			// start-0 sequence.
			rot := g * consts / workers
			norm := make([]*Term, len(r))
			for k := range r {
				i := (rot + k/3) % consts
				norm[3*i+k%3] = r[k]
			}
			results[g] = norm
		}(g)
	}
	wg.Wait()
	for g := 1; g < workers; g++ {
		for i := range results[0] {
			if results[g][i] != results[0][i] {
				t.Fatalf("worker %d term %d: %v (%p) vs %v (%p)", g, i,
					results[g][i], results[g][i], results[0][i], results[0][i])
			}
		}
	}
	// Each term is interned exactly once: x, the 32-bit constants, the
	// sums, and the narrow constants not already counted as 32-bit.
	distinct := map[*Term]bool{}
	for _, t := range results[0] {
		distinct[t] = true
	}
	distinct[b.Var("x", 32)] = true
	if got := b.NumTerms(); got != len(distinct) {
		t.Fatalf("NumTerms %d, want %d distinct terms", got, len(distinct))
	}
}
