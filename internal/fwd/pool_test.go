package fwd

import (
	"testing"

	"madgo/internal/vtime/vsync"
)

// The allocation-regression wall for the pooled pipeline: once warm, the
// staging path — a buffer off the free list for every fragment staged, back
// when it has left — must never touch the allocator.

func TestBufPoolZeroAllocSteadyState(t *testing.T) {
	bp := newBufPool(nil)
	const n = 32 * 1024
	bp.put(bp.get(n)) // warmup: the single miss
	if allocs := testing.AllocsPerRun(200, func() {
		bp.put(bp.get(n))
	}); allocs != 0 {
		t.Fatalf("steady-state get/put allocates %.1f times per cycle", allocs)
	}
	if bp.misses != 1 {
		t.Fatalf("misses = %d after warmup + steady state, want 1", bp.misses)
	}
}

func TestBufPoolRingStockDrainZeroAlloc(t *testing.T) {
	// The most a ring has out at once: depth buffers taken before the first
	// comes back, passed on through a channel, then all returned.
	const depth = 8
	const mtu = 64 * 1024
	bp := newBufPool(nil)
	free := vsync.NewChan[[]byte]("test:free", depth)
	cycle := func() {
		for i := 0; i < depth; i++ {
			free.TrySend(bp.get(mtu))
		}
		for {
			b, ok := free.TryRecv()
			if !ok {
				break
			}
			bp.put(b)
		}
	}
	cycle() // warmup message
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("steady-state stock/drain allocates %.1f times per message", allocs)
	}
	if bp.misses != depth {
		t.Fatalf("misses = %d, want the warmup ring of %d", bp.misses, depth)
	}
	if bp.gets != bp.puts {
		t.Fatalf("ring leaked buffers: gets %d != puts %d", bp.gets, bp.puts)
	}
}

func TestBufPoolCapacityClasses(t *testing.T) {
	bp := newBufPool(nil)
	big := bp.get(1000)
	bp.put(big)
	// A smaller request reuses the larger buffer sliced down.
	small := bp.get(10)
	if len(small) != 10 || cap(small) < 1000 {
		t.Fatalf("small get: len %d cap %d, want reuse of the 1000-cap buffer", len(small), cap(small))
	}
	if bp.misses != 1 {
		t.Fatalf("misses = %d, want 1", bp.misses)
	}
	bp.put(small)
	// A larger request cannot reuse it and must allocate.
	huge := bp.get(2000)
	if len(huge) != 2000 {
		t.Fatalf("huge get: len %d", len(huge))
	}
	if bp.misses != 2 {
		t.Fatalf("misses = %d, want 2", bp.misses)
	}
	// Nil puts are dropped, not pooled.
	bp.put(nil)
	if len(bp.bufs) != 1 {
		t.Fatalf("nil put changed the pool: %d buffers", len(bp.bufs))
	}
}

func TestBufPoolCustomAllocator(t *testing.T) {
	calls := 0
	bp := newBufPool(func(n int) []byte {
		calls++
		return make([]byte, n)
	})
	bp.put(bp.get(100))
	bp.put(bp.get(100))
	if calls != 1 {
		t.Fatalf("allocator called %d times, want 1", calls)
	}
	var s PoolStats
	s.observe(bp)
	if s.Gets != 2 || s.Puts != 2 || s.Misses != 1 {
		t.Fatalf("stats = %+v, want gets 2 puts 2 misses 1", s)
	}
}
