package fwd

import (
	"slices"
	"testing"

	"madgo/internal/mad"
	"madgo/internal/vtime/vsync"
)

// The allocation-regression walls for the one pool every staging buffer,
// datagram and frame comes from: once warm, taking a buffer for every
// fragment staged and giving it back when the fragment has left never
// touches the allocator, and the allocator — make, or a driver's
// AllocStatic — runs on a miss only.

func TestWireBufPoolSteadyStateAllocsNothing(t *testing.T) {
	var bp wireBufPool
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

func TestWireBufPoolRingStockDrainAllocsNothing(t *testing.T) {
	// The most a ring has out at once: depth buffers taken before the first
	// comes back, passed on through a channel, then all returned.
	const depth = 8
	const mtu = 64 * 1024
	var bp wireBufPool
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
	if bp.taken != bp.returned {
		t.Fatalf("ring leaked buffers: taken %d != returned %d", bp.taken, bp.returned)
	}
}

// A request no free buffer of its own class serves takes one of a larger
// class, sliced down, and the buffer goes back to its own class.
func TestWireBufPoolServesFromALargerClass(t *testing.T) {
	var bp wireBufPool
	big := bp.get(1000)
	bp.put(big)
	small := bp.get(10)
	if len(small) != 10 || cap(small) != 1024 || &small[0] != &big[0] {
		t.Fatalf("small get: len %d cap %d, want the 1024-byte buffer sliced down", len(small), cap(small))
	}
	bp.put(small)
	if c, _ := relBufClass(1024); len(bp.free) != c+1 || len(bp.free[c]) != 1 {
		t.Fatalf("the borrowed buffer did not go back to the 1024-byte class alone: %v", bp.free)
	}
	if again := bp.get(1000); &again[0] != &big[0] {
		t.Fatal("a request of the buffer's own class did not reuse it")
	}
	// A larger request cannot reuse it and must allocate.
	if huge := bp.get(2000); len(huge) != 2000 || bp.misses != 2 {
		t.Fatalf("huge get: len %d, misses %d, want 2000 and 2", len(huge), bp.misses)
	}
	// Nil returns are dropped, not pooled or counted.
	bp.put(nil)
	var s RelBookkeeping
	if bp.tally(&s); s.BufsFree != 0 || s.BufsReturned != 2 {
		t.Fatalf("nil put changed the pool: %+v", s)
	}
}

// A pool with an allocator — a gateway's pool of a driver's static buffers —
// asks it for a class's capacity on a miss and on nothing else, and its
// ledger reads like the wire pool's.
func TestWireBufPoolAllocatorOnMissesOnly(t *testing.T) {
	var sizes []int
	bp := wireBufPool{alloc: func(n int) []byte {
		sizes = append(sizes, n)
		return make([]byte, n)
	}}
	bp.put(bp.get(100))
	bp.put(bp.get(100))
	bp.put(bp.get(5000))
	if !slices.Equal(sizes, []int{128, 8192}) {
		t.Fatalf("allocator called for %v, want [128 8192]: once per miss, at the class's capacity", sizes)
	}
	var s RelBookkeeping
	bp.tally(&s)
	if want := (RelBookkeeping{BufsTaken: 3, BufsReturned: 3, BufsFree: 2, BufsAllocated: 2}); s != want {
		t.Fatalf("ledger = %+v, want %+v", s, want)
	}
}

// A descriptor pair comes back as the one returned last when it has room, and
// a list with too little room is dropped for a larger one, which then serves
// both sizes; the ledger counts every take and return.
func TestDescriptorPairsReuseAndGrow(t *testing.T) {
	var bp wireBufPool
	two := bp.getPair(1)
	if len(two) != 0 || cap(two) != 2 {
		t.Fatalf("a new pair has length %d and room for %d, want 0 and 2", len(two), cap(two))
	}
	bp.putPair(append(two, mad.BlockDesc{Size: 1}))
	if again := bp.getPair(2); &again[:1][0] != &two[:1][0] {
		t.Fatal("a pair with room was not reused")
	} else {
		bp.putPair(again)
	}
	four := bp.getPair(4)
	if cap(four) < 4 || &four[:1][0] == &two[:1][0] {
		t.Fatalf("a request for 4 got room for %d, or the pair of 2", cap(four))
	}
	bp.putPair(four)
	if again := bp.getPair(1); &again[:1][0] != &four[:1][0] {
		t.Fatal("the larger list did not serve a smaller request")
	} else {
		bp.putPair(again)
	}
	var s RelBookkeeping
	if bp.tally(&s); s.PairsTaken != 4 || s.PairsReturned != 4 || len(bp.pairs) != 1 {
		t.Fatalf("ledger %d taken, %d returned, %d free; want 4, 4 and 1", s.PairsTaken, s.PairsReturned, len(bp.pairs))
	}
}

// StockHeaderBufs takes n buffers of the wire pool's class of stream headers
// — a seed-framing header, a rail's, a multicast header of up to ten
// destinations — and returns them, so the pool holds exactly them for the
// next headers, and from then on reports every buffer returned to the pool to
// seen, after the pool's own hook poisons it, with whether it is of that
// class. It returns the stocked buffers. Exported to the package's external
// tests; it exists in test builds only.
func StockHeaderBufs(vc *VirtualChannel, n int, seen func(buf []byte, header bool)) [][]byte {
	stock := make([][]byte, n)
	for i := range stock {
		stock[i] = vc.bufs.get(stripeHeaderLen)
	}
	for _, b := range stock {
		vc.bufs.put(b)
	}
	_, size := relBufClass(stripeHeaderLen)
	poison := vc.bufs.onPut
	vc.bufs.onPut = func(b []byte) {
		if poison != nil {
			poison(b)
		}
		seen(b, len(b) == size)
	}
	return stock
}

// SharesRecord reports whether one framing record serves the messages of two
// handles (TestStaleHandlePanics).
func SharesRecord(a, b *Packing) bool { return a.gen == b.gen }

// SharesUnpackRecord is SharesRecord of two incoming messages.
func SharesUnpackRecord(a, b *Unpacking) bool { return a.gen == b.gen }
