package fwd

import (
	"slices"
	"testing"

	"madgo/internal/drivers/sbp"
	"madgo/internal/hw"
	"madgo/internal/mad"
	"madgo/internal/vtime"
	"madgo/internal/vtime/vsync"
)

// The allocation-regression walls for the one pool every staging buffer,
// datagram and frame comes from: once warm, taking a buffer for every
// fragment staged and giving it back when the fragment has left never
// touches the allocator, and the allocator — make, or a driver's
// AllocStatic — runs on a miss only.

func TestWireBufPoolSteadyStateAllocsNothing(t *testing.T) {
	var bp mad.Pool
	const n = 32 * 1024
	bp.Put(bp.Get(n)) // warmup: the single miss
	if allocs := testing.AllocsPerRun(200, func() {
		bp.Put(bp.Get(n))
	}); allocs != 0 {
		t.Fatalf("steady-state get/put allocates %.1f times per cycle", allocs)
	}
	if misses := bp.Ledger().BufsAllocated; misses != 1 {
		t.Fatalf("misses = %d after warmup + steady state, want 1", misses)
	}
}

func TestWireBufPoolRingStockDrainAllocsNothing(t *testing.T) {
	// The most a ring has out at once: depth buffers taken before the first
	// comes back, passed on through a channel, then all returned.
	const depth = 8
	const mtu = 64 * 1024
	var bp mad.Pool
	free := vsync.NewChan[[]byte]("test:free", depth)
	cycle := func() {
		for i := 0; i < depth; i++ {
			free.TrySend(bp.Get(mtu))
		}
		for {
			b, ok := free.TryRecv()
			if !ok {
				break
			}
			bp.Put(b)
		}
	}
	cycle() // warmup message
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("steady-state stock/drain allocates %.1f times per message", allocs)
	}
	l := bp.Ledger()
	if l.BufsAllocated != depth {
		t.Fatalf("misses = %d, want the warmup ring of %d", l.BufsAllocated, depth)
	}
	if l.BufsTaken != l.BufsReturned {
		t.Fatalf("ring leaked buffers: taken %d != returned %d", l.BufsTaken, l.BufsReturned)
	}
}

// A request no free buffer of its own class serves takes one of a larger
// class, sliced down, and the buffer goes back to its own class.
func TestWireBufPoolServesFromALargerClass(t *testing.T) {
	var bp mad.Pool
	big := bp.Get(1000)
	bp.Put(big)
	small := bp.Get(10)
	if len(small) != 10 || cap(small) != 1024 || &small[0] != &big[0] {
		t.Fatalf("small get: len %d cap %d, want the 1024-byte buffer sliced down", len(small), cap(small))
	}
	bp.Put(small)
	if free := bp.Ledger().BufsFree; free != 1 {
		t.Fatalf("%d buffers free after the borrowed one came back, want it alone", free)
	}
	if again := bp.Get(1000); &again[0] != &big[0] {
		t.Fatal("a request of the buffer's own class did not reuse it")
	}
	// A larger request cannot reuse it and must allocate.
	if huge := bp.Get(2000); len(huge) != 2000 || bp.Ledger().BufsAllocated != 2 {
		t.Fatalf("huge get: len %d, misses %d, want 2000 and 2", len(huge), bp.Ledger().BufsAllocated)
	}
	// Nil returns are dropped, not pooled or counted.
	bp.Put(nil)
	if s := bp.Ledger(); s.BufsFree != 0 || s.BufsReturned != 2 {
		t.Fatalf("nil put changed the pool: %+v", s)
	}
}

// A static class — a driver's static buffers on one host, which a gateway
// stages into — asks the driver for a class's capacity on a miss and on
// nothing else, keeps its buffers apart from the pool's own and from another
// host's, and is in the pool's ledger.
func TestWireBufPoolAllocatorOnMissesOnly(t *testing.T) {
	var bp mad.Pool
	drv := sbp.New()
	pl := hw.NewPlatform(vtime.New())
	h1 := pl.NewHost("h1", hw.DefaultCPU(), hw.DefaultPCI())
	h2 := pl.NewHost("h2", hw.DefaultCPU(), hw.DefaultPCI())
	sc := bp.Static(drv, h1)
	if bp.Static(drv, h1) != sc || bp.Static(drv, h2) == sc {
		t.Fatal("a static class is not one per driver and host")
	}
	var sizes []int
	for _, n := range []int{100, 100, 5000} {
		b := sc.Get(n)
		if drv.Allocated() > int64(len(sizes)) {
			sizes = append(sizes, cap(b))
		}
		sc.Put(b)
	}
	if !slices.Equal(sizes, []int{128, 8192}) {
		t.Fatalf("allocator called for %v, want [128 8192]: once per miss, at the class's capacity", sizes)
	}
	if b := bp.Get(100); cap(b) != 128 || drv.Allocated() != 2 {
		t.Fatal("the pool's own memory was served from the static class")
	} else {
		bp.Put(b)
	}
	if b := bp.Static(drv, h2).Get(100); drv.Allocated() != 3 {
		t.Fatal("another host's static class was served from the first's")
	} else {
		bp.Static(drv, h2).Put(b)
	}
	if want := (mad.Ledger{BufsTaken: 5, BufsReturned: 5, BufsFree: 4, BufsAllocated: 4}); bp.Ledger() != want {
		t.Fatalf("ledger = %+v, want %+v", bp.Ledger(), want)
	}
}

// A descriptor pair comes back as the one returned last when it has room, and
// a list with too little room is dropped for a larger one, which then serves
// both sizes; the ledger counts every take and return.
func TestDescriptorPairsReuseAndGrow(t *testing.T) {
	var bp mad.Pool
	two := bp.GetPair(1)
	if len(two) != 0 || cap(two) != 2 {
		t.Fatalf("a new pair has length %d and room for %d, want 0 and 2", len(two), cap(two))
	}
	bp.PutPair(append(two, mad.BlockDesc{Size: 1}))
	if again := bp.GetPair(2); &again[:1][0] != &two[:1][0] {
		t.Fatal("a pair with room was not reused")
	} else {
		bp.PutPair(again)
	}
	four := bp.GetPair(4)
	if cap(four) < 4 || &four[:1][0] == &two[:1][0] {
		t.Fatalf("a request for 4 got room for %d, or the pair of 2", cap(four))
	}
	bp.PutPair(four)
	if again := bp.GetPair(1); &again[:1][0] != &four[:1][0] {
		t.Fatal("the larger list did not serve a smaller request")
	} else {
		bp.PutPair(again)
	}
	if s := bp.Ledger(); s.PairsTaken != 4 || s.PairsReturned != 4 {
		t.Fatalf("ledger %d taken, %d returned; want 4 and 4", s.PairsTaken, s.PairsReturned)
	}
	// The pair of 2 was dropped: the pool held the larger list alone.
	a, b := bp.GetPair(1), bp.GetPair(1)
	if &a[:1][0] != &four[:1][0] || &b[:1][0] == &two[:1][0] {
		t.Fatal("the pool kept the pair it dropped for a larger one")
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
		stock[i] = vc.bufs.Get(stripeHeaderLen)
	}
	for _, b := range stock {
		vc.bufs.Put(b)
	}
	size := cap(stock[0])
	poison := vc.bufs.OnPut
	vc.bufs.OnPut = func(b []byte) {
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
