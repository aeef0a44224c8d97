package fwd

import (
	"testing"

	"madgo/internal/hw"
	"madgo/internal/mad"
	"madgo/internal/vtime"
)

// White-box tests for the bounded reliable-mode bookkeeping: the per-origin
// duplicate-suppression window and the reassembly cap replace maps that
// previously grew one entry per message for the lifetime of the node.

func TestRelDoneWindowExactWithinCap(t *testing.T) {
	w := new(relDoneWindow)
	for id := uint64(1); id <= relDupWindow; id++ {
		w.add(id)
	}
	if w.size() != relDupWindow {
		t.Fatalf("size = %d, want %d", w.size(), relDupWindow)
	}
	if w.hasFloor {
		t.Fatal("floor raised before any eviction")
	}
	for id := uint64(1); id <= relDupWindow; id++ {
		if !w.has(id) {
			t.Fatalf("id %d lost within the window", id)
		}
	}
	if w.has(relDupWindow + 1) {
		t.Fatal("unseen id reported done")
	}
}

func TestRelDoneWindowEvictsToFloor(t *testing.T) {
	w := new(relDoneWindow)
	const n = 3*relDupWindow + 17
	for id := uint64(1); id <= n; id++ {
		w.add(id)
	}
	if w.size() != relDupWindow {
		t.Fatalf("size = %d after %d adds, want bounded at %d", w.size(), n, relDupWindow)
	}
	// Every id ever completed must still test as done: recent ones exactly,
	// evicted ones via the floor.
	for id := uint64(1); id <= n; id++ {
		if !w.has(id) {
			t.Fatalf("id %d forgotten after eviction", id)
		}
	}
	if !w.hasFloor || w.floor != n-relDupWindow {
		t.Fatalf("floor = %d (set %v), want %d", w.floor, w.hasFloor, n-relDupWindow)
	}
	if w.has(n + 1) {
		t.Fatal("future id reported done")
	}
	// The ring's dead space must be compacted, not grow forever.
	if len(w.ring) > 2*relDupWindow {
		t.Fatalf("ring grew to %d entries", len(w.ring))
	}
}

func TestRelDoneWindowOutOfOrderWithinCap(t *testing.T) {
	// Completions may land out of order within the window of concurrently
	// in-flight messages; as long as the spread stays below relDupWindow,
	// no unseen id may be swallowed by the floor.
	w := new(relDoneWindow)
	for base := uint64(0); base < 2000; base += 8 {
		for _, off := range []uint64{3, 1, 4, 2, 8, 6, 7, 5} { // ids 1.. in bursts of 8, shuffled
			w.add(base + off)
		}
	}
	for id := uint64(1); id <= 2000; id++ {
		if !w.has(id) {
			t.Fatalf("id %d forgotten", id)
		}
	}
	if w.has(2008 + 1) {
		t.Fatal("unseen id reported done")
	}
	w.add(2008 + 2)
	if w.has(2008 + 1) {
		t.Fatal("gap id swallowed by an out-of-order add")
	}
}

func TestRelDoneWindowDuplicateAddIsIdempotent(t *testing.T) {
	w := new(relDoneWindow)
	for i := 0; i < 5; i++ {
		w.add(7)
	}
	if w.size() != 1 {
		t.Fatalf("size = %d after duplicate adds, want 1", w.size())
	}
}

func TestEvictOldestRxPicksStalest(t *testing.T) {
	sim := vtime.New()
	sess := mad.NewSession(hw.NewPlatform(sim))
	e := &relEngine{
		vc:   &VirtualChannel{sess: sess},
		node: sess.AddNode("n0"),
		rx:   make(map[relMsgKey]*heldMsg),
	}
	for _, k := range []relMsgKey{
		{origin: 3, id: 40}, {origin: 1, id: 12}, {origin: 2, id: 12}, {origin: 0, id: 99},
	} {
		e.rx[k] = &heldMsg{src: k.origin, id: k.id, frags: make([][]byte, 2), bufs: make([][]byte, 2)}
	}
	sim.Spawn("evict", func(p *vtime.Proc) {
		// Smallest id wins, origin breaks the tie — the stalest partial
		// under monotone per-origin IDs.
		e.evictOldestRx(p)
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if len(e.rx) != 3 || e.counters[relRxEvictions].Count() != 1 {
		t.Fatalf("rx size %d evictions %d, want 3 and 1", len(e.rx), e.counters[relRxEvictions].Count())
	}
	if _, gone := e.rx[relMsgKey{origin: 1, id: 12}]; gone {
		t.Fatal("victim should be origin 1 id 12, still present")
	}
	if _, kept := e.rx[relMsgKey{origin: 2, id: 12}]; !kept {
		t.Fatal("tie-loser origin 2 id 12 wrongly evicted")
	}
}

// A relay admission past relRelayCap is refused and counted as backpressure —
// FlowStats.Backpressure — and never as a relay drop: nothing was lost, the
// upstream ARQ retransmits.
func TestRelayAdmissionRefusalIsBackpressure(t *testing.T) {
	_, vc := relChain(t, DefaultConfig())
	gw := vc.rel["gw"]
	it := relayItem{d: relData{dst: vc.NodeRank("b0")}, from: "a0"}
	for i := 0; i < relRelayCap; i++ {
		if !gw.enqueueRelay(it) {
			t.Fatalf("admission %d refused below the cap of %d", i, relRelayCap)
		}
	}
	for i := 0; i < 3; i++ {
		if gw.enqueueRelay(it) {
			t.Fatal("admission past the cap accepted")
		}
	}
	if fs := vc.FlowStats(); fs.Backpressure != 3 {
		t.Errorf("FlowStats().Backpressure = %d after 3 refusals, want 3", fs.Backpressure)
	}
	if ds := vc.DeliveryStats(); ds != (DeliveryStats{}) {
		t.Errorf("refused admissions moved the delivery counters: %+v", ds)
	}
}

// A message whose every datagram decodes can still disagree with itself: a
// fragment's length against the fragment-0 descriptor, or against the MTU its
// headers carry. Its final destination drops it as a checksum
// drop once the last fragment lands — never delivered, marked done or
// end-to-end acked, its buffers back in the pool — so the origin's resends end
// in a DeliveryError there instead of a panic in the receiving application.
func TestInconsistentReliableMessageIsDropped(t *testing.T) {
	for _, c := range []struct {
		name           string
		hdrMTU         int
		blockLen, frag int // the descriptor's block, the fragment that travels
	}{
		{"fragment shorter than its descriptor", 4096, 100, 50},
		{"fragment cut at another MTU than the header's", 64, 100, 100},
	} {
		t.Run(c.name, func(t *testing.T) {
			sim, vc := relChain(t, DefaultConfig())
			vc.bufs.OnPut = poison
			b0 := vc.rel["b0"]
			src, dst := vc.NodeRank("a0"), vc.NodeRank("b0")
			in := vc.regular["myri0"].Link(vc.NodeRank("gw"), dst)
			desc := make([]byte, relDescLen(1))
			putRelDesc(desc, []relBlock{{data: make([]byte, c.blockLen), s: mad.SendCheaper, r: mad.ReceiveCheaper}}, 0)
			sim.Spawn("inject", func(p *vtime.Proc) {
				for i, pl := range [][]byte{desc, make([]byte, c.frag)} {
					d := relData{src: src, dst: dst, id: 7, mtu: uint32(c.hdrMTU), frag: uint32(i), total: 2, payload: pl}
					pkt := vc.bufs.Get(relDataLen(len(pl)))
					putRelData(pkt, &d, relFlagFlush)
					b0.handleData(p, in, uint64(i+1), pkt)
				}
			})
			if err := sim.Run(); err != nil {
				t.Fatal(err)
			}
			if n := vc.DeliveryStats().ChecksumDrops; n != 1 {
				t.Errorf("ChecksumDrops = %d, want 1", n)
			}
			if n := vc.merged[dst].Len(); n != 0 {
				t.Errorf("%d arrivals queued for the application, want none", n)
			}
			if b0.done[src].has(7) || len(b0.rx) != 0 {
				t.Errorf("message marked done (%v) or left in reassembly (%d)", b0.done[src].has(7), len(b0.rx))
			}
			if bk := vc.RelBookkeeping(); bk.BufsTaken != bk.BufsReturned {
				t.Errorf("buffer ledger: %d taken, %d returned", bk.BufsTaken, bk.BufsReturned)
			}
		})
	}
}
