package fwd

import (
	"runtime"
	"testing"

	"madgo/internal/drivers/bip"
	"madgo/internal/drivers/sisci"
	"madgo/internal/hw"
	"madgo/internal/mad"
	"madgo/internal/topo"
	"madgo/internal/vtime"
)

// The allocation wall of the reliable dataplane (DESIGN.md §17; make allocs).

// relChain builds a0 –sci– gw –myrinet– b0 in reliable mode.
func relChain(t *testing.T, cfg Config) (*vtime.Sim, *VirtualChannel) {
	t.Helper()
	return relBuild(t, topo.NewBuilder().Network("sci0", "sci").Network("myri0", "myrinet").
		Node("a0", "sci0").Node("gw", "sci0", "myri0").Node("b0", "myri0"), cfg)
}

// relBuild builds a topology of networks sci0 and myri0 in reliable mode.
func relBuild(t *testing.T, b *topo.Builder, cfg Config) (*vtime.Sim, *VirtualChannel) {
	t.Helper()
	tp, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	sim := vtime.New()
	pl := hw.NewPlatform(sim)
	sci, myri := sisci.New(), bip.New()
	cfg.Reliable = true
	vc, err := Build(mad.NewSession(pl), tp, map[string]Binding{
		"sci0":  {Net: sci.NewNetwork(pl, "sci0"), Drv: sci},
		"myri0": {Net: myri.NewNetwork(pl, "myri0"), Drv: myri},
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sim, vc
}

// relMessageAllocBudget is the most heap allocations one reliable 32 KiB
// message may cost end to end over the lossless two-hop chain once the free
// lists are warm: two data packets and an end-to-end ack over two hops each,
// their hop acks, and the reassembly. It read 136 objects and 165 KiB when
// every packet had fresh buffers, slots and closures, 7 until the packet list
// was recycled (DESIGN.md §28), 6 while the handles were objects of their own
// and the packed blocks a list, 3 while the descriptor was decoded into a
// fresh slice rather than its recycled reassembly record's (§34), and 2 while
// a message allocated its Packing and its Unpacking record, each holding its
// handle (§29). It reads 0.1 and 0.18 KiB, under the race detector too, since
// the handles live on the callers' stacks and the records come off their
// channel's free lists (§43); the relay's per-destination send daemon and its
// burst buffer are made once, by the destination's first burst. The budget is
// the reading plus one.
const relMessageAllocBudget = 1.1

func TestReliableMessageAllocBudget(t *testing.T) {
	const (
		warm = 20
		msgs = 200
		size = 32 << 10
	)
	sim, vc := relChain(t, DefaultConfig())
	tx, rx := make([]byte, size), make([]byte, size)
	var m0, m1 runtime.MemStats
	sim.Spawn("send:a0", func(p *vtime.Proc) {
		for i := 0; i < warm+msgs; i++ {
			if i == warm {
				runtime.ReadMemStats(&m0)
			}
			px := vc.At("a0").BeginPacking(p, "b0")
			px.Pack(p, tx, mad.SendCheaper, mad.ReceiveCheaper)
			px.EndPacking(p)
		}
		runtime.ReadMemStats(&m1)
	})
	sim.Spawn("recv:b0", func(p *vtime.Proc) {
		for i := 0; i < warm+msgs; i++ {
			u := vc.At("b0").BeginUnpacking(p)
			u.Unpack(p, rx, mad.SendCheaper, mad.ReceiveCheaper)
			u.EndUnpacking(p)
		}
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	perMsg := float64(m1.Mallocs-m0.Mallocs) / msgs
	kib := float64(m1.TotalAlloc-m0.TotalAlloc) / msgs / 1024
	t.Logf("reliable 32 KiB message over two hops: %.1f allocations, %.2f KiB (budget %.1f)", perMsg, kib, relMessageAllocBudget)
	if perMsg > relMessageAllocBudget {
		t.Errorf("a reliable message allocates %.1f objects, budget %.1f", perMsg, relMessageAllocBudget)
	}
	if kib > 4 {
		t.Errorf("a reliable message allocates %.1f KiB: payload-sized memory is back on the per-packet path", kib)
	}
	if bk := vc.RelBookkeeping(); bk.BufsTaken != bk.BufsReturned {
		t.Errorf("buffer ledger: %d taken, %d returned", bk.BufsTaken, bk.BufsReturned)
	}
}

// A relayed packet asks for its next hop under split horizon twice (the
// custody check, then the relay burst). Once the monitor's table barring the
// ingress neighbour and this node's row of it exist, that costs no allocation.
func TestNextHopHealthWarmAllocsNothing(t *testing.T) {
	_, vc := relChain(t, DefaultConfig())
	gw := vc.rel["gw"]
	hop, ok := gw.nextHop("b0", "a0")
	if !ok || hop.To != "b0" || hop.Network != "myri0" {
		t.Fatalf("nextHop(b0, excluding a0) = %v, %v", hop, ok)
	}
	if n := testing.AllocsPerRun(200, func() { gw.nextHop("b0", "a0") }); n != 0 {
		t.Errorf("warm nextHop with an ingress exclusion allocates %.1f times per call, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() { gw.nextHop("b0", "") }); n != 0 {
		t.Errorf("warm nextHop on the monitor's tables allocates %.1f times per call, want 0", n)
	}
}

// A datagram that decodes is trusted, its checksum being the link's, so the
// fragment count it announces must not size its reassembly: the first
// fragment of a message that claims relMaxFrags of them costs its destination
// a slot, not two slot arrays of 2^20 entries (48 MiB, which it cost while a
// reassembly was sized by the first fragment's total).
func TestReassemblyGrowsWithTheFragmentsArrived(t *testing.T) {
	sim, vc := relChain(t, DefaultConfig())
	d := relData{src: vc.NodeRank("a0"), dst: vc.NodeRank("b0"), id: 7, mtu: uint32(vc.cfg.MTU),
		total: relMaxFrags, payload: make([]byte, 16)}
	link := vc.regular["myri0"].Link(vc.NodeRank("gw"), d.dst)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	sim.Spawn("forge:gw", func(p *vtime.Proc) {
		pkt := vc.bufs.Get(relDataLen(len(d.payload)))
		putRelData(pkt, &d, relFlagFlush)
		link.Acquire(p)
		if _, sent := link.Send(p, relMeta(mad.KindRel), pkt); !sent {
			vc.bufs.Put(pkt)
		}
		link.Release(p)
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&m1)
	h := vc.rel["b0"].rx[relMsgKey{origin: d.src, id: d.id}]
	if h == nil || h.got != 1 || h.total != relMaxFrags {
		t.Fatalf("the fragment was not filed under its message: %+v", h)
	}
	kib := float64(m1.TotalAlloc-m0.TotalAlloc) / 1024
	t.Logf("fragment 0 of %d: %d slots, %.1f KiB allocated", relMaxFrags, len(h.bufs), kib)
	if len(h.bufs) != 1 || kib > 8 {
		t.Errorf("fragment 0 of %d took %d slots and %.1f KiB, want 1 and a few KiB", relMaxFrags, len(h.bufs), kib)
	}
}
