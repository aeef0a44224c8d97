package fwd_test

import (
	"bytes"
	"fmt"
	"testing"

	"madgo/internal/fault"
	"madgo/internal/mad"
	"madgo/internal/topo"
	"madgo/internal/vtime"
)

// TestReliableBufferLedgerUnderFaults is the packet-buffer property on the
// benchmark's prod_lossy_mix shape — flows from one cluster to another over
// two gateways, every production subsystem armed, mixed sizes — with 2 % of
// packets dropped, 2 % corrupted and one rail (the path through gw2) dying
// mid-run and coming back. Every message must arrive byte-exact and in its
// flow's order while every returned buffer is poisoned (buildFaulty arms
// that) — the pool's datagrams, and the aggregate frame buffers the
// coalescers take back once a frame is acknowledged end to end, which a
// retransmission or a sink still reading one would turn into garbage — and
// at quiescence the ledger must balance: each buffer taken from
// the free list was returned to it, once — ROADMAP aim 3's "zero leaked
// staging slots" for the reliable dataplane. make soak runs it under -race.
func TestReliableBufferLedgerUnderFaults(t *testing.T) {
	const (
		flows   = 6
		perFlow = 24
	)
	b := topo.NewBuilder().Network("sci0", "sci").Network("myri0", "myrinet")
	for i := 0; i < flows; i++ {
		b.Node(fmt.Sprintf("a%02d", i), "sci0")
	}
	for i := 0; i < flows; i++ {
		b.Node(fmt.Sprintf("b%02d", i), "myri0")
	}
	tp, err := b.Node("gw1", "sci0", "myri0").Node("gw2", "sci0", "myri0").Build()
	if err != nil {
		t.Fatal(err)
	}
	plan := fault.NewPlan(2001).Drop("*", 0.02).Corrupt("*", 0.02).
		Crash("gw2", vtime.Time(30*vtime.Millisecond), 80*vtime.Millisecond)
	cfg := healthCfg()
	cfg.Eager, cfg.Aggregation, cfg.StripeK = true, true, 2
	w := buildFaulty(t, tp, nil, plan, cfg)

	// Half mice, a third mid-sized, the rest past the stripe threshold and
	// several fragments long.
	sizeOf := func(f, i int) int {
		switch (f + i) % 6 {
		case 0, 2, 4:
			return 64 + (f*131+i*17)%900
		case 1, 3:
			return 4<<10 + (f*977+i*4099)%(12<<10)
		default:
			return 100<<10 + (f*7919+i*104729)%(80<<10)
		}
	}
	delivered := 0
	for f := 0; f < flows; f++ {
		src, dst := fmt.Sprintf("a%02d", f), fmt.Sprintf("b%02d", f)
		w.sim.Spawn("send:"+src, func(p *vtime.Proc) {
			for i := 0; i < perFlow; i++ {
				px := w.vc.At(src).BeginPacking(p, dst)
				px.Pack(p, pattern(sizeOf(f, i), byte(f*perFlow+i)), mad.SendCheaper, mad.ReceiveCheaper)
				px.EndPacking(p)
			}
		})
		w.sim.Spawn("recv:"+dst, func(p *vtime.Proc) {
			for i := 0; i < perFlow; i++ {
				u := w.vc.At(dst).BeginUnpacking(p)
				got := make([]byte, sizeOf(f, i))
				u.Unpack(p, got, mad.SendCheaper, mad.ReceiveCheaper)
				u.EndUnpacking(p)
				if bytes.Equal(got, pattern(len(got), byte(f*perFlow+i))) {
					delivered++
				} else {
					t.Errorf("flow %s -> %s: message %d is not byte-exact, or out of order", src, dst, i)
				}
			}
		})
	}
	if err := w.sim.Run(); err != nil {
		t.Fatal(err)
	}
	if delivered != flows*perFlow {
		t.Fatalf("delivered %d of %d messages", delivered, flows*perFlow)
	}
	bk := w.vc.RelBookkeeping()
	if bk.BufsTaken != bk.BufsReturned {
		t.Errorf("buffer ledger: %d taken, %d returned", bk.BufsTaken, bk.BufsReturned)
	}
	if bk.RxPartials != 0 {
		t.Errorf("quiesced run left %d partial reassemblies holding buffers", bk.RxPartials)
	}
	if int64(bk.BufsFree) > bk.BufsTaken {
		t.Errorf("%d buffers on the free list, only %d ever taken", bk.BufsFree, bk.BufsTaken)
	}
	if w.vc.AggStats().Frames == 0 {
		t.Error("no frame went through the wire pool: the poisoning of returned frames showed nothing")
	}
	ds := w.vc.DeliveryStats()
	if ds.Retransmits == 0 || ds.ChecksumDrops == 0 || len(w.vc.Health().Transitions()) == 0 {
		t.Errorf("the run did not exercise the fault paths: %+v, %d health transitions",
			ds, len(w.vc.Health().Transitions()))
	}
	t.Logf("%d buffers taken and returned through a free list of %d, %d frames flushed; %+v", bk.BufsTaken, bk.BufsFree, w.vc.AggStats().Frames, ds)
}
