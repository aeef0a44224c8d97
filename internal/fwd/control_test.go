package fwd

import (
	"fmt"
	"reflect"
	"testing"

	"madgo/internal/drivers/sisci"
	"madgo/internal/fault"
	"madgo/internal/flight"
	"madgo/internal/health"
	"madgo/internal/route"
	"madgo/internal/vtime"
)

// TestWarmProbeRoundAllocsNothing: a warm probe round — the request sent from
// the monitor's sink, its timeout armed, the echo sent from the peer's polling
// daemon, the result reported — allocates nothing. The probe record is reused
// and both timeouts are callbacks bound at Build.
func TestWarmProbeRoundAllocsNothing(t *testing.T) {
	sim, vc := relChain(t, DefaultConfig())
	PoisonRelBufs(vc)
	e, edge := vc.rel["a0"], route.Edge{From: "a0", To: "gw", Network: "sci0"}
	round := func() {
		e.probe(edge)
		if err := sim.Run(); err != nil {
			t.Fatal(err)
		}
	}
	for range 4 {
		round()
	}
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Errorf("a warm probe round allocates %.2f times, want 0", allocs)
	}
	if n := vc.mon.Probes(); n != 4+101 {
		t.Errorf("%d probe results, want %d", n, 4+101)
	}
	for _, lh := range vc.mon.Snapshot() {
		if lh.Link == edge && (lh.State != health.Up || lh.Score != 1) {
			t.Errorf("%v after answered probes: %v, score %v", edge, lh.State, lh.Score)
		}
	}
	if bk := vc.bufs.Ledger(); bk.BufsTaken != bk.BufsReturned {
		t.Errorf("wire buffer ledger: %d taken, %d returned", bk.BufsTaken, bk.BufsReturned)
	}
}

// TestHealthProbeWhoseEchoIsDroppedTimesOut: the echo of a probe is lost (a
// flap window opens between the request's arrival and the echo's send), and
// the probe fails at its timeout — with no process waiting for it meanwhile:
// the live processes are the ones Build made.
func TestHealthProbeWhoseEchoIsDroppedTimesOut(t *testing.T) {
	sim, vc := relChain(t, DefaultConfig())
	nic := sisci.New().NIC()
	arrives := vtime.Time(nic.SendOverhead + vtime.DurationOfBytes(health.ProbeSize+12, nic.WireRate) + nic.WireLatency)
	inj := fault.New(fault.NewPlan(1).Flap("sci0", arrives+1, vtime.Millisecond))
	vc.sess.Platform.ArmFaults(inj)
	rec := flight.NewRecorder(64)
	vc.sess.Platform.SetFlight(rec)
	built := sim.ProcessNames()

	e, edge := vc.rel["a0"], route.Edge{From: "a0", To: "gw", Network: "sci0"}
	e.probe(edge)
	if err := sim.RunUntil(vtime.Time(health.ProbeTimeout / 2)); err != nil {
		t.Fatal(err)
	}
	if got := sim.ProcessNames(); !reflect.DeepEqual(got, built) {
		t.Errorf("mid-probe the live processes are %v, want Build's %v", got, built)
	}
	if inj.Dropped() != 1 || len(e.probes) != 1 || e.probes[0].seq == 0 {
		t.Fatalf("mid-probe: %d datagrams lost, probes %+v; want the echo lost and the probe outstanding", inj.Dropped(), e.probes)
	}
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if e.probes[0].seq != 0 || vc.mon.Probes() != 1 {
		t.Errorf("after the timeout: probes %+v, %d results; want the record free and one result", e.probes, vc.mon.Probes())
	}
	var probes []flight.Event
	for _, ev := range rec.Ring("a0").Snapshot() {
		if ev.Kind == flight.KindProbe {
			probes = append(probes, ev)
		}
	}
	if evs := rec.Ring("gw").Snapshot(); len(evs) != 1 || evs[0].Kind != flight.KindDrop {
		t.Errorf("gw recorded %+v, want the echo's drop alone", evs)
	}
	if len(probes) != 1 || probes[0].Bytes != 0 || probes[0].At != vtime.Time(health.ProbeTimeout) {
		t.Errorf("probe events %+v, want one failure at %v", probes, vtime.Time(health.ProbeTimeout))
	}
}

// TestCorruptedAckBatchIsAChecksumDrop: a batch of hop acks the injector
// corrupts dies at a0's receiving link, which counts it as a checksum drop and
// marks it on a0's flight ring; it completes nothing.
func TestCorruptedAckBatchIsAChecksumDrop(t *testing.T) {
	sim, vc := relChain(t, DefaultConfig())
	vc.sess.Platform.ArmFaults(fault.New(fault.NewPlan(1).Corrupt("*", 1)))
	rec := flight.NewRecorder(64)
	vc.sess.Platform.SetFlight(rec)
	a0, gw := vc.rel["a0"], vc.rel["gw"]
	out := vc.regular["sci0"].Link(vc.NodeRank("a0"), vc.NodeRank("gw"))
	aw := a0.newAwait()
	a0.acks[linkSeq{out, 1}] = aw
	gw.hopAck(out, 1, relFlagFlush)
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if n := gw.counters[relAckPackets].Count(); n != 1 {
		t.Errorf("gw sent %d ack datagrams, want 1", n)
	}
	if n := vc.DeliveryStats().ChecksumDrops; n != 1 || aw.done {
		t.Errorf("%d checksum drops, ack completed: %v; want 1 and no", n, aw.done)
	}
	if evs := rec.Ring("a0").Snapshot(); len(evs) != 1 || evs[0].Kind != flight.KindCorruptDrop {
		t.Errorf("a0 recorded %+v, want one corrupt-drop", evs)
	}
}

// e2eTo is an end-to-end ack of message 7 for origin, which nothing awaits
// there: a packet whose delivery leaves nothing behind.
func e2eTo(vc *VirtualChannel, origin string) relData {
	r := vc.NodeRank(origin)
	return relData{src: r, dst: r, id: 7, mtu: uint32(vc.cfg.MTU), frag: e2eFrag}
}

// TestTwoSendersOfOnePacketSettleApart: two senders of one packet over one
// link — an origin's resend and its stale burst still on the wire — each
// settle on the hop ack of their own transfer, at once: no retransmission,
// no failure, nothing left awaited. While hop acks named the packet, the
// second sender took the first one's key and the first waited out a timeout.
func TestTwoSendersOfOnePacketSettleApart(t *testing.T) {
	sim, vc := relChain(t, DefaultConfig())
	a0 := vc.rel["a0"]
	d := e2eTo(vc, "gw")
	for i := range 2 {
		s := &relSender{hop: route.Hop{To: "gw", Network: "sci0"}}
		sim.Spawn(fmt.Sprintf("sender%d", i), func(p *vtime.Proc) {
			if failed := a0.deliverBurst(p, s, []relData{d}); len(failed) != 0 {
				t.Errorf("sender %d: %d packets failed", i, len(failed))
			}
			if p.Now() > vtime.Time(relAckTimeout) {
				t.Errorf("sender %d settled at %v, past the ack timeout", i, p.Now())
			}
		})
	}
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if n := a0.counters[relRetransmits].Count(); n != 0 || len(a0.acks) != 0 {
		t.Errorf("%d retransmissions, %d acks still awaited; want none", n, len(a0.acks))
	}
	if bk := vc.bufs.Ledger(); bk.BufsTaken != bk.BufsReturned {
		t.Errorf("wire buffer ledger: %d taken, %d returned", bk.BufsTaken, bk.BufsReturned)
	}
}

// TestLateAckSettlesOnlyItsTransfer: gw stalls, so the hop ack of a0's packet
// comes back after a0's ack timeout, while a0 awaits its retransmission, which
// a flap window lost. That late ack names the first transfer and settles
// nothing: a0 retransmits a second time and settles on that transfer's ack.
// While a hop ack named the packet, the late ack settled the retransmission
// with one retransmission spent.
func TestLateAckSettlesOnlyItsTransfer(t *testing.T) {
	sim, vc := relChain(t, DefaultConfig())
	ms := vtime.Millisecond
	inj := fault.New(fault.NewPlan(1).Stall("gw", 0, 4*ms, 8*ms).Flap("sci0", vtime.Time(4500*vtime.Microsecond), ms))
	vc.sess.Platform.ArmFaults(inj)
	a0 := vc.rel["a0"]
	s := &relSender{hop: route.Hop{To: "gw", Network: "sci0"}}
	var settled vtime.Time
	sim.Spawn("sender", func(p *vtime.Proc) {
		if failed := a0.deliverBurst(p, s, []relData{e2eTo(vc, "gw")}); len(failed) != 0 {
			t.Errorf("%d packets failed", len(failed))
		}
		settled = p.Now()
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if n := a0.counters[relRetransmits].Count(); n != 2 || inj.Dropped() != 1 {
		t.Errorf("%d retransmissions, %d transfers lost; want 2 and the first retransmission", n, inj.Dropped())
	}
	if settled <= vtime.Time(8*ms) || len(a0.acks) != 0 {
		t.Errorf("settled at %v with %d acks awaited; want after the late ack at 8 ms, none", settled, len(a0.acks))
	}
}
