package fwd

import (
	"bytes"
	"slices"
	"testing"

	"madgo/internal/fault"
	"madgo/internal/flight"
	"madgo/internal/mad"
	"madgo/internal/route"
	"madgo/internal/topo"
	"madgo/internal/vtime"
)

// A run pinned to a rail whose first hop the monitor has already excluded — a
// queued run, or a resend attempt that reuses its message's rail snapshot —
// leaves by the table route at once. It sends nothing on the dead hop, so it
// neither waits out relAckTimeout there nor counts a failover for a death
// already known. While forward sent a pinned run on its hop regardless, this
// message put three packets on the dead rail, failed over a timeout later and
// took 6.86 ms.
func TestPinnedRunOnAnExcludedRailLeavesAtOnce(t *testing.T) {
	cfg := DefaultConfig()
	cfg.StripeK = 2
	sim, vc := relBuild(t, topo.NewBuilder().Network("sci0", "sci").Network("myri0", "myrinet").
		Node("a", "sci0", "myri0").Node("b", "sci0", "myri0"), cfg)
	rails := vc.stripeRoutes("a", "b") // the snapshot, taken while both rails live
	dead := slices.IndexFunc(rails, func(r route.Route) bool { return r[0].Network == "sci0" })
	if len(rails) != 2 || dead < 0 {
		t.Fatalf("rails %v, want one over sci0 and one over myri0", rails)
	}
	vc.rail("a", "b", 1-dead).sched = 1 << 40 // the live rail is loaded: the message picks the dead one
	vc.sess.Platform.ArmFaults(fault.New(fault.NewPlan(1).Flap("sci0", 0, 0)))
	rec := flight.NewRecorder(256)
	vc.sess.Platform.SetFlight(rec)
	// Both directions are known dead, so the end-to-end ack avoids sci0 too.
	vc.mon.ReportDead(route.Edge{From: "a", To: "b", Network: "sci0"}, 0)
	vc.mon.ReportDead(route.Edge{From: "b", To: "a", Network: "sci0"}, 0)

	msg := make([]byte, 40<<10)
	for i := range msg {
		msg[i] = byte(i * 7)
	}
	var took vtime.Duration
	id := vc.nextMsgID()
	sim.Spawn("send:a", func(p *vtime.Proc) {
		blocks := []relBlock{{data: msg, s: mad.SendCheaper, r: mad.ReceiveCheaper}}
		e := vc.rel["a"]
		e.awaitMessage(p, e.startMessage(p, "b", blocks, id, 0, 0, rails, false))
		took = p.Now().Sub(0)
	})
	got := make([]byte, len(msg))
	sim.Spawn("recv:b", func(p *vtime.Proc) {
		u := vc.At("b").BeginUnpacking(p)
		u.Unpack(p, got, mad.SendCheaper, mad.ReceiveCheaper)
		u.EndUnpacking(p)
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Error("payload corrupted")
	}
	onDead := 0
	for _, ev := range rec.Ring("a").Snapshot() {
		if ev.Kind == flight.KindSend && ev.Msg == id && ev.Net == "sci0" {
			onDead++
		}
	}
	ds := vc.DeliveryStats()
	t.Logf("delivered in %v: %d packets sent on the dead rail, %+v", took, onDead, ds)
	if onDead != 0 || ds.Retransmits != 0 || ds.Failovers != 0 {
		t.Errorf("the run tried its dead rail: %d packets sent there, %d retransmissions, %d failovers",
			onDead, ds.Retransmits, ds.Failovers)
	}
	if took >= relAckTimeout {
		t.Errorf("the message took %v, a hop-ack timeout (%v) or more", took, relAckTimeout)
	}
}
