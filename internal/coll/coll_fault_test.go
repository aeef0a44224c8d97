package coll_test

import (
	"bytes"
	"math"
	"testing"

	"madgo/internal/coll"
	"madgo/internal/drivers/bip"
	"madgo/internal/drivers/sisci"
	"madgo/internal/fault"
	"madgo/internal/fwd"
	"madgo/internal/hw"
	"madgo/internal/mad"
	"madgo/internal/topo"
	"madgo/internal/vtime"
)

// faultyTestbed builds a two-cluster topology with redundant gateways (g1
// and g2 both carry an SCI and a Myrinet card) on a reliable virtual
// channel, with the given fault plan armed. The returned member list spans
// both clusters but excludes the gateways, so one of them can be crashed
// without removing a collective participant.
func faultyTestbed(t *testing.T, plan *fault.Plan) (*vtime.Sim, *fwd.VirtualChannel, []string) {
	t.Helper()
	tp, err := topo.NewBuilder().
		Network("sci0", "sci").
		Network("myri0", "myrinet").
		Node("a0", "sci0").Node("a1", "sci0").
		Node("g1", "sci0", "myri0").
		Node("g2", "sci0", "myri0").
		Node("b0", "myri0").Node("b1", "myri0").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	sim := vtime.New()
	pl := hw.NewPlatform(sim)
	if plan != nil {
		if err := plan.Validate(); err != nil {
			t.Fatal(err)
		}
		pl.ArmFaults(fault.New(plan))
	}
	sess := mad.NewSession(pl)
	sci, myri := sisci.New(), bip.New()
	bindings := map[string]fwd.Binding{
		"sci0":  {Net: pl.NewNetwork("sci0", sci.NIC()), Drv: sci},
		"myri0": {Net: pl.NewNetwork("myri0", myri.NIC()), Drv: myri},
	}
	cfg := fwd.DefaultConfig()
	cfg.Reliable = true
	vc, err := fwd.Build(sess, tp, bindings, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sim, vc, []string{"a0", "a1", "b0", "b1"}
}

// runMembers spawns fn on every member and runs the simulation.
func runMembers(t *testing.T, sim *vtime.Sim, vc *fwd.VirtualChannel, members []string,
	fn func(p *vtime.Proc, c *coll.Comm, idx int)) {
	t.Helper()
	for i, m := range members {
		i, m := i, m
		sim.Spawn("member:"+m, func(p *vtime.Proc) {
			c, err := coll.New(vc, members, m)
			if err != nil {
				t.Error(err)
				return
			}
			fn(p, c, i)
		})
	}
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
}

// Collectives over a lossy fabric: every cross-cluster edge of the
// broadcast/reduce trees crosses a gateway, and the reliable layer must
// absorb the injected packet loss invisibly.
func TestCollectivesUnderPacketLoss(t *testing.T) {
	plan := fault.NewPlan(7).Drop("*", 0.03)
	sim, vc, members := faultyTestbed(t, plan)
	payload := make([]byte, 60_000)
	for i := range payload {
		payload[i] = byte(i*17 + 3)
	}
	sums := make([][]float64, len(members))
	bcasts := make([][]byte, len(members))
	runMembers(t, sim, vc, members, func(p *vtime.Proc, c *coll.Comm, i int) {
		data := make([]byte, len(payload))
		if i == 0 {
			copy(data, payload)
		}
		c.Broadcast(p, 0, data)
		bcasts[i] = data
		c.Barrier(p)
		sums[i] = c.AllReduce(p, []float64{float64(i), 1}, coll.Sum)
	})
	for i := range members {
		if !bytes.Equal(bcasts[i], payload) {
			t.Errorf("member %d: broadcast payload corrupted under loss", i)
		}
		if math.Abs(sums[i][0]-6) > 1e-9 || math.Abs(sums[i][1]-4) > 1e-9 {
			t.Errorf("member %d: allreduce = %v, want [6 4]", i, sums[i])
		}
	}
	ds := vc.DeliveryStats()
	if ds.Retransmits == 0 {
		t.Errorf("3%% loss produced no retransmits: %+v", ds)
	}
}

// Collectives with a dead gateway: g1 is crashed from the start, so every
// cross-cluster tree edge must fail over to g2 — the multi-gateway
// redundancy the reliable relay exists for — while results stay exact.
func TestCollectivesSurviveGatewayCrash(t *testing.T) {
	plan := fault.NewPlan(11).Crash("g1", 0, 0)
	sim, vc, members := faultyTestbed(t, plan)
	payload := make([]byte, 40_000)
	for i := range payload {
		payload[i] = byte(i*29 + 5)
	}
	bcasts := make([][]byte, len(members))
	gathers := make([][][]byte, len(members))
	runMembers(t, sim, vc, members, func(p *vtime.Proc, c *coll.Comm, i int) {
		// Root b0 (rank 2) sits across the gateway from the a-cluster.
		data := make([]byte, len(payload))
		if i == 2 {
			copy(data, payload)
		}
		c.Broadcast(p, 2, data)
		bcasts[i] = data
		gathers[i] = c.Gather(p, 0, []byte{byte(10 + i)})
	})
	for i := range members {
		if !bytes.Equal(bcasts[i], payload) {
			t.Errorf("member %d: broadcast payload corrupted after gateway crash", i)
		}
	}
	for i, parts := range gathers[0] {
		if len(parts) != 1 || parts[0] != byte(10+i) {
			t.Errorf("gather slot %d = %v, want [%d]", i, parts, 10+i)
		}
	}
	ds := vc.DeliveryStats()
	if ds.Retransmits == 0 && ds.Failovers == 0 {
		t.Errorf("dead primary gateway triggered no recovery: %+v", ds)
	}
	if g2 := vc.Gateway("g2"); g2.Messages() == 0 {
		t.Error("surviving gateway g2 relayed nothing")
	}
}

// Loss and a mid-run crash together: the crash lands while traffic is in
// flight, so recovery has to combine per-hop retransmission with failover.
func TestCollectivesUnderLossAndCrash(t *testing.T) {
	plan := fault.NewPlan(13).
		Drop("*", 0.02).
		Crash("g1", vtime.Time(2*vtime.Millisecond), 0)
	sim, vc, members := faultyTestbed(t, plan)
	rounds := 3
	finals := make([][]float64, len(members))
	runMembers(t, sim, vc, members, func(p *vtime.Proc, c *coll.Comm, i int) {
		v := []float64{float64(i + 1)}
		for r := 0; r < rounds; r++ {
			v = c.AllReduce(p, v, coll.Max)
			c.Barrier(p)
		}
		finals[i] = v
	})
	for i := range members {
		if len(finals[i]) != 1 || finals[i][0] != 4 {
			t.Errorf("member %d: iterated allreduce = %v, want [4]", i, finals[i])
		}
	}
	ds := vc.DeliveryStats()
	if ds.Retransmits == 0 {
		t.Errorf("lossy crashed run produced no retransmits: %+v", ds)
	}
}
