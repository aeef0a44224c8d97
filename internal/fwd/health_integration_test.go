package fwd_test

import (
	"bytes"
	"errors"
	"testing"

	"madgo/internal/fault"
	"madgo/internal/fwd"
	"madgo/internal/health"
	"madgo/internal/mad"
	"madgo/internal/route"
	"madgo/internal/topo"
	"madgo/internal/vtime"
)

// healthCfg returns the forwarding config of the health tests: the defaults,
// under which every reliable channel runs the link-health monitor (buildFaulty
// sets Reliable).
func healthCfg() fwd.Config { return fwd.DefaultConfig() }

// gatedDualRail is a topology with two fully link-disjoint routes between a0 and
// b0, each rail crossing its own gateway over its own pair of networks —
// so downing one network kills exactly one rail.
func gatedDualRail(t *testing.T) *topo.Topology {
	t.Helper()
	tp, err := topo.NewBuilder().
		Network("railA1", "sci").
		Network("railA2", "myrinet").
		Network("railB1", "sci").
		Network("railB2", "myrinet").
		Node("a0", "railA1", "railB1").
		Node("gwA", "railA1", "railA2").
		Node("gwB", "railB1", "railB2").
		Node("b0", "railA2", "railB2").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

func TestHealthCleanRunStaysEpochOne(t *testing.T) {
	w := buildFaulty(t, paperHS(t), nil, nil, healthCfg())
	blocks := []block{{pattern(90_000, 2), mad.SendCheaper, mad.ReceiveCheaper}}
	got, _, _ := sendRecv(t, w, "a0", "b1", blocks)
	if !bytes.Equal(got[0], blocks[0].data) {
		t.Error("payload corrupted")
	}
	mon := w.vc.Health()
	if mon == nil {
		t.Fatal("Health() = nil on a reliable channel")
	}
	if mon.Epoch() != 1 {
		t.Errorf("clean run ended in epoch %d, want 1", mon.Epoch())
	}
	for _, lh := range mon.Snapshot() {
		if lh.State != health.Up {
			t.Errorf("clean run left %v in state %v", lh.Link, lh.State)
		}
	}
}

func TestHealthGatewayDeathPublishesEpoch(t *testing.T) {
	// The preferred gateway crashes before traffic: the detector must bury
	// its links, publish a fresh epoch, and the message must arrive via the
	// other gateway.
	plan := fault.NewPlan(1).Crash("gw1", 0, 0)
	w := buildFaulty(t, twoGateways(t), nil, plan, healthCfg())
	blocks := []block{{pattern(100_000, 3), mad.SendCheaper, mad.ReceiveCheaper}}
	got, _, _ := sendRecv(t, w, "a0", "b1", blocks)
	if !bytes.Equal(got[0], blocks[0].data) {
		t.Error("payload corrupted across failover")
	}
	mon := w.vc.Health()
	if mon.Epoch() < 2 {
		t.Errorf("gateway death left epoch at %d, want >= 2", mon.Epoch())
	}
	if len(mon.DeadEdges()) == 0 {
		t.Error("no dead edges recorded after a crashed gateway")
	}
	if n := w.vc.Gateway("gw2").Messages(); n == 0 {
		t.Error("secondary gateway relayed nothing")
	}
	// The crashed gateway must show up as non-Up in the snapshot.
	sawDown := false
	for _, lh := range mon.Snapshot() {
		if lh.Link.To == "gw1" && lh.State != health.Up {
			sawDown = true
		}
	}
	if !sawDown {
		t.Error("no link toward the crashed gateway left Up state")
	}
}

func TestHealthNoRouteTyped(t *testing.T) {
	// Killing the single gateway with no fallback partitions the topology:
	// the sender must surface a typed route.ErrNoRoute through the
	// DeliveryError, never a stall or a bare string.
	plan := fault.NewPlan(5).Crash("gw", 0, 0)
	w := buildFaulty(t, paperHS(t), nil, plan, healthCfg())
	w.sim.Spawn("app-send:a0", func(p *vtime.Proc) {
		px := w.vc.At("a0").BeginPacking(p, "b1")
		px.Pack(p, pattern(10_000, 1), mad.SendCheaper, mad.ReceiveCheaper)
		px.EndPacking(p)
	})
	w.aborts = true
	err := w.sim.Run()
	var de *fwd.DeliveryError
	if !errors.As(err, &de) {
		t.Fatalf("Run() = %v, want a *DeliveryError", err)
	}
	if de.Reason != "unreachable" {
		t.Errorf("Reason = %q, want unreachable", de.Reason)
	}
	if !errors.Is(err, route.ErrNoRoute) {
		t.Errorf("errors.Is(err, route.ErrNoRoute) = false for %v", err)
	}
	var nr *route.NoRouteError
	if !errors.As(err, &nr) {
		t.Fatalf("errors.As *route.NoRouteError = false for %v", err)
	} else if nr.Src != "a0" || nr.Dst != "b1" {
		t.Errorf("NoRouteError names %s -> %s, want a0 -> b1", nr.Src, nr.Dst)
	}
}

func TestHealthFlapAndReadmission(t *testing.T) {
	// One rail's first network goes down for a window mid-traffic. The
	// detector must kill the rail (epoch bump), traffic must keep flowing
	// over the other rail, and after the window the probation probes must
	// re-admit the dead links under a fresh epoch.
	flapStart := vtime.Time(30 * vtime.Millisecond)
	flapDur := 120 * vtime.Millisecond
	plan := fault.NewPlan(9).Flap("railA1", flapStart, flapDur)
	cfg := healthCfg()
	cfg.StripeK = 2
	w := buildFaulty(t, gatedDualRail(t), nil, plan, cfg)

	const msgs = 12
	payload := func(i int) []byte { return pattern(60_000, byte(i)) }
	w.sim.Spawn("app-send:a0", func(p *vtime.Proc) {
		for i := 0; i < msgs; i++ {
			px := w.vc.At("a0").BeginPacking(p, "b0")
			px.Pack(p, payload(i), mad.SendCheaper, mad.ReceiveCheaper)
			px.EndPacking(p)
			p.Sleep(20 * vtime.Millisecond)
		}
	})
	var got [msgs][]byte
	w.sim.Spawn("app-recv:b0", func(p *vtime.Proc) {
		for i := 0; i < msgs; i++ {
			u := w.vc.At("b0").BeginUnpacking(p)
			got[i] = make([]byte, 60_000)
			u.Unpack(p, got[i], mad.SendCheaper, mad.ReceiveCheaper)
			u.EndUnpacking(p)
		}
	})
	if err := w.sim.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < msgs; i++ {
		if !bytes.Equal(got[i], payload(i)) {
			t.Errorf("message %d corrupted", i)
		}
	}
	mon := w.vc.Health()
	if mon.Readmissions() == 0 {
		t.Error("flapped rail was never re-admitted")
	}
	if mon.Epoch() < 3 {
		t.Errorf("epoch = %d after death + readmission, want >= 3", mon.Epoch())
	}
	for _, lh := range mon.Snapshot() {
		if lh.State != health.Up {
			t.Errorf("link %v ended in %v, want up", lh.Link, lh.State)
		}
	}
	if rs := w.vc.StripeStats().RailReadmissions; rs == 0 {
		t.Error("StripeStats.RailReadmissions = 0 after a flap cycle")
	}
}

// TestChaosSoakSelfHealing is the chaos soak: random rails flap one after
// another (windows from the fault DSL) under background packet loss while
// bidirectional striped traffic flows. Afterwards every payload must be
// byte-identical, every flapped rail re-admitted, and the epoch converged —
// no transitions long after the last flap window closed.
func TestChaosSoakSelfHealing(t *testing.T) {
	rails := []string{"railA1", "railB2", "railA2", "railB1"}
	const (
		flapDur = 70 * vtime.Millisecond
		gap     = 130 * vtime.Millisecond
	)
	plan := fault.NewPlan(1234).Drop("*", 0.01)
	start := vtime.Time(40 * vtime.Millisecond)
	var lastEnd vtime.Time
	for _, r := range rails {
		plan.Flap(r, start, flapDur)
		lastEnd = start.Add(flapDur)
		start = start.Add(flapDur + gap)
	}
	cfg := healthCfg()
	cfg.StripeK = 2
	w := buildFaulty(t, gatedDualRail(t), nil, plan, cfg)

	const msgs = 30
	mkPayload := func(dir string, i int) []byte { return pattern(50_000+i*501, byte(i)+dir[0]) }
	for _, pr := range [][2]string{{"a0", "b0"}, {"b0", "a0"}} {
		pr := pr
		got := make([][]byte, msgs)
		w.sim.Spawn("soak-send:"+pr[0], func(p *vtime.Proc) {
			for i := 0; i < msgs; i++ {
				px := w.vc.At(pr[0]).BeginPacking(p, pr[1])
				px.Pack(p, mkPayload(pr[0], i), mad.SendCheaper, mad.ReceiveCheaper)
				px.EndPacking(p)
				p.Sleep(18 * vtime.Millisecond)
			}
		})
		w.sim.Spawn("soak-recv:"+pr[1], func(p *vtime.Proc) {
			for i := 0; i < msgs; i++ {
				u := w.vc.At(pr[1]).BeginUnpacking(p)
				got[i] = make([]byte, len(mkPayload(pr[0], i)))
				u.Unpack(p, got[i], mad.SendCheaper, mad.ReceiveCheaper)
				u.EndUnpacking(p)
			}
		})
		t.Cleanup(func() {
			for i := 0; i < msgs; i++ {
				if !bytes.Equal(got[i], mkPayload(pr[0], i)) {
					t.Errorf("soak %s->%s message %d corrupted", pr[0], pr[1], i)
				}
			}
		})
	}
	if err := w.sim.Run(); err != nil {
		t.Fatal(err)
	}

	mon := w.vc.Health()
	// Every link converged back to Up: all flapped rails re-admitted.
	for _, lh := range mon.Snapshot() {
		if lh.State != health.Up {
			t.Errorf("link %v ended in %v, want up", lh.Link, lh.State)
		}
	}
	if mon.Readmissions() < 2 {
		t.Errorf("readmissions = %d over %d flap windows, want >= 2", mon.Readmissions(), len(rails))
	}
	// Epoch convergence: nothing may keep transitioning long after the
	// last flap window closed (probation and damped probes need a bounded
	// tail; a detector that never settles would keep publishing).
	bound := lastEnd.Add(vtime.Second)
	if lt := mon.LastTransition(); lt > bound {
		t.Errorf("last transition at %v, after convergence bound %v (last flap ended %v)",
			lt, bound, lastEnd)
	}
	// The run must have exercised the machinery at all.
	if mon.Probes() == 0 {
		t.Error("soak ran without a single probe")
	}
	for i, tr := range mon.Transitions() {
		t.Logf("transition %2d: %-9v %v -> %v (epoch %d) at %v",
			i, tr.Link, tr.From, tr.To, tr.Epoch, tr.At)
	}
}

// Epoch migration: a message already in flight when its rail dies must
// finish over the new epoch's routes instead of stalling on the old table.
func TestHealthInFlightMigration(t *testing.T) {
	// A large message takes long enough that the flap opens mid-flight.
	plan := fault.NewPlan(77).Flap("railA1", vtime.Time(2*vtime.Millisecond), 150*vtime.Millisecond)
	cfg := healthCfg()
	w := buildFaulty(t, gatedDualRail(t), nil, plan, cfg)
	blocks := []block{{pattern(400_000, 5), mad.SendCheaper, mad.ReceiveCheaper}}
	got, _, _ := sendRecv(t, w, "a0", "b0", blocks)
	if !bytes.Equal(got[0], blocks[0].data) {
		t.Error("payload corrupted across mid-flight migration")
	}
	mon := w.vc.Health()
	if mon.Epoch() < 2 {
		t.Errorf("mid-flight flap never published an epoch (epoch %d)", mon.Epoch())
	}
}

// Suspect links stay routable: background loss alone (no hard failures)
// must not shrink the routable graph or change the epoch.
func TestHealthLossKeepsEpochStable(t *testing.T) {
	plan := fault.NewPlan(42).Drop("*", 0.02)
	w := buildFaulty(t, paperHS(t), nil, plan, healthCfg())
	blocks := []block{{pattern(200_000, 7), mad.SendCheaper, mad.ReceiveCheaper}}
	got, _, _ := sendRecv(t, w, "a0", "b1", blocks)
	if !bytes.Equal(got[0], blocks[0].data) {
		t.Error("payload corrupted under loss")
	}
	mon := w.vc.Health()
	if len(mon.DeadEdges()) != 0 {
		t.Errorf("2%% loss buried %d edges", len(mon.DeadEdges()))
	}
}
