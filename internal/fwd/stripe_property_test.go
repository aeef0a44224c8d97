package fwd_test

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"

	"madgo/internal/drivers/bip"
	"madgo/internal/drivers/sbp"
	"madgo/internal/drivers/sisci"
	"madgo/internal/fault"
	"madgo/internal/fwd"
	"madgo/internal/hw"
	"madgo/internal/mad"
	"madgo/internal/topo"
	"madgo/internal/vtime"
)

// railsTopo builds R fully link-disjoint rails between "a" and "b". Rail i
// is either direct (one network r<i>a joining a and b) or routed (networks
// r<i>a, r<i>b bridged by a dedicated gateway g<i>), so no two rails share
// a link or an intermediate node.
func railsTopo(protos []string, viaGW []bool) *topo.Topology {
	b := topo.NewBuilder()
	aNets := make([]string, 0, len(viaGW))
	bNets := make([]string, 0, len(viaGW))
	for i, gw := range viaGW {
		na := fmt.Sprintf("r%da", i)
		b.Network(na, protos[2*i])
		aNets = append(aNets, na)
		if gw {
			nb := fmt.Sprintf("r%db", i)
			b.Network(nb, protos[2*i+1])
			b.Node(fmt.Sprintf("g%d", i), na, nb)
			bNets = append(bNets, nb)
		} else {
			bNets = append(bNets, na)
		}
	}
	b.Node("a", aNets...)
	b.Node("b", bNets...)
	tp, err := b.Build()
	if err != nil {
		panic(err)
	}
	return tp
}

// buildQuietFaulty is buildQuiet plus an optional armed fault plan; cfg is
// taken as-is (the caller decides Reliable).
func buildQuietFaulty(tp *topo.Topology, plan *fault.Plan, cfg fwd.Config) *world {
	sim := vtime.New()
	pl := hw.NewPlatform(sim)
	if plan != nil {
		if err := plan.Validate(); err != nil {
			panic(err)
		}
		pl.ArmFaults(fault.NewInjector(plan, cfg.Tracer))
	}
	sess := mad.NewSession(pl)
	bindings := make(map[string]fwd.Binding)
	for _, nw := range tp.Networks() {
		var drv netDriver
		switch nw.Protocol {
		case "sci":
			drv = sisci.New()
		case "myrinet":
			drv = bip.New()
		case "sbp":
			drv = sbp.New()
		default:
			panic("no driver for " + nw.Protocol)
		}
		bindings[nw.Name] = fwd.Binding{Net: drv.NewNetwork(pl, nw.Name), Drv: drv}
	}
	vc, err := fwd.Build(sess, tp, bindings, cfg)
	if err != nil {
		panic(err)
	}
	return &world{sim: sim, sess: sess, vc: vc}
}

// Property: for random rail counts (1–3, each rail direct or through its
// own gateway) × random protocols and MTUs × K ∈ {1,2,3} × plain/reliable
// × an optional whole-rail outage, a message arrives byte-identical to
// what a single-rail channel would deliver — striping is invisible to the
// application. When at least two rails exist, K ≥ 2, and the message
// clears the threshold, the striping path (not the fallback) must have
// carried it.
func TestStripeDeliveryProperty(t *testing.T) {
	protocols := []string{"sci", "myrinet", "sbp"}
	f := func(seed uint64) bool {
		next := xorshift(seed)
		rails := 1 + int(next(3))
		viaGW := make([]bool, rails)
		protos := make([]string, 2*rails)
		reliable := next(2) == 0
		for i := range viaGW {
			viaGW[i] = next(2) == 0
		}
		for i := range protos {
			if reliable {
				// Mirror the reliable forwarding property: the datagram
				// protocol runs over the two high-speed networks.
				protos[i] = protocols[next(2)]
			} else {
				protos[i] = protocols[next(3)]
			}
		}
		k := 1 + int(next(3))
		cfg := fwd.DefaultConfig()
		cfg.StripeK = k
		cfg.Reliable = reliable
		next(2) // once Config.PathMTU, a no-op without NetMTU; still drawn so every seed keeps its case
		mtu := 8192 * (1 + int(next(7)))
		cfg.MTU = mtu

		// A rail outage only exercises rail failover when striping is
		// actually in play: at least two rails striped and a payload above
		// the threshold. k must cover every rail — with k < rails the
		// scheduler may legitimately leave the flapped rail unused and
		// never need a failover. Faults act on the reliable datagram layer.
		crash := reliable && rails >= 2 && k >= rails && next(2) == 0
		n := 1 + int(next(200_000))
		if crash {
			// The outage assertion needs the flapped rail to carry traffic:
			// two packets' worth of payload per rail guarantees the
			// rate-proportional split hands every rail at least one
			// fragment regardless of the drawn MTU.
			n = 2*rails*mtu + int(next(100_000))
		}
		var plan *fault.Plan
		if crash {
			plan = fault.NewPlan(int64(seed)).Flap("r0a", 0, 0)
		}

		tp := railsTopo(protos, viaGW)
		w := auditRelBufs(t, buildQuietFaulty(tp, plan, cfg))
		payload := pattern(n, byte(seed>>8))
		var got []byte
		w.sim.Spawn("s", func(p *vtime.Proc) {
			px := w.vc.At("a").BeginPacking(p, "b")
			px.Pack(p, payload, mad.SendCheaper, mad.ReceiveCheaper)
			px.EndPacking(p)
		})
		w.sim.Spawn("r", func(p *vtime.Proc) {
			u := w.vc.At("b").BeginUnpacking(p)
			got = make([]byte, n)
			u.Unpack(p, got, mad.SendCheaper, mad.ReceiveCheaper)
			u.EndUnpacking(p)
		})
		if err := w.sim.Run(); err != nil {
			t.Logf("seed %d (rails %d gw %v protos %v k %d rel %v crash %v n %d): %v",
				seed, rails, viaGW, protos, k, reliable, crash, n, err)
			return false
		}
		if !bytes.Equal(got, payload) {
			t.Logf("seed %d (rails %d gw %v protos %v k %d rel %v crash %v n %d): payload corrupted",
				seed, rails, viaGW, protos, k, reliable, crash, n)
			return false
		}
		st := w.vc.StripeStats()
		if rails >= 2 && k >= 2 && n >= fwd.DefaultStripeThreshold && st.Messages == 0 {
			t.Logf("seed %d (rails %d k %d n %d): striping-eligible message was not striped",
				seed, rails, k, n)
			return false
		}
		if crash && st.RailFailovers == 0 {
			t.Logf("seed %d: rail outage caused no rail failover", seed)
			return false
		}
		if (rails < 2 || k < 2) && st.Messages != 0 {
			t.Logf("seed %d (rails %d k %d): striped with fewer than two rails", seed, rails, k)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
