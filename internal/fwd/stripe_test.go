package fwd_test

import (
	"bytes"
	"slices"
	"testing"

	"madgo/internal/drivers/bip"
	"madgo/internal/drivers/sisci"
	"madgo/internal/fault"
	"madgo/internal/fwd"
	"madgo/internal/hw"
	"madgo/internal/mad"
	"madgo/internal/obs"
	"madgo/internal/topo"
	"madgo/internal/trace"
	"madgo/internal/vtime"
)

// dualRail is two nodes joined by both high-speed networks: two direct,
// link-disjoint rails.
func dualRail(t *testing.T) *topo.Topology {
	t.Helper()
	tp, err := topo.NewBuilder().
		Network("myri0", "myrinet").
		Network("sci0", "sci").
		Node("a", "myri0", "sci0").
		Node("b", "myri0", "sci0").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

func stripeCfg(k int) fwd.Config {
	cfg := fwd.DefaultConfig()
	cfg.StripeK = k
	return cfg
}

func TestStripedDualRailIntact(t *testing.T) {
	w := build(t, dualRail(t), stripeCfg(2))
	blocks := []block{{pattern(128*1024, 3), mad.SendCheaper, mad.ReceiveCheaper}}
	got, fwded, from := sendRecv(t, w, "a", "b", blocks)
	if !bytes.Equal(got[0], blocks[0].data) {
		t.Error("striped payload corrupted")
	}
	if fwded {
		t.Error("direct rails marked forwarded")
	}
	if from != w.vc.NodeRank("a") {
		t.Errorf("From() = %d, want rank of a", from)
	}
	st := w.vc.StripeStats()
	if st.Messages != 1 {
		t.Errorf("striped %d messages, want 1", st.Messages)
	}
	if len(st.RailBytes) != 2 {
		t.Fatalf("rail bytes on %d rails, want 2: %v", len(st.RailBytes), st.RailBytes)
	}
	if st.RailBytes[0]+st.RailBytes[1] != 128*1024 {
		t.Errorf("rail bytes %v do not sum to the message size", st.RailBytes)
	}
	// Rail 0 is the faster (Myrinet) route; its quota must be the larger.
	if st.RailBytes[0] <= st.RailBytes[1] {
		t.Errorf("faster rail did not get the larger quota: %v", st.RailBytes)
	}
}

func TestStripedMultiBlockIntact(t *testing.T) {
	w := build(t, dualRail(t), stripeCfg(2))
	blocks := []block{
		{pattern(40_000, 1), mad.SendSafer, mad.ReceiveCheaper},
		{pattern(0, 0), mad.SendCheaper, mad.ReceiveCheaper},
		{pattern(7_000, 2), mad.SendCheaper, mad.ReceiveExpress},
		{pattern(90_000, 3), mad.SendCheaper, mad.ReceiveCheaper},
	}
	got, _, _ := sendRecv(t, w, "a", "b", blocks)
	for i := range blocks {
		if !bytes.Equal(got[i], blocks[i].data) {
			t.Errorf("block %d corrupted", i)
		}
	}
	if n := w.vc.StripeStats().Messages; n != 1 {
		t.Errorf("striped %d messages, want 1", n)
	}
}

func TestStripeBelowThresholdFallsBack(t *testing.T) {
	w := build(t, dualRail(t), stripeCfg(2))
	blocks := []block{{pattern(4_000, 5), mad.SendCheaper, mad.ReceiveCheaper}}
	got, fwded, _ := sendRecv(t, w, "a", "b", blocks)
	if !bytes.Equal(got[0], blocks[0].data) {
		t.Error("sub-threshold payload corrupted")
	}
	if fwded {
		t.Error("direct fallback marked forwarded")
	}
	if n := w.vc.StripeStats().Messages; n != 0 {
		t.Errorf("sub-threshold message was striped (%d)", n)
	}
}

func TestStripeCustomThreshold(t *testing.T) {
	cfg := stripeCfg(2)
	cfg.StripeThreshold = 2_000
	w := build(t, dualRail(t), cfg)
	blocks := []block{{pattern(4_000, 5), mad.SendCheaper, mad.ReceiveCheaper}}
	got, _, _ := sendRecv(t, w, "a", "b", blocks)
	if !bytes.Equal(got[0], blocks[0].data) {
		t.Error("payload corrupted")
	}
	if n := w.vc.StripeStats().Messages; n != 1 {
		t.Errorf("message above the custom threshold was not striped (%d)", n)
	}
}

// diamond is the topology whose two rails a → b each cross a gateway, a
// different one.
func diamond(t *testing.T) *topo.Topology {
	t.Helper()
	tp, err := topo.NewBuilder().
		Network("m1", "myrinet").
		Network("m2", "myrinet").
		Network("s1", "sci").
		Network("s2", "sci").
		Node("a", "m1", "s1").
		Node("g1", "m1", "m2").
		Node("g2", "s1", "s2").
		Node("b", "m2", "s2").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

func TestStripedThroughGateways(t *testing.T) {
	w := build(t, diamond(t), stripeCfg(2))
	blocks := []block{{pattern(96*1024, 7), mad.SendCheaper, mad.ReceiveCheaper}}
	got, fwded, from := sendRecv(t, w, "a", "b", blocks)
	if !bytes.Equal(got[0], blocks[0].data) {
		t.Error("gateway-striped payload corrupted")
	}
	if !fwded {
		t.Error("gateway rails not marked forwarded")
	}
	if from != w.vc.NodeRank("a") {
		t.Errorf("From() = %d", from)
	}
	if n := w.vc.StripeStats().Messages; n != 1 {
		t.Errorf("striped %d messages, want 1", n)
	}
	// Both gateways must have relayed exactly one rail each.
	for _, gw := range []string{"g1", "g2"} {
		if n := w.vc.Gateway(gw).Messages(); n != 1 {
			t.Errorf("gateway %s relayed %d rails, want 1", gw, n)
		}
	}
}

// StripeK=1 must behave exactly like the unstriped channel: no stripe
// traffic, single-rail delivery.
func TestStripeKOneIsSingleRail(t *testing.T) {
	w := build(t, dualRail(t), stripeCfg(1))
	blocks := []block{{pattern(128*1024, 9), mad.SendCheaper, mad.ReceiveCheaper}}
	got, _, _ := sendRecv(t, w, "a", "b", blocks)
	if !bytes.Equal(got[0], blocks[0].data) {
		t.Error("payload corrupted")
	}
	if n := w.vc.StripeStats().Messages; n != 0 {
		t.Errorf("K=1 striped %d messages", n)
	}
}

// buildDMA is build with the SCI rail driven by the board's DMA engine —
// the paper's §3.4.1 workaround. PIO SCI sends are demoted 0.5x under
// concurrent Myrinet DMA on the shared PCI bus, which caps dual-rail
// striping below its potential; DMA sends keep their rate.
func buildDMA(t *testing.T, tp *topo.Topology, cfg fwd.Config) *world {
	t.Helper()
	sim := vtime.New()
	pl := hw.NewPlatform(sim)
	sess := mad.NewSession(pl)
	bindings := make(map[string]fwd.Binding)
	for _, nw := range tp.Networks() {
		var drv netDriver
		switch nw.Protocol {
		case "sci":
			drv = sisci.NewDMA()
		case "myrinet":
			drv = bip.New()
		default:
			t.Fatalf("no driver for %s", nw.Protocol)
		}
		bindings[nw.Name] = fwd.Binding{Net: drv.NewNetwork(pl, nw.Name), Drv: drv}
	}
	vc, err := fwd.Build(sess, tp, bindings, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return auditRelBufs(t, &world{sim: sim, sess: sess, vc: vc})
}

// Striping a large message over two rails must beat the single rail by a
// wide margin: with the SCI rail on its DMA engine (§3.4.1) the dual
// testbed adds ≈35 MB/s to Myrinet's 47 MB/s, so ≥1.5x is a conservative
// floor.
func TestStripeSpeedup(t *testing.T) {
	elapsed := func(k int) vtime.Duration {
		w := buildDMA(t, dualRail(t), stripeCfg(k))
		var done vtime.Time
		blocks := []block{{pattern(128*1024, 4), mad.SendCheaper, mad.ReceiveCheaper}}
		w.sim.Spawn("send", func(p *vtime.Proc) {
			px := w.vc.At("a").BeginPacking(p, "b")
			for _, b := range blocks {
				px.Pack(p, b.data, b.s, b.r)
			}
			px.EndPacking(p)
		})
		w.sim.Spawn("recv", func(p *vtime.Proc) {
			u := w.vc.At("b").BeginUnpacking(p)
			buf := make([]byte, len(blocks[0].data))
			u.Unpack(p, buf, blocks[0].s, blocks[0].r)
			u.EndUnpacking(p)
			done = p.Now()
		})
		if err := w.sim.Run(); err != nil {
			t.Fatal(err)
		}
		return done.Sub(vtime.Time(0))
	}
	one := elapsed(1)
	two := elapsed(2)
	if ratio := one.Seconds() / two.Seconds(); ratio < 1.5 {
		t.Errorf("K=2 speedup %.2fx, want >= 1.5x (K=1 %v, K=2 %v)", ratio, one, two)
	}
}

// With the default PIO SCI driver the shared PCI bus demotes the SCI rail
// 0.5x while the Myrinet rail's DMA is active (§3.4.1), so striping still
// wins but cannot reach the DMA configuration's gain — the same conflict
// the paper measures on gateways, reproduced on a striping sender.
func TestStripePIOBusConflict(t *testing.T) {
	elapsed := func(w *world) vtime.Duration {
		var done vtime.Time
		data := pattern(128*1024, 4)
		w.sim.Spawn("send", func(p *vtime.Proc) {
			px := w.vc.At("a").BeginPacking(p, "b")
			px.Pack(p, data, mad.SendCheaper, mad.ReceiveCheaper)
			px.EndPacking(p)
		})
		w.sim.Spawn("recv", func(p *vtime.Proc) {
			u := w.vc.At("b").BeginUnpacking(p)
			buf := make([]byte, len(data))
			u.Unpack(p, buf, mad.SendCheaper, mad.ReceiveCheaper)
			u.EndUnpacking(p)
			done = p.Now()
		})
		if err := w.sim.Run(); err != nil {
			t.Fatal(err)
		}
		return done.Sub(vtime.Time(0))
	}
	pioOne := elapsed(build(t, dualRail(t), stripeCfg(1)))
	pioTwo := elapsed(build(t, dualRail(t), stripeCfg(2)))
	dmaTwo := elapsed(buildDMA(t, dualRail(t), stripeCfg(2)))
	pioGain := pioOne.Seconds() / pioTwo.Seconds()
	dmaGain := pioOne.Seconds() / dmaTwo.Seconds()
	if pioGain < 1.1 {
		t.Errorf("PIO striping gain %.2fx, want >= 1.1x", pioGain)
	}
	if dmaGain <= pioGain {
		t.Errorf("DMA workaround gain %.2fx not above PIO gain %.2fx", dmaGain, pioGain)
	}
}

// Repeated striped sends of one size split the same way every time: the split
// follows the rails' static rates, so it never moves (when it followed a
// goodput EWMA, three of these five sends moved it).
func TestStripeRebalanceConverges(t *testing.T) {
	w := build(t, dualRail(t), stripeCfg(2))
	data := pattern(64*1024, 6)
	for i := 0; i < 5; i++ {
		got, _, _ := sendRecv(t, w, "a", "b", []block{{data, mad.SendCheaper, mad.ReceiveCheaper}})
		if !bytes.Equal(got[0], data) {
			t.Fatalf("send %d corrupted", i)
		}
	}
	st := w.vc.StripeStats()
	if st.Messages != 5 {
		t.Errorf("striped %d messages, want 5", st.Messages)
	}
	if st.Rebalances != 0 {
		t.Errorf("the split moved %d times over %d messages, want 0", st.Rebalances, st.Messages)
	}
}

// TestStripeKeepsBothGatewayRailsUnderCrossTraffic replays the striped leg of
// the telemetry oracle with no registry: a0 stripes to b0 over two rails, one
// through each gateway, while a1 stripes to a0 over a direct rail and one
// through gw1. Each of a0's rails must carry 45–55 % of its striped bytes.
// When the split followed each rail's measured goodput, the rail through gw1
// measured the queueing behind a1's traffic as its capacity and carried 0.216.
func TestStripeKeepsBothGatewayRailsUnderCrossTraffic(t *testing.T) {
	tp, err := topo.NewBuilder().
		Network("sci0", "sci").
		Network("myri0", "myrinet").
		Node("a0", "sci0").
		Node("a1", "sci0").
		Node("b0", "myri0").
		Node("gw1", "sci0", "myri0").
		Node("gw2", "sci0", "myri0").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	cfg := stripeCfg(2)
	cfg.Eager, cfg.PipelineDepth = true, 1
	cfg.Tracer = trace.New()
	w := build(t, tp, cfg)
	send := func(src, dst string, sizes []int) {
		w.sim.Spawn("send:"+src, func(p *vtime.Proc) {
			for i, n := range sizes {
				px := w.vc.At(src).BeginPacking(p, dst)
				px.Pack(p, pattern(n, byte(i)), mad.SendCheaper, mad.ReceiveCheaper)
				px.EndPacking(p)
			}
		})
		w.sim.Spawn("recv:"+dst, func(p *vtime.Proc) {
			for i, n := range sizes {
				got := make([]byte, n)
				u := w.vc.At(dst).BeginUnpacking(p)
				u.Unpack(p, got, mad.SendCheaper, mad.ReceiveCheaper)
				u.EndUnpacking(p)
				if !bytes.Equal(got, pattern(n, byte(i))) {
					t.Errorf("%s -> %s: message %d corrupted", src, dst, i)
				}
			}
		})
	}
	send("a0", "b0", []int{100, 20000, 400000, 250000, 3000})
	send("a1", "a0", []int{64, 100000})
	if err := w.sim.Run(); err != nil {
		t.Fatal(err)
	}
	var rails [2]int
	for _, s := range cfg.Tracer.ByActor("stripe:a0>b0") {
		rails[s.Op[len("rail")]-'0'] += s.Bytes
	}
	for rail, n := range rails {
		share := float64(n) / float64(rails[0]+rails[1])
		t.Logf("a0 rail %d: %d bytes, %.3f", rail, n, share)
		if share < 0.45 || share > 0.55 {
			t.Errorf("a0's rail %d carried %.3f of its striped bytes, want 0.45-0.55", rail, share)
		}
	}
}

// TestStripeRailsAreSetUpOnFirstSend: Build makes the gateway engines the
// routing table's routes relay through, and no more; a pair's rails are found,
// and the gateways only they cross are made, when the pair first sends. Every
// table route between the two clusters crosses gw1, so gw2 exists only once
// a0 has striped to b0.
func TestStripeRailsAreSetUpOnFirstSend(t *testing.T) {
	w := build(t, twoGateways(t), stripeCfg(2))
	if gws := w.vc.Gateways(); !slices.Equal(gws, []string{"gw1"}) {
		t.Fatalf("gateways after Build = %v, want [gw1]", gws)
	}
	blocks := []block{{pattern(96*1024, 37), mad.SendCheaper, mad.ReceiveCheaper}}
	got, fwded, _ := sendRecv(t, w, "a0", "b0", blocks)
	if !bytes.Equal(got[0], blocks[0].data) || !fwded {
		t.Errorf("striped payload corrupted or not marked forwarded")
	}
	if gws := w.vc.Gateways(); !slices.Equal(gws, []string{"gw1", "gw2"}) {
		t.Errorf("gateways after a striped send = %v, want [gw1 gw2]", gws)
	}
	for _, gw := range []string{"gw1", "gw2"} {
		if n := w.vc.Gateway(gw).Messages(); n != 1 {
			t.Errorf("gateway %s relayed %d rails, want 1", gw, n)
		}
	}
}

// Below the stripe threshold a pair with two rails sends down its single rail
// in the framing Config.Eager names: under Eager a 1 KiB message leaves the
// source as one compact transfer, not the seed framing's header, fragment and
// terminator.
func TestStripeBelowThresholdTakesEagerFraming(t *testing.T) {
	cfg := stripeCfg(2)
	cfg.Eager, cfg.FlowControl = true, true
	w := build(t, diamond(t), cfg)
	blocks := []block{{pattern(1024, 41), mad.SendCheaper, mad.ReceiveCheaper}}
	got, fwded, _ := sendRecv(t, w, "a", "b", blocks)
	if !bytes.Equal(got[0], blocks[0].data) || !fwded {
		t.Errorf("payload corrupted or not marked forwarded")
	}
	var spent int64
	for _, a := range w.vc.FlowAccounts() {
		if a.Sender == "a" {
			spent += a.Spent
		}
	}
	if spent != 1 {
		t.Errorf("the message left the source in %d transfers, want 1", spent)
	}
	if n := w.vc.StripeStats().Messages; n != 0 {
		t.Errorf("sub-threshold message was striped (%d)", n)
	}
}

// --- striping in reliable mode -----------------------------------------
//
// Reliable striping is a sender-side scheduling decision: fragments carry
// their index and reassemble out of order, so the receiver needs no rail
// awareness. These tests pin byte-exactness clean, under loss, and across
// a rail crash with quota failover.

func TestReliableStripedIntact(t *testing.T) {
	w := buildFaulty(t, dualRail(t), nil, nil, stripeCfg(2))
	blocks := []block{{pattern(128*1024, 11), mad.SendCheaper, mad.ReceiveCheaper}}
	got, fwded, _ := sendRecv(t, w, "a", "b", blocks)
	if !bytes.Equal(got[0], blocks[0].data) {
		t.Error("reliable striped payload corrupted")
	}
	if fwded {
		t.Error("direct rails marked forwarded")
	}
	st := w.vc.StripeStats()
	if st.Messages != 1 {
		t.Errorf("striped %d messages, want 1", st.Messages)
	}
	if st.RailFailovers != 0 {
		t.Errorf("clean run failed over %d rails", st.RailFailovers)
	}
	if ds := w.vc.DeliveryStats(); ds != (fwd.DeliveryStats{}) {
		t.Errorf("fault-free delivery stats not all zero: %+v", ds)
	}
}

func TestReliableStripedUnderLoss(t *testing.T) {
	plan := fault.NewPlan(42).Drop("*", 0.05)
	w := buildFaulty(t, dualRail(t), nil, plan, stripeCfg(2))
	blocks := []block{{pattern(200_000, 13), mad.SendCheaper, mad.ReceiveCheaper}}
	got, _, _ := sendRecv(t, w, "a", "b", blocks)
	if !bytes.Equal(got[0], blocks[0].data) {
		t.Error("reliable striped payload corrupted under loss")
	}
	if ds := w.vc.DeliveryStats(); ds.Retransmits == 0 {
		t.Error("5% loss run saw zero retransmissions")
	}
	if n := w.vc.StripeStats().Messages; n != 1 {
		t.Errorf("striped %d messages, want 1", n)
	}
}

func TestReliableStripedRailCrash(t *testing.T) {
	// The SCI rail is down for the whole run: its quota must fail over to
	// the Myrinet rail and the message must still arrive byte-exact.
	plan := fault.NewPlan(3).Flap("sci0", 0, 0)
	w := buildFaulty(t, dualRail(t), nil, plan, stripeCfg(2))
	blocks := []block{{pattern(128*1024, 17), mad.SendCheaper, mad.ReceiveCheaper}}
	got, _, _ := sendRecv(t, w, "a", "b", blocks)
	if !bytes.Equal(got[0], blocks[0].data) {
		t.Error("payload corrupted across rail failover")
	}
	st := w.vc.StripeStats()
	if st.RailFailovers == 0 {
		t.Error("dead rail caused no rail failover")
	}
	if st.RailBytes[0] == 0 {
		t.Error("surviving rail carried nothing")
	}
}

func TestReliableStripedGatewayRailCrash(t *testing.T) {
	// Diamond topology, one gateway per rail; the SCI-side gateway dies.
	// The rail through it must fail over and the whole message drain
	// through the surviving Myrinet gateway.
	tp, err := topo.NewBuilder().
		Network("m1", "myrinet").
		Network("m2", "myrinet").
		Network("s1", "sci").
		Network("s2", "sci").
		Node("a", "m1", "s1").
		Node("g1", "m1", "m2").
		Node("g2", "s1", "s2").
		Node("b", "m2", "s2").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	plan := fault.NewPlan(5).Crash("g2", 0, 0)
	w := buildFaulty(t, tp, nil, plan, stripeCfg(2))
	blocks := []block{{pattern(96*1024, 19), mad.SendCheaper, mad.ReceiveCheaper}}
	got, fwded, _ := sendRecv(t, w, "a", "b", blocks)
	if !bytes.Equal(got[0], blocks[0].data) {
		t.Error("payload corrupted across gateway rail crash")
	}
	if !fwded {
		t.Error("gateway-routed message not marked forwarded")
	}
	if n := w.vc.StripeStats().RailFailovers; n == 0 {
		t.Error("dead gateway rail caused no rail failover")
	}
	if n := w.vc.Gateway("g1").Messages(); n == 0 {
		t.Error("surviving gateway relayed nothing")
	}
}

// TestReliableStripeKeepsBothRails is prod_lossy_mix's rail trace as a test
// (DESIGN.md §28): a reliable K=2 pair through two gateways whose first striped
// transfer is an aggregate frame just over StripeThreshold — two packets, the
// 14-byte descriptor and the frame — followed by 190 KB messages. Each rail
// must carry at least 40 % of the bytes. When the reliable split followed the
// rails' measured goodput, the descriptor-only rail measured about 1 MB/s,
// got a quota of no packets from then on and was never measured again: it
// carried about 0 %.
func TestReliableStripeKeepsBothRails(t *testing.T) {
	cfg := stripeCfg(2)
	cfg.Eager, cfg.Aggregation = true, true
	w := buildFaulty(t, twoGateways(t), nil, nil, cfg)
	reg := obs.New()
	w.sess.Platform.SetMetrics(reg)
	var msgs [][]byte
	for i := 0; i < 20; i++ {
		msgs = append(msgs, pattern(1100, byte(i)))
	}
	for i := 0; i < 20; i++ {
		msgs = append(msgs, pattern(190_000, byte(i)))
	}
	w.sim.Spawn("app-send:a0", func(p *vtime.Proc) {
		for _, m := range msgs {
			px := w.vc.At("a0").BeginPacking(p, "b0")
			px.Pack(p, m, mad.SendCheaper, mad.ReceiveCheaper)
			px.EndPacking(p)
		}
	})
	w.sim.Spawn("app-recv:b0", func(p *vtime.Proc) {
		for i, m := range msgs {
			got := make([]byte, len(m))
			u := w.vc.At("b0").BeginUnpacking(p)
			u.Unpack(p, got, mad.SendCheaper, mad.ReceiveCheaper)
			u.EndUnpacking(p)
			if !bytes.Equal(got, m) {
				t.Errorf("message %d corrupted", i)
			}
		}
	})
	if err := w.sim.Run(); err != nil {
		t.Fatal(err)
	}
	for _, h := range reg.Hops() {
		if h.Op == "stripe" {
			if h.Bytes < fwd.DefaultStripeThreshold || h.Bytes > cfg.MTU {
				t.Fatalf("the first striped transfer is %d bytes, not an aggregate frame of one fragment", h.Bytes)
			}
			break
		}
	}
	st := w.vc.StripeStats()
	if st.Messages != 21 {
		t.Errorf("striped %d transfers, want 21: one frame and 20 large messages", st.Messages)
	}
	total := st.RailBytes[0] + st.RailBytes[1]
	for rail := 0; rail < 2; rail++ {
		share := float64(st.RailBytes[rail]) / float64(total)
		t.Logf("rail %d: %d bytes, %.3f of %d", rail, st.RailBytes[rail], share, total)
		if share < 0.4 {
			t.Errorf("rail %d carried %.3f of the striped bytes, want at least 0.4", rail, share)
		}
	}
}

// Hop acknowledgements must batch: a multi-fragment reliable message may
// cost at most a few standalone ack datagrams per window, far fewer than
// one per data packet.
func TestReliableAckCoalescing(t *testing.T) {
	// Direct link, one 300 KB message: 11 data packets at the default MTU
	// (10 fragments plus the descriptor) in ARQ bursts of 8, answered by
	// one batched cumulative ack per burst, plus the end-to-end ack's own
	// hop ack — three-ish control datagrams where per-packet acking would
	// need a dozen.
	w := buildFaulty(t, dualRail(t), nil, nil, fwd.DefaultConfig())
	blocks := []block{{pattern(300_000, 21), mad.SendCheaper, mad.ReceiveCheaper}}
	got, _, _ := sendRecv(t, w, "a", "b", blocks)
	if !bytes.Equal(got[0], blocks[0].data) {
		t.Error("payload corrupted")
	}
	st := w.vc.AckStats()
	if st.Packets == 0 {
		t.Error("no standalone ack datagrams at all")
	}
	if st.Coalesced == 0 {
		t.Error("no acks were coalesced")
	}
	// Every delivered packet's hop ack lands in exactly one bucket, so
	// Packets+Coalesced is the per-packet-acking datagram count this run
	// avoided. Batching must cut control datagrams by at least 3x.
	acks := st.Packets + st.Coalesced
	if st.Packets*3 > acks {
		t.Errorf("%d ack datagrams for %d hop acks; batching below 3x", st.Packets, acks)
	}
}

// Ack batching must also hold across a gateway: the relay re-bursts
// packets on the second hop, so standalone ack datagrams stay strictly
// fewer than the per-packet count even when relay pacing shrinks bursts.
func TestReliableAckCoalescingForwarded(t *testing.T) {
	w := buildFaulty(t, paperHS(t), nil, nil, fwd.DefaultConfig())
	blocks := []block{{pattern(300_000, 22), mad.SendCheaper, mad.ReceiveCheaper}}
	got, _, _ := sendRecv(t, w, "a0", "b1", blocks)
	if !bytes.Equal(got[0], blocks[0].data) {
		t.Error("payload corrupted")
	}
	st := w.vc.AckStats()
	acks := st.Packets + st.Coalesced
	if st.Coalesced == 0 {
		t.Error("no acks were coalesced")
	}
	if st.Packets >= acks {
		t.Errorf("%d ack datagrams for %d hop acks; batching saved nothing", st.Packets, acks)
	}
}

// Bidirectional reliable traffic lets acks piggyback on reverse-direction
// data packets instead of costing their own datagrams.
func TestReliableAckPiggyback(t *testing.T) {
	w := buildFaulty(t, dualRail(t), nil, nil, fwd.DefaultConfig())
	fwdData := pattern(120_000, 23)
	revData := pattern(120_000, 29)
	var gotFwd, gotRev []byte
	w.sim.Spawn("a", func(p *vtime.Proc) {
		px := w.vc.At("a").BeginPacking(p, "b")
		px.Pack(p, fwdData, mad.SendCheaper, mad.ReceiveCheaper)
		px.EndPacking(p)
		u := w.vc.At("a").BeginUnpacking(p)
		gotRev = make([]byte, len(revData))
		u.Unpack(p, gotRev, mad.SendCheaper, mad.ReceiveCheaper)
		u.EndUnpacking(p)
	})
	w.sim.Spawn("b", func(p *vtime.Proc) {
		px := w.vc.At("b").BeginPacking(p, "a")
		px.Pack(p, revData, mad.SendCheaper, mad.ReceiveCheaper)
		px.EndPacking(p)
		u := w.vc.At("b").BeginUnpacking(p)
		gotFwd = make([]byte, len(fwdData))
		u.Unpack(p, gotFwd, mad.SendCheaper, mad.ReceiveCheaper)
		u.EndUnpacking(p)
	})
	if err := w.sim.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotFwd, fwdData) || !bytes.Equal(gotRev, revData) {
		t.Error("bidirectional payloads corrupted")
	}
	if st := w.vc.AckStats(); st.Coalesced == 0 {
		t.Error("bidirectional run coalesced no acks")
	}
}
