package fwd_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"madgo/internal/flow"
	"madgo/internal/fwd"
	"madgo/internal/mad"
	"madgo/internal/topo"
	"madgo/internal/vtime"
)

// Integration tests for credit-based gateway flow control and the
// many-senders contention wall (the paper's conclusion names "a
// sophisticated bandwidth control mechanism [to] regulate the incoming
// communication flow on gateways" as the open problem; these pin down the
// reconstruction's answer to it).

// starTopo is the incast fixture: n senders on one edge network funnel
// through a single gateway onto the core network where the sink lives.
func starTopo(t *testing.T, n int) *topo.Topology {
	t.Helper()
	b := topo.NewBuilder().Network("edge", "sci").Network("core", "myrinet")
	for i := 0; i < n; i++ {
		b.Node(fmt.Sprintf("s%d", i), "edge")
	}
	b.Node("gw", "edge", "core").Node("sink", "core")
	tp, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

// gwChainTopo routes every sender through two gateways in sequence, so
// credits must propagate backpressure across a gateway chain.
func gwChainTopo(t *testing.T, n int) *topo.Topology {
	t.Helper()
	b := topo.NewBuilder().
		Network("edge", "sci").Network("mid", "myrinet").Network("core", "sbp")
	for i := 0; i < n; i++ {
		b.Node(fmt.Sprintf("s%d", i), "edge")
	}
	b.Node("gw1", "edge", "mid").Node("gw2", "mid", "core").Node("sink", "core")
	tp, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

// dualRailTopo gives every sender two link-disjoint routes to the sink
// (via gwA and gwB), so striping engages and its rails spend credits too.
func dualRailTopo(t *testing.T, n int) *topo.Topology {
	t.Helper()
	b := topo.NewBuilder().
		Network("eA", "sci").Network("eB", "myrinet").Network("core", "sbp")
	for i := 0; i < n; i++ {
		b.Node(fmt.Sprintf("s%d", i), "eA", "eB")
	}
	b.Node("gwA", "eA", "core").Node("gwB", "eB", "core").Node("sink", "core")
	tp, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

// wallCase is one cell of the many-senders conformance wall.
type wallCase struct {
	name    string
	topo    func(*testing.T, int) *topo.Topology
	senders int
	cfg     fwd.Config
}

// runWall drives every sender's messages through the sink concurrently and
// checks byte-identical delivery, bounded virtual time, and bounded gateway
// pool allocation. Message sizes are drawn per sender from a seeded rand so
// elephants and mice contend.
func runWall(t *testing.T, c wallCase) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(c.senders)*7919 + 13))
	tp := c.topo(t, c.senders)
	w := build(t, tp, c.cfg)
	const msgsPerSender = 2
	type expect struct {
		sizes []int
		seed  byte
	}
	want := make(map[string]*expect, c.senders)
	for i := 0; i < c.senders; i++ {
		name := fmt.Sprintf("s%d", i)
		ex := &expect{seed: byte(i + 1)}
		for m := 0; m < msgsPerSender; m++ {
			size := 64 + rng.Intn(1024)
			if i%5 == 0 {
				size = 24*1024 + rng.Intn(48*1024) // elephants: multi-fragment
			}
			ex.sizes = append(ex.sizes, size)
		}
		want[name] = ex
		w.sim.Spawn("wall-send:"+name, func(p *vtime.Proc) {
			for _, size := range want[name].sizes {
				px := w.vc.At(name).BeginPacking(p, "sink")
				px.Pack(p, pattern(size, want[name].seed), mad.SendCheaper, mad.ReceiveCheaper)
				px.EndPacking(p)
			}
		})
	}
	received := make(map[string]int, c.senders)
	w.sim.Spawn("wall-recv:sink", func(p *vtime.Proc) {
		for i := 0; i < c.senders*msgsPerSender; i++ {
			u := w.vc.At("sink").BeginUnpacking(p)
			from := w.sess.Node(u.From()).Name
			ex := want[from]
			if ex == nil {
				t.Errorf("message from unexpected node %s", from)
				return
			}
			size := ex.sizes[received[from]]
			got := make([]byte, size)
			u.Unpack(p, got, mad.SendCheaper, mad.ReceiveCheaper)
			u.EndUnpacking(p)
			if !bytes.Equal(got, pattern(size, ex.seed)) {
				t.Errorf("payload from %s (message %d, %d bytes) corrupted", from, received[from], size)
			}
			received[from]++
		}
	})
	if err := w.sim.Run(); err != nil {
		t.Fatalf("run: %v", err) // a DeadlockError here is the wall's core failure
	}
	for name, ex := range want {
		if received[name] != len(ex.sizes) {
			t.Errorf("sender %s: %d of %d messages delivered", name, received[name], len(ex.sizes))
		}
	}
	if now := w.sim.Now(); vtime.Duration(now) > 60*vtime.Second {
		t.Errorf("virtual completion time %v unreasonably large", now)
	}
	// The pools end up holding a warm set, not a buffer per message: a ring
	// of staging buffers per gateway ingress network (each gateway here has
	// two); in the framings whose header travels alone (seed, rail), the
	// header of every stream open at once — it is a pool buffer from its
	// sender's open to its receiver's, and every sender may have one open on
	// each rail; in reliable mode about two ARQ windows of datagrams a node,
	// data and acks; and with aggregation a frame being packed and one on its
	// way per sender. The readings are 5 to 67 buffers streaming (star-64: 64
	// headers and 3 staging buffers, where a header leaked per message would
	// take 128), 79 for the 16 reliable senders, 29 for the 5 and 113 for the
	// 64 aggregating ones.
	warm := int64(len(w.vc.Gateways()) * 2 * c.cfg.PipelineDepth)
	switch {
	case c.cfg.Reliable:
		warm += int64(len(tp.Nodes()) * 2 * fwd.DefaultRetryPolicy().Window)
	case !c.cfg.Eager || c.cfg.StripeK > 1:
		warm += int64(c.senders * max(1, c.cfg.StripeK))
	}
	if c.cfg.Aggregation {
		warm += int64(2 * c.senders)
	}
	if bk := w.vc.RelBookkeeping(); bk.BufsAllocated > warm {
		t.Errorf("the pools allocated %d buffers for %d messages, over a warm set of %d",
			bk.BufsAllocated, c.senders*msgsPerSender, warm)
	}
	// Every gateway relays through its fair scheduler, credits or not.
	fs := w.vc.FlowStats()
	if fs.SchedRounds == 0 {
		t.Error("relay scheduler served no rounds")
	}
	// Reliable mode has no credit layer: the ARQ window already regulates
	// each hop.
	if c.cfg.FlowControl && !c.cfg.Reliable {
		if fs.CreditsSpent == 0 {
			t.Error("flow control armed but no credits spent")
		}
		if fs.CreditsGranted != fs.CreditsSpent {
			t.Errorf("credit ledger unbalanced at quiescence: granted %d, spent %d",
				fs.CreditsGranted, fs.CreditsSpent)
		}
		for _, a := range w.vc.FlowAccounts() {
			if a.Granted != a.Spent {
				t.Errorf("account (%s <- %s) unbalanced: granted %d, spent %d",
					a.Gateway, a.Sender, a.Granted, a.Spent)
			}
		}
	}
}

// TestManySendersContentionWall is the conformance wall: sender counts from
// 2 to 64 across incast, gateway-chain and dual-rail topologies, in
// streaming, reliable and striped modes, the streaming ones with credits off
// and on. Every cell must deliver byte-identically without deadlock.
func TestManySendersContentionWall(t *testing.T) {
	flowOn := func(cfg fwd.Config) fwd.Config {
		cfg.FlowControl = true
		cfg.CreditWindow = 8
		return cfg
	}
	reliable := fwd.DefaultConfig()
	reliable.Reliable = true
	striped := fwd.DefaultConfig()
	striped.StripeK = 2
	striped.StripeThreshold = 16 * 1024
	cases := []wallCase{
		{name: "star-2-plain", topo: starTopo, senders: 2, cfg: fwd.DefaultConfig()},
		{name: "star-9-plain", topo: starTopo, senders: 9, cfg: fwd.DefaultConfig()},
		{name: "star-64-plain", topo: starTopo, senders: 64, cfg: fwd.DefaultConfig()},
		{name: "star-16-reliable", topo: starTopo, senders: 16, cfg: reliable},
		{name: "chain-12-plain", topo: gwChainTopo, senders: 12, cfg: fwd.DefaultConfig()},
		{name: "chain-5-reliable", topo: gwChainTopo, senders: 5, cfg: reliable},
		{name: "dual-8-striped", topo: dualRailTopo, senders: 8, cfg: striped},
	}
	for _, c := range cases {
		base := c
		// A reliable case has no no-credits leg: a reliable engine spends
		// no credits, so the leg would be the flow leg's program run a
		// second time (the root package's TestReliableDeliveryHasOneShape
		// holds the two equal to the virtual nanosecond).
		if !base.cfg.Reliable {
			t.Run(base.name+"/no-credits", func(t *testing.T) { runWall(t, base) })
		}
		on := base
		on.cfg = flowOn(base.cfg)
		t.Run(base.name+"/flow", func(t *testing.T) { runWall(t, on) })
	}
}

// TestFlowCreditsPropagateAcrossGatewayChain pins multi-hop credit
// accounting: a relay spending toward the next gateway opens its own
// account, and every account balances at quiescence.
func TestFlowCreditsPropagateAcrossGatewayChain(t *testing.T) {
	cfg := fwd.DefaultConfig()
	cfg.FlowControl = true
	w := build(t, gwChainTopo(t, 1), cfg)
	blocks := []block{{pattern(150_000, 9), mad.SendCheaper, mad.ReceiveCheaper}}
	got, fwded, _ := sendRecv(t, w, "s0", "sink", blocks)
	if !fwded || !bytes.Equal(got[0], blocks[0].data) {
		t.Fatal("chained message corrupted or not forwarded")
	}
	accounts := w.vc.FlowAccounts()
	byPair := make(map[[2]string]fwd.FlowAccountStats, len(accounts))
	for _, a := range accounts {
		byPair[[2]string{a.Gateway, a.Sender}] = a
	}
	if _, ok := byPair[[2]string{"gw1", "s0"}]; !ok {
		t.Errorf("no credit account for (gw1 <- s0); have %v", accounts)
	}
	relay, ok := byPair[[2]string{"gw2", "gw1"}]
	if !ok {
		t.Fatalf("no credit account for (gw2 <- gw1): backpressure cannot chain; have %v", accounts)
	}
	if relay.Granted != relay.Spent || relay.Spent == 0 {
		t.Errorf("relay account unbalanced: %+v", relay)
	}
}

// TestFlowWindowThrottlesAndStallsAreTyped drives an incast with a tiny
// credit window and checks the backpressure is visible as typed stalls —
// the madgo_flow_* counters — not as drops or deadlock.
func TestFlowWindowThrottlesAndStallsAreTyped(t *testing.T) {
	cfg := fwd.DefaultConfig()
	cfg.FlowControl = true
	cfg.CreditWindow = 2 // far below the fragment count of one elephant
	w := build(t, starTopo(t, 8), cfg)
	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("s%d", i)
		w.sim.Spawn("send:"+name, func(p *vtime.Proc) {
			px := w.vc.At(name).BeginPacking(p, "sink")
			px.Pack(p, pattern(200_000, 5), mad.SendCheaper, mad.ReceiveCheaper)
			px.EndPacking(p)
		})
	}
	w.sim.Spawn("recv:sink", func(p *vtime.Proc) {
		for i := 0; i < 8; i++ {
			u := w.vc.At("sink").BeginUnpacking(p)
			got := make([]byte, 200_000)
			u.Unpack(p, got, mad.SendCheaper, mad.ReceiveCheaper)
			u.EndUnpacking(p)
			if !bytes.Equal(got, pattern(200_000, 5)) {
				t.Error("payload corrupted under credit throttling")
			}
		}
	})
	if err := w.sim.Run(); err != nil {
		t.Fatal(err)
	}
	fs := w.vc.FlowStats()
	if fs.Stalls == 0 || fs.StallTime == 0 {
		t.Errorf("window 2 under an 8-way incast must stall senders; stats %+v", fs)
	}
	if fs.CreditsGranted != fs.CreditsSpent {
		t.Errorf("ledger unbalanced: %+v", fs)
	}
	if fs.SchedRounds == 0 {
		t.Errorf("fair scheduler never completed a round; stats %+v", fs)
	}
}

// TestReliableBookkeepingStaysBounded is the memory-growth regression: a
// long stream of reliable messages must not grow the receiver's
// duplicate-suppression or reassembly records without bound.
func TestReliableBookkeepingStaysBounded(t *testing.T) {
	cfg := fwd.DefaultConfig()
	cfg.Reliable = true
	w := build(t, starTopo(t, 2), cfg)
	const perSender = 700 // comfortably past the 512-id window
	for i := 0; i < 2; i++ {
		name := fmt.Sprintf("s%d", i)
		seed := byte(i + 1)
		w.sim.Spawn("send:"+name, func(p *vtime.Proc) {
			for m := 0; m < perSender; m++ {
				px := w.vc.At(name).BeginPacking(p, "sink")
				px.Pack(p, pattern(64, seed), mad.SendCheaper, mad.ReceiveCheaper)
				px.EndPacking(p)
			}
		})
	}
	w.sim.Spawn("recv:sink", func(p *vtime.Proc) {
		for i := 0; i < 2*perSender; i++ {
			u := w.vc.At("sink").BeginUnpacking(p)
			got := make([]byte, 64)
			u.Unpack(p, got, mad.SendCheaper, mad.ReceiveCheaper)
			u.EndUnpacking(p)
		}
	})
	if err := w.sim.Run(); err != nil {
		t.Fatal(err)
	}
	bk := w.vc.RelBookkeeping()
	if bk.RxPartials != 0 {
		t.Errorf("quiesced run left %d partial reassemblies", bk.RxPartials)
	}
	// Two origins, each window-bounded: far below the 1400 messages
	// delivered. The old unbounded map held one entry per message forever.
	if bk.DoneIDs > 2*512 {
		t.Errorf("duplicate-suppression records grew to %d for %d messages",
			bk.DoneIDs, 2*perSender)
	}
	if d := w.vc.DeliveryStats(); d.Retransmits > 0 {
		// Sanity: boundedness must not come from losing packets.
		t.Logf("note: %d retransmits on a fault-free run", d.Retransmits)
	}
}

// TestFairRelayResumesSuspendedVisits: under the fair scheduler a closed-loop
// sender of sub-quantum messages gets its quantum's worth a round even though
// each of its announcements reaches the gateway a few microseconds after the
// relay of the previous message returned — which, the pipeline running across
// message boundaries, is as soon as that message's last fragment was queued.
// Its visit is suspended, not forfeited (flow.DRR.Suspend). The fixture puts
// the same protocol on both sides of the gateway: when egress is the slower
// side the relay thread waits on the sender's queue and the announcement is
// there in time anyway. Equal byte totals, so Jain over the senders' own
// completion goodputs isolates the service rate; with visits forfeited it
// reads 0.87 here.
func TestFairRelayResumesSuspendedVisits(t *testing.T) {
	const elephants, mice, total = 2, 10, 1 << 20
	b := topo.NewBuilder().Network("edge", "sci").Network("core", "sci")
	var names []string
	size := map[string]int{}
	for i := 0; i < elephants+mice; i++ {
		name := fmt.Sprintf("s%d", i)
		b.Node(name, "edge")
		names = append(names, name)
		size[name] = 16 << 10
		if i < elephants {
			size[name] = 256 << 10
		}
	}
	tp, err := b.Node("gw", "edge", "core").Node("sink", "core").Build()
	if err != nil {
		t.Fatal(err)
	}
	cfg := fwd.DefaultConfig()
	cfg.FlowControl = true
	w := build(t, tp, cfg)
	left, msgs := map[string]int{}, 0
	for _, name := range names {
		payload := pattern(size[name], 1)
		left[name] = total / len(payload)
		msgs += left[name]
		w.sim.Spawn("send:"+name, func(p *vtime.Proc) {
			for i := 0; i < total/len(payload); i++ {
				px := w.vc.At(name).BeginPacking(p, "sink")
				px.Pack(p, payload, mad.SendCheaper, mad.ReceiveCheaper)
				px.EndPacking(p)
			}
		})
	}
	var goodputs []float64
	w.sim.Spawn("sink", func(p *vtime.Proc) {
		buf := make([]byte, 256<<10)
		for i := 0; i < msgs; i++ {
			u := w.vc.At("sink").BeginUnpacking(p)
			from := w.sess.Node(u.From()).Name
			u.Unpack(p, buf[:size[from]], mad.SendCheaper, mad.ReceiveCheaper)
			u.EndUnpacking(p)
			if left[from]--; left[from] == 0 {
				goodputs = append(goodputs, total/vtime.Duration(p.Now()).Seconds())
			}
		}
	})
	if err := w.sim.Run(); err != nil {
		t.Fatal(err)
	}
	if j := flow.Jain(goodputs); j < 0.97 {
		t.Errorf("Jain over %d senders' goodputs = %.3f, want >= 0.97: sub-quantum flows lose their share", len(goodputs), j)
	} else {
		t.Logf("Jain %.4f", j)
	}
}
