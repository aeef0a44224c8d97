package fwd_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"madgo/internal/drivers/bip"
	"madgo/internal/drivers/sbp"
	"madgo/internal/drivers/sisci"
	"madgo/internal/flight"
	"madgo/internal/fwd"
	"madgo/internal/hw"
	"madgo/internal/mad"
	"madgo/internal/topo"
	"madgo/internal/trace"
	"madgo/internal/vtime"
)

// world is a full cluster-of-clusters fixture.
type world struct {
	sim  *vtime.Sim
	sess *mad.Session
	vc   *fwd.VirtualChannel
	// aborts is set by a test whose run is meant to end in a DeliveryError:
	// packets are then still in flight and the buffer ledger cannot balance.
	aborts bool
}

// auditRelBufs puts a world's pooled buffers — reliable datagrams, aggregate
// frames, gateway staging buffers — under test discipline: every buffer
// returned to a pool is poisoned, so reading a payload through an alias its
// owner should have dropped fails the test's own byte-exactness checks (or a
// CRC), and when the test ends the ledger must balance — every buffer taken
// was returned, exactly once. Every world the package's tests build goes
// through it.
func auditRelBufs(t *testing.T, w *world) *world {
	fwd.PoisonRelBufs(w.vc)
	t.Cleanup(func() {
		if t.Failed() || w.aborts {
			return
		}
		bk := w.vc.RelBookkeeping()
		if bk.BufsTaken != bk.BufsReturned {
			t.Errorf("wire buffer ledger: %d taken, %d returned (%d free)",
				bk.BufsTaken, bk.BufsReturned, bk.BufsFree)
		}
		if bk.PairsTaken != bk.PairsReturned {
			t.Errorf("descriptor pair ledger: %d taken, %d returned", bk.PairsTaken, bk.PairsReturned)
		}
	})
	return w
}

type netDriver interface {
	mad.Driver
	NewNetwork(pl *hw.Platform, name string) *hw.Network
}

// build assembles a virtual channel over a topology, binding each network's
// protocol to its driver.
func build(t *testing.T, tp *topo.Topology, cfg fwd.Config) *world {
	t.Helper()
	sim := vtime.New()
	pl := hw.NewPlatform(sim)
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

// armLanes arms a flight recorder whose rings hold n events each on w, and
// returns what derives w's pipeline lanes from it (package trace); the
// derivation fails the test if a ring overwrote an event.
func armLanes(t *testing.T, w *world, n int) func() trace.Log {
	rec := flight.NewRecorder(n)
	w.sess.Platform.SetFlight(rec)
	return func() trace.Log {
		lanes, err := trace.Of(w.sess.Platform)
		if err != nil {
			t.Fatal(err)
		}
		return lanes
	}
}

// paperHS is the paper's testbed restricted to the two high-speed networks.
func paperHS(t *testing.T) *topo.Topology {
	t.Helper()
	tp, err := topo.NewBuilder().
		Network("sci0", "sci").
		Network("myri0", "myrinet").
		Node("a0", "sci0").Node("a1", "sci0").
		Node("gw", "sci0", "myri0").
		Node("b0", "myri0").Node("b1", "myri0").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

func pattern(n int, seed byte) []byte {
	d := make([]byte, n)
	for i := range d {
		d[i] = byte(i)*11 + seed
	}
	return d
}

type block struct {
	data []byte
	s    mad.SendMode
	r    mad.RecvMode
}

// sendRecv runs one message src→dst on the world's virtual channel and
// returns the received blocks plus the unpacking record.
func sendRecv(t *testing.T, w *world, src, dst string, blocks []block) (got [][]byte, fwded bool, from mad.Rank) {
	t.Helper()
	w.sim.Spawn("app-send:"+src, func(p *vtime.Proc) {
		px := w.vc.At(src).BeginPacking(p, dst)
		for _, b := range blocks {
			px.Pack(p, b.data, b.s, b.r)
		}
		px.EndPacking(p)
	})
	got = make([][]byte, len(blocks))
	w.sim.Spawn("app-recv:"+dst, func(p *vtime.Proc) {
		u := w.vc.At(dst).BeginUnpacking(p)
		fwded = u.Forwarded()
		from = u.From()
		for i, b := range blocks {
			got[i] = make([]byte, len(b.data))
			u.Unpack(p, got[i], b.s, b.r)
		}
		u.EndUnpacking(p)
	})
	if err := w.sim.Run(); err != nil {
		t.Fatal(err)
	}
	return got, fwded, from
}

func TestForwardedMessageIntact(t *testing.T) {
	w := build(t, paperHS(t), fwd.DefaultConfig())
	blocks := []block{{pattern(100_000, 1), mad.SendCheaper, mad.ReceiveCheaper}}
	got, fwded, from := sendRecv(t, w, "a0", "b1", blocks)
	if !bytes.Equal(got[0], blocks[0].data) {
		t.Error("forwarded payload corrupted")
	}
	if !fwded {
		t.Error("message not marked forwarded")
	}
	if from != w.vc.NodeRank("a0") {
		t.Errorf("From() = %d, want rank of a0", from)
	}
	gw := w.vc.Gateway("gw")
	if gw.Messages() != 1 {
		t.Errorf("gateway relayed %d messages, want 1", gw.Messages())
	}
	if gw.Bytes() != 100_000 {
		t.Errorf("gateway relayed %d bytes, want 100000", gw.Bytes())
	}
	wantPkts := int64((100_000 + 32*1024 - 1) / (32 * 1024))
	if gw.Packets() != wantPkts {
		t.Errorf("gateway relayed %d packets, want %d", gw.Packets(), wantPkts)
	}
}

// TestAtReturnsOneEndpointAndAllocsNothing: a node's endpoint is made by its
// first At and returned by every later one, which allocates nothing — the
// collectives and the stream drivers call At once a message per side.
func TestAtReturnsOneEndpointAndAllocsNothing(t *testing.T) {
	w := build(t, paperHS(t), fwd.DefaultConfig())
	ep := w.vc.At("a0")
	if w.vc.At("a0") != ep || w.vc.At("b0") == ep || ep.Node().Name != "a0" {
		t.Fatal("At did not return the node's one endpoint")
	}
	if allocs := testing.AllocsPerRun(100, func() { w.vc.At("a0") }); allocs != 0 {
		t.Errorf("At allocates %.1f times a call, want 0", allocs)
	}
}

func TestDirectMessageSkipsGateway(t *testing.T) {
	w := build(t, paperHS(t), fwd.DefaultConfig())
	blocks := []block{{pattern(5000, 2), mad.SendCheaper, mad.ReceiveCheaper}}
	got, fwded, from := sendRecv(t, w, "a0", "a1", blocks)
	if !bytes.Equal(got[0], blocks[0].data) {
		t.Error("direct payload corrupted")
	}
	if fwded {
		t.Error("intra-cluster message marked forwarded")
	}
	if from != w.vc.NodeRank("a0") {
		t.Errorf("From() = %d", from)
	}
	if n := w.vc.Gateway("gw").Messages(); n != 0 {
		t.Errorf("gateway relayed %d messages for a direct route", n)
	}
}

func TestMessageToGatewayItselfIsDirect(t *testing.T) {
	// "A gateway node is also a regular node that supports the execution
	// of some application code" (§2.2.2).
	w := build(t, paperHS(t), fwd.DefaultConfig())
	blocks := []block{{pattern(3000, 3), mad.SendCheaper, mad.ReceiveCheaper}}
	got, fwded, _ := sendRecv(t, w, "b0", "gw", blocks)
	if !bytes.Equal(got[0], blocks[0].data) {
		t.Error("payload corrupted")
	}
	if fwded {
		t.Error("message to the gateway itself must not be forwarded")
	}
	if n := w.vc.Gateway("gw").Messages(); n != 0 {
		t.Errorf("gateway engine relayed %d messages", n)
	}
}

func TestMultiBlockForwardedWithFlags(t *testing.T) {
	w := build(t, paperHS(t), fwd.DefaultConfig())
	blocks := []block{
		{pattern(4, 1), mad.SendCheaper, mad.ReceiveExpress},
		{pattern(90_000, 2), mad.SendCheaper, mad.ReceiveCheaper},
		{pattern(100, 3), mad.SendSafer, mad.ReceiveExpress},
		{pattern(0, 4), mad.SendCheaper, mad.ReceiveCheaper},
		{pattern(40_000, 5), mad.SendLater, mad.ReceiveCheaper},
	}
	got, _, _ := sendRecv(t, w, "a1", "b0", blocks)
	for i := range blocks {
		if !bytes.Equal(got[i], blocks[i].data) {
			t.Errorf("block %d corrupted", i)
		}
	}
}

func TestEmptyForwardedMessage(t *testing.T) {
	w := build(t, paperHS(t), fwd.DefaultConfig())
	_, fwded, _ := sendRecv(t, w, "a0", "b0", nil)
	if !fwded {
		t.Error("empty message not forwarded")
	}
}

func TestBothDirectionsSimultaneously(t *testing.T) {
	// SCI→Myrinet and Myrinet→SCI at the same time: the two pipelines
	// share the gateway's PCI bus, as in §3.3/§3.4.
	w := build(t, paperHS(t), fwd.DefaultConfig())
	n := 200_000
	check := func(src, dst string, seed byte) {
		data := pattern(n, seed)
		w.sim.Spawn("s:"+src, func(p *vtime.Proc) {
			px := w.vc.At(src).BeginPacking(p, dst)
			px.Pack(p, data, mad.SendCheaper, mad.ReceiveCheaper)
			px.EndPacking(p)
		})
		w.sim.Spawn("r:"+dst, func(p *vtime.Proc) {
			u := w.vc.At(dst).BeginUnpacking(p)
			got := make([]byte, n)
			u.Unpack(p, got, mad.SendCheaper, mad.ReceiveCheaper)
			u.EndUnpacking(p)
			if !bytes.Equal(got, data) {
				t.Errorf("%s->%s corrupted", src, dst)
			}
		})
	}
	check("a0", "b0", 1)
	check("b1", "a1", 2)
	if err := w.sim.Run(); err != nil {
		t.Fatal(err)
	}
	if n := w.vc.Gateway("gw").Messages(); n != 2 {
		t.Errorf("gateway relayed %d messages, want 2", n)
	}
}

func TestMultiGatewayChain(t *testing.T) {
	tp, err := topo.NewBuilder().
		Network("n1", "sci").Network("n2", "myrinet").Network("n3", "sci").
		Node("a", "n1").
		Node("g1", "n1", "n2").
		Node("g2", "n2", "n3").
		Node("c", "n3").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	w := build(t, tp, fwd.DefaultConfig())
	if gws := w.vc.Gateways(); len(gws) != 2 {
		t.Fatalf("gateways = %v, want g1 g2", gws)
	}
	blocks := []block{{pattern(150_000, 7), mad.SendCheaper, mad.ReceiveCheaper}}
	got, fwded, from := sendRecv(t, w, "a", "c", blocks)
	if !bytes.Equal(got[0], blocks[0].data) {
		t.Error("payload corrupted across two gateways")
	}
	if !fwded || from != w.vc.NodeRank("a") {
		t.Errorf("fwded=%v from=%d", fwded, from)
	}
	if n := w.vc.Gateway("g1").Messages(); n != 1 {
		t.Errorf("g1 relayed %d", n)
	}
	if n := w.vc.Gateway("g2").Messages(); n != 1 {
		t.Errorf("g2 relayed %d", n)
	}
}

// sbpTopo bridges a network of protocol pIn to one of protocol pOut.
func sbpTopo(t *testing.T, pIn, pOut string) *topo.Topology {
	t.Helper()
	tp, err := topo.NewBuilder().
		Network("n1", pIn).
		Network("n2", pOut).
		Node("a", "n1").Node("g", "n1", "n2").Node("b", "n2").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

// gatewayCopies runs a 128 KB single-block forwarded message — unicast, or
// a multicast to the same single destination, which the gateway replicates
// on one branch — and returns the bytes CPU-copied on the gateway host.
func gatewayCopies(t *testing.T, pIn, pOut string, cfg fwd.Config, mcast bool) int64 {
	t.Helper()
	w := build(t, sbpTopo(t, pIn, pOut), cfg)
	blocks := []block{{pattern(128*1024, 9), mad.SendCheaper, mad.ReceiveCheaper}}
	var got [][]byte
	if mcast {
		got = mcastSendRecv(t, w, "a", []string{"b"}, blocks)["b"]
	} else {
		got, _, _ = sendRecv(t, w, "a", "b", blocks)
	}
	if !bytes.Equal(got[0], blocks[0].data) {
		t.Fatalf("%s->%s payload corrupted", pIn, pOut)
	}
	return w.sess.NodeByName("g").Host.BytesCopied()
}

// castNames labels the unicast and multicast rows of the relay tests.
var castNames = map[bool]string{false: "unicast", true: "multicast"}

func TestZeroCopyElection(t *testing.T) {
	// The §2.3 case analysis. "≈0" allows the 12-byte header copy.
	const payload = 128 * 1024
	const small = 1024
	cases := []struct {
		in, out  string
		wantCopy bool
	}{
		{"sci", "myrinet", false}, // dynamic -> dynamic
		{"myrinet", "sbp", false}, // dynamic -> static: recv into egress static buffer
		{"sbp", "myrinet", false}, // static -> dynamic: send from ingress slot
		{"sbp", "sbp", true},      // static -> static: the unavoidable copy
	}
	for _, c := range cases {
		for _, mcast := range []bool{false, true} {
			t.Run(c.in+"->"+c.out+"/"+castNames[mcast], func(t *testing.T) {
				copied := gatewayCopies(t, c.in, c.out, fwd.DefaultConfig(), mcast)
				if c.wantCopy && copied < payload {
					t.Errorf("gateway copied %d bytes, expected ≥ payload %d", copied, payload)
				}
				if !c.wantCopy && copied > small {
					t.Errorf("gateway copied %d bytes on a zero-copy path", copied)
				}
			})
		}
	}
}

// TestSlotModeRelaysEmptyLastFragment: in slot mode (static ingress, dynamic
// egress) a data packet rides the ingress slot, and a zero-size block is an
// empty one. The compact framing flags it EOM when it ends the message; the
// gateway must relay it with its descriptor, not as a bare terminator.
func TestSlotModeRelaysEmptyLastFragment(t *testing.T) {
	cfg := fwd.DefaultConfig()
	cfg.Eager = true
	w := build(t, sbpTopo(t, "sbp", "myrinet"), cfg)
	blocks := []block{
		{pattern(100_000, 3), mad.SendCheaper, mad.ReceiveCheaper},
		{nil, mad.SendCheaper, mad.ReceiveCheaper},
	}
	got, _, _ := sendRecv(t, w, "a", "b", blocks)
	if !bytes.Equal(got[0], blocks[0].data) {
		t.Fatal("payload corrupted")
	}
}

func TestCopyAlwaysAblationPaysPayload(t *testing.T) {
	cfg := fwd.DefaultConfig()
	cfg.ZeroCopy = false
	for _, mcast := range []bool{false, true} {
		copied := gatewayCopies(t, "sci", "myrinet", cfg, mcast)
		if copied < 128*1024 {
			t.Errorf("%s: copy-always gateway copied %d bytes, want ≥ payload", castNames[mcast], copied)
		}
	}
}

func TestForwardingSlowerWithoutPipelining(t *testing.T) {
	oneway := func(depth int) vtime.Duration {
		cfg := fwd.DefaultConfig()
		cfg.PipelineDepth = depth
		w := build(t, paperHS(t), cfg)
		var done vtime.Time
		data := pattern(1<<20, 1)
		w.sim.Spawn("s", func(p *vtime.Proc) {
			px := w.vc.At("a0").BeginPacking(p, "b0")
			px.Pack(p, data, mad.SendCheaper, mad.ReceiveCheaper)
			px.EndPacking(p)
		})
		w.sim.Spawn("r", func(p *vtime.Proc) {
			u := w.vc.At("b0").BeginUnpacking(p)
			u.Unpack(p, make([]byte, len(data)), mad.SendCheaper, mad.ReceiveCheaper)
			u.EndUnpacking(p)
			done = p.Now()
		})
		if err := w.sim.Run(); err != nil {
			t.Fatal(err)
		}
		return vtime.Duration(done)
	}
	d1, d2 := oneway(1), oneway(2)
	if d2 >= d1 {
		t.Errorf("pipelined (%v) not faster than single-buffer (%v)", d2, d1)
	}
	// With two buffers the receive of packet k+1 overlaps the send of
	// packet k: the improvement should be substantial, not marginal.
	if float64(d2) > 0.8*float64(d1) {
		t.Errorf("pipelining saved only %v -> %v, expected ≥20%%", d1, d2)
	}
}

func TestPipelineOverlapInTrace(t *testing.T) {
	cfg := fwd.DefaultConfig()
	w := build(t, paperHS(t), cfg)
	lanes := armLanes(t, w, 1024)
	data := pattern(512*1024, 4)
	w.sim.Spawn("s", func(p *vtime.Proc) {
		px := w.vc.At("a0").BeginPacking(p, "b0")
		px.Pack(p, data, mad.SendCheaper, mad.ReceiveCheaper)
		px.EndPacking(p)
	})
	w.sim.Spawn("r", func(p *vtime.Proc) {
		u := w.vc.At("b0").BeginUnpacking(p)
		u.Unpack(p, make([]byte, len(data)), mad.SendCheaper, mad.ReceiveCheaper)
		u.EndUnpacking(p)
	})
	if err := w.sim.Run(); err != nil {
		t.Fatal(err)
	}
	tr := lanes()
	recvs := tr.ByActor("gw:recv:sci0")
	sends := tr.ByActor("gw:send:myri0")
	if len(recvs) == 0 || len(sends) == 0 {
		t.Fatalf("missing trace spans: %v", tr.Actors())
	}
	// Figure 5: while packet k is sent, packet k+1 is received.
	overlaps := 0
	for _, s := range sends {
		if s.Op != "send" {
			continue
		}
		for _, r := range recvs {
			if r.Op == "recv" && r.T0 < s.T1 && s.T0 < r.T1 {
				overlaps++
				break
			}
		}
	}
	if overlaps < 5 {
		t.Errorf("only %d send spans overlap a receive span; pipeline not overlapping", overlaps)
	}
}

func TestInflowRegulationThrottlesIngress(t *testing.T) {
	for _, dests := range [][]string{{"b0"}, {"b0", "b1"}} {
		mcast := len(dests) > 1
		t.Run(castNames[mcast], func(t *testing.T) {
			cfg := fwd.DefaultConfig()
			cfg.InflowLimit = 10 * 1e6 // 10 MB/s
			w := build(t, paperHS(t), cfg)
			data := pattern(512*1024, 4)
			var done vtime.Time
			w.sim.Spawn("s", func(p *vtime.Proc) {
				var px *fwd.Packing
				if mcast {
					px = w.vc.At("a0").BeginMulticast(p, dests...)
				} else {
					px = w.vc.At("a0").BeginPacking(p, dests[0])
				}
				px.Pack(p, data, mad.SendCheaper, mad.ReceiveCheaper)
				px.EndPacking(p)
			})
			for _, d := range dests {
				w.sim.Spawn("r:"+d, func(p *vtime.Proc) {
					u := w.vc.At(d).BeginUnpacking(p)
					u.Unpack(p, make([]byte, len(data)), mad.SendCheaper, mad.ReceiveCheaper)
					u.EndUnpacking(p)
					done = p.Now()
				})
			}
			if err := w.sim.Run(); err != nil {
				t.Fatal(err)
			}
			mbps := float64(len(data)) / vtime.Duration(done).Seconds() / 1e6
			if mbps > 11 {
				t.Errorf("throttled forwarding ran at %.1f MB/s, want ≤ 10 + ε", mbps)
			}
		})
	}
}

func TestConsecutiveForwardedMessages(t *testing.T) {
	w := build(t, paperHS(t), fwd.DefaultConfig())
	const msgs = 5
	w.sim.Spawn("s", func(p *vtime.Proc) {
		for i := 0; i < msgs; i++ {
			px := w.vc.At("a0").BeginPacking(p, "b0")
			px.Pack(p, pattern(20_000+i, byte(i)), mad.SendCheaper, mad.ReceiveCheaper)
			px.EndPacking(p)
		}
	})
	w.sim.Spawn("r", func(p *vtime.Proc) {
		for i := 0; i < msgs; i++ {
			u := w.vc.At("b0").BeginUnpacking(p)
			got := make([]byte, 20_000+i)
			u.Unpack(p, got, mad.SendCheaper, mad.ReceiveCheaper)
			u.EndUnpacking(p)
			if !bytes.Equal(got, pattern(20_000+i, byte(i))) {
				t.Errorf("message %d corrupted", i)
			}
		}
	})
	if err := w.sim.Run(); err != nil {
		t.Fatal(err)
	}
	if n := w.vc.Gateway("gw").Messages(); n != msgs {
		t.Errorf("relayed %d messages, want %d", n, msgs)
	}
}

func TestManySendersThroughOneGateway(t *testing.T) {
	w := build(t, paperHS(t), fwd.DefaultConfig())
	pairs := [][2]string{{"a0", "b0"}, {"a1", "b1"}, {"b0", "a1"}, {"b1", "a0"}}
	for i, pr := range pairs {
		src, dst, seed := pr[0], pr[1], byte(i)
		data := pattern(60_000, seed)
		w.sim.Spawn("s:"+src+dst, func(p *vtime.Proc) {
			px := w.vc.At(src).BeginPacking(p, dst)
			px.Pack(p, data, mad.SendCheaper, mad.ReceiveCheaper)
			px.EndPacking(p)
		})
		w.sim.Spawn("r:"+src+dst, func(p *vtime.Proc) {
			u := w.vc.At(dst).BeginUnpacking(p)
			got := make([]byte, len(data))
			u.Unpack(p, got, mad.SendCheaper, mad.ReceiveCheaper)
			u.EndUnpacking(p)
			if !bytes.Equal(got, data) {
				t.Errorf("%s->%s corrupted", src, dst)
			}
			if u.From() != w.vc.NodeRank(src) {
				t.Errorf("%s->%s From() = %d", src, dst, u.From())
			}
		})
	}
	if err := w.sim.Run(); err != nil {
		t.Fatal(err)
	}
	if n := w.vc.Gateway("gw").Messages(); n != int64(len(pairs)) {
		t.Errorf("relayed %d messages, want %d", n, len(pairs))
	}
}

func TestBuildValidation(t *testing.T) {
	tp := paperHS(t)
	sim := vtime.New()
	pl := hw.NewPlatform(sim)
	sess := mad.NewSession(pl)
	sci := sisci.New()
	myri := bip.New()
	bindings := map[string]fwd.Binding{
		"sci0":  {Net: sci.NewNetwork(pl, "sci0"), Drv: sci},
		"myri0": {Net: myri.NewNetwork(pl, "myri0"), Drv: myri},
	}
	// Missing binding.
	if _, err := fwd.Build(sess, tp, map[string]fwd.Binding{"sci0": bindings["sci0"]}, fwd.DefaultConfig()); err == nil {
		t.Error("expected error for missing binding")
	}
	// Bad configs.
	for _, cfg := range []fwd.Config{
		{MTU: 0, PipelineDepth: 2},
		{MTU: 1024, PipelineDepth: 0},
		{MTU: 1024, PipelineDepth: 2, InflowLimit: -1},
	} {
		if _, err := fwd.Build(sess, tp, bindings, cfg); err == nil {
			t.Errorf("expected error for config %+v", cfg)
		}
	}
	// Valid build, then a second Build on the same session must fail.
	if _, err := fwd.Build(sess, tp, bindings, fwd.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	if _, err := fwd.Build(sess, tp, bindings, fwd.DefaultConfig()); err == nil {
		t.Error("expected error for non-empty session")
	}
}

// Property: arbitrary block scripts survive forwarding byte-exactly, for
// arbitrary MTUs.
func TestForwardingRoundTripProperty(t *testing.T) {
	f := func(seed int64, mtuRaw uint16, nblocks uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := fwd.DefaultConfig()
		cfg.MTU = 1024 + int(mtuRaw)%(64*1024)
		w := &world{}
		func() {
			defer func() { recover() }()
			w = auditRelBufs(t, buildQuiet(tpHS(), cfg))
		}()
		if w.vc == nil {
			return false
		}
		count := int(nblocks%5) + 1
		blocks := make([]block, count)
		for i := range blocks {
			size := rng.Intn(120_000)
			blocks[i] = block{
				data: pattern(size, byte(rng.Int())),
				s:    []mad.SendMode{mad.SendCheaper, mad.SendSafer, mad.SendLater}[rng.Intn(3)],
				r:    []mad.RecvMode{mad.ReceiveCheaper, mad.ReceiveExpress}[rng.Intn(2)],
			}
		}
		ok := true
		w.sim.Spawn("s", func(p *vtime.Proc) {
			px := w.vc.At("a0").BeginPacking(p, "b1")
			for _, b := range blocks {
				px.Pack(p, b.data, b.s, b.r)
			}
			px.EndPacking(p)
		})
		w.sim.Spawn("r", func(p *vtime.Proc) {
			u := w.vc.At("b1").BeginUnpacking(p)
			for _, b := range blocks {
				got := make([]byte, len(b.data))
				u.Unpack(p, got, b.s, b.r)
				ok = ok && bytes.Equal(got, b.data)
			}
			u.EndUnpacking(p)
		})
		if err := w.sim.Run(); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// tpHS and buildQuiet are non-failing variants for property tests.
func tpHS() *topo.Topology {
	tp, err := topo.NewBuilder().
		Network("sci0", "sci").
		Network("myri0", "myrinet").
		Node("a0", "sci0").Node("a1", "sci0").
		Node("gw", "sci0", "myri0").
		Node("b0", "myri0").Node("b1", "myri0").
		Build()
	if err != nil {
		panic(err)
	}
	return tp
}

func buildQuiet(tp *topo.Topology, cfg fwd.Config) *world {
	sim := vtime.New()
	pl := hw.NewPlatform(sim)
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

func TestGatewayStatsAccumulate(t *testing.T) {
	w := build(t, paperHS(t), fwd.DefaultConfig())
	total := 0
	w.sim.Spawn("s", func(p *vtime.Proc) {
		for i := 1; i <= 3; i++ {
			n := i * 10_000
			total += n
			px := w.vc.At("a0").BeginPacking(p, "b0")
			px.Pack(p, pattern(n, byte(i)), mad.SendCheaper, mad.ReceiveCheaper)
			px.EndPacking(p)
		}
	})
	w.sim.Spawn("r", func(p *vtime.Proc) {
		for i := 1; i <= 3; i++ {
			u := w.vc.At("b0").BeginUnpacking(p)
			u.Unpack(p, make([]byte, i*10_000), mad.SendCheaper, mad.ReceiveCheaper)
			u.EndUnpacking(p)
		}
	})
	if err := w.sim.Run(); err != nil {
		t.Fatal(err)
	}
	gw := w.vc.Gateway("gw")
	if gw.Bytes() != int64(total) {
		t.Errorf("gateway bytes = %d, want %d", gw.Bytes(), total)
	}
	if gw.Messages() != 3 {
		t.Errorf("gateway messages = %d", gw.Messages())
	}
}

func TestTimelineRenders(t *testing.T) {
	cfg := fwd.DefaultConfig()
	w := build(t, paperHS(t), cfg)
	lanes := armLanes(t, w, 1024)
	w.sim.Spawn("s", func(p *vtime.Proc) {
		px := w.vc.At("a0").BeginPacking(p, "b0")
		px.Pack(p, pattern(256*1024, 1), mad.SendCheaper, mad.ReceiveCheaper)
		px.EndPacking(p)
	})
	var done vtime.Time
	w.sim.Spawn("r", func(p *vtime.Proc) {
		u := w.vc.At("b0").BeginUnpacking(p)
		u.Unpack(p, make([]byte, 256*1024), mad.SendCheaper, mad.ReceiveCheaper)
		u.EndUnpacking(p)
		done = p.Now()
	})
	if err := w.sim.Run(); err != nil {
		t.Fatal(err)
	}
	tr := lanes()
	tl := tr.Timeline(0, done, 100)
	if tl == "" {
		t.Fatal("empty timeline")
	}
	for _, actor := range []string{"gw:recv:sci0", "gw:send:myri0"} {
		found := false
		for _, a := range tr.Actors() {
			if a == actor {
				found = true
			}
		}
		if !found {
			t.Errorf("timeline missing actor %s; have %v\n%s", actor, tr.Actors(), tl)
		}
	}
	fmt.Println(tl) // visible with go test -v
}
