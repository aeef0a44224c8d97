package fwd_test

import (
	"bytes"
	"testing"
	"testing/quick"

	"madgo/internal/fwd"
	"madgo/internal/mad"
	"madgo/internal/topo"
	"madgo/internal/vtime"
)

// lineTopo builds a linear cluster-of-clusters: one network per protocol,
// node "a" on the first, node "b" on the last, and a dual-NIC gateway
// "g<i>" bridging every adjacent pair. One protocol yields the direct
// (gateway-free) case.
func lineTopo(protocols []string) *topo.Topology {
	b := topo.NewBuilder()
	names := make([]string, len(protocols))
	for i, pr := range protocols {
		names[i] = "n" + string(rune('1'+i))
		b.Network(names[i], pr)
	}
	b.Node("a", names[0])
	for i := 0; i+1 < len(names); i++ {
		b.Node("g"+string(rune('1'+i)), names[i], names[i+1])
	}
	b.Node("b", names[len(names)-1])
	tp, err := b.Build()
	if err != nil {
		panic(err)
	}
	return tp
}

// xorshift is the same tiny generator the zero-copy property test uses, so
// failures reproduce from the printed seed alone.
func xorshift(seed uint64) func(uint64) uint64 {
	rng := seed*6364136223846793005 + 1442695040888963407
	return func(n uint64) uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng % n
	}
}

// Property: for random route shapes (direct, single gateway, two-gateway
// chain) × random per-network MTUs × random pipeline depths × every streaming
// framing one route can carry (seed, eager, eager + aggregation, a multicast
// to the one destination) × one to four blocks of random sizes and modes, a
// message is delivered byte-identically, the Forwarded flag reflects whether
// a gateway relayed it, and the negotiated path MTU is the minimum over the
// traversed networks (§2.3) — never the global minimum of the whole
// configuration.
func TestForwardingProperty(t *testing.T) {
	protocols := []string{"sci", "myrinet", "sbp"}
	sends := []mad.SendMode{mad.SendCheaper, mad.SendSafer, mad.SendLater}
	recvs := []mad.RecvMode{mad.ReceiveCheaper, mad.ReceiveExpress}
	f := func(seed uint64) bool {
		next := xorshift(seed)
		hops := 1 + int(next(3)) // networks on the route
		route := make([]string, hops)
		for i := range route {
			route[i] = protocols[next(uint64(len(protocols)))]
		}
		cfg := fwd.DefaultConfig()
		cfg.PipelineDepth = 1 + int(next(8))
		// Per-network MTUs stay above the SCI post-gate / BIP rendezvous
		// thresholds (see the zero-copy property test): 8–56 KB.
		cfg.NetMTU = make(map[string]int)
		tp := lineTopo(route)
		wantMTU := 0
		for _, nw := range tp.Networks() {
			m := 8192 * (1 + int(next(7)))
			cfg.NetMTU[nw.Name] = m
			if wantMTU == 0 || m < wantMTU {
				wantMTU = m
			}
		}
		cfg.MTU = 8192 * (1 + int(next(15)))
		framing := []string{"seed", "eager", "eager+agg", "mcast"}[next(4)]
		cfg.Eager = framing == "eager" || framing == "eager+agg"
		cfg.Aggregation = framing == "eager+agg"
		// One to four blocks, 1..400 000 bytes together; a block past the
		// first may be empty.
		n := 1 + int(next(400_000))
		blocks := make([]block, 1+int(next(4)))
		left := n
		for i := range blocks {
			size := left
			if i < len(blocks)-1 {
				size = int(next(uint64(left + 1)))
			}
			left -= size
			blocks[i] = block{pattern(size, byte(seed>>8)+byte(i)),
				sends[next(uint64(len(sends)))], recvs[next(uint64(len(recvs)))]}
		}
		w := auditRelBufs(t, buildQuiet(tp, cfg))

		if got := w.vc.PathMTU("a", "b"); got != wantMTU {
			t.Logf("seed %d (route %v): PathMTU(a,b) = %d, want min %d",
				seed, route, got, wantMTU)
			return false
		}

		got := make([][]byte, len(blocks))
		var fwded bool
		w.sim.Spawn("s", func(p *vtime.Proc) {
			var px *fwd.Packing
			if framing == "mcast" {
				px = w.vc.At("a").BeginMulticast(p, "b")
			} else {
				px = w.vc.At("a").BeginPacking(p, "b")
			}
			for _, b := range blocks {
				px.Pack(p, b.data, b.s, b.r)
			}
			px.EndPacking(p)
		})
		w.sim.Spawn("r", func(p *vtime.Proc) {
			u := w.vc.At("b").BeginUnpacking(p)
			fwded = u.Forwarded()
			for i, b := range blocks {
				got[i] = make([]byte, len(b.data))
				u.Unpack(p, got[i], b.s, b.r)
			}
			u.EndUnpacking(p)
		})
		if err := w.sim.Run(); err != nil {
			t.Logf("seed %d (route %v, depth %d, %s, n %d in %d blocks): %v",
				seed, route, cfg.PipelineDepth, framing, n, len(blocks), err)
			return false
		}
		// A multicast is a self-described stream even over one network.
		if fwded != (hops > 1 || framing == "mcast") {
			t.Logf("seed %d (route %v, %s): Forwarded = %v with %d gateways",
				seed, route, framing, fwded, hops-1)
			return false
		}
		for i, b := range blocks {
			if !bytes.Equal(got[i], b.data) {
				t.Logf("seed %d (route %v, depth %d, mtus %v, %s, n %d): block %d of %d corrupted",
					seed, route, cfg.PipelineDepth, cfg.NetMTU, framing, n, i, len(blocks))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: the same delivery guarantee holds in reliable mode — the
// checksummed datagram protocol negotiates the path MTU through its
// fragment-0 descriptor, so random per-network MTUs and depths still
// round-trip byte-identically across a gateway.
func TestForwardingPropertyReliable(t *testing.T) {
	protocols := []string{"sci", "myrinet"}
	f := func(seed uint64) bool {
		next := xorshift(seed)
		hops := 1 + int(next(2))
		route := make([]string, hops)
		for i := range route {
			route[i] = protocols[next(uint64(len(protocols)))]
		}
		cfg := fwd.DefaultConfig()
		cfg.Reliable = true
		cfg.PipelineDepth = 1 + int(next(8))
		cfg.NetMTU = make(map[string]int)
		tp := lineTopo(route)
		for _, nw := range tp.Networks() {
			cfg.NetMTU[nw.Name] = 8192 * (1 + int(next(7)))
		}
		cfg.MTU = 8192 * (1 + int(next(15)))
		n := 1 + int(next(100_000))
		w := auditRelBufs(t, buildQuiet(tp, cfg))

		payload := pattern(n, byte(seed>>16))
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
			t.Logf("seed %d (route %v, depth %d, n %d): %v",
				seed, route, cfg.PipelineDepth, n, err)
			return false
		}
		if !bytes.Equal(got, payload) {
			t.Logf("seed %d (route %v, mtus %v, n %d): payload corrupted",
				seed, route, cfg.NetMTU, n)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
