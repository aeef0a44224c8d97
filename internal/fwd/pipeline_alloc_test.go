package fwd_test

import (
	"runtime"
	"testing"

	"madgo/internal/fwd"
	"madgo/internal/mad"
	"madgo/internal/obs"
	"madgo/internal/topo"
	"madgo/internal/trace"
	"madgo/internal/vtime"
)

// Steady-state relays must not touch the allocator. A slot takes a staging
// buffer from the pool its message's buffer election names — the channel's
// wire pool, or the ring's pool of the egress driver's static buffers — for
// every fragment it stages, and the sender that releases the slot gives the
// buffer back: once the pools hold a ring's worth, every further message takes
// from them (BufsTaken keeps growing) without a single additional allocation
// (BufsAllocated stays at the warm-up level), and when the gateway is
// quiescent every buffer taken has been returned (the ledger balances; the
// fixture poisons every returned buffer) — nothing stays stocked in a ring
// between messages. The copy-always ablation is the stress case — every
// fragment takes a second buffer — the streaming multicast, replicated on two
// branches by a gateway that is itself a member, is the refcount's: every
// slot must come back exactly once however many branches it fed. The last row
// is the slot that outlives its message: back-to-back messages whose election
// differs — ingress slots, the egress driver's static buffers, the wire pool
// of a fan-out — and whose MTU changes with the route, so a slot released for
// one message is refilled from another pool, at another size, for the next
// while the first is still going out.
func TestGatewayRelayWarmPoolNoNewAllocations(t *testing.T) {
	payload := pattern(300_000, 7)
	blocks := []block{{payload, mad.SendCheaper, mad.ReceiveCheaper}}
	unicast := func(t *testing.T, w *world) {
		got, fwded, _ := sendRecv(t, w, "b1", "a1", blocks)
		if !fwded {
			t.Fatal("message was not forwarded")
		}
		if len(got[0]) != len(payload) {
			t.Fatalf("short delivery: %d of %d", len(got[0]), len(payload))
		}
	}
	multicast := func(t *testing.T, w *world) {
		checkIdentical(t, mcastSendRecv(t, w, "a0", []string{"gw1", "c0", "l0"}, blocks), blocks)
	}
	modes := func(t *testing.T, w *world) {
		runSequence(t, w, []string{"a"}, []relayMsg{
			{[]string{"m0"}, 100_000},             // static in, dynamic out: ingress slots, 16 KiB packets
			{[]string{"s0"}, 100_000},             // static out: the egress driver's buffers, 8 KiB
			{[]string{"m0", "c0"}, 100_000},       // two branches: the plain pool, 16 KiB
			{[]string{"m1", "s0", "c0"}, 100_000}, // three: the pool again, 8 KiB
			{[]string{"c0"}, 100_000},             // ingress slots, 32 KiB
			{[]string{"s0"}, 20_000}, {[]string{"m0"}, 20_000}, {[]string{"s0"}, 20_000},
		})
	}
	fan := func(t *testing.T) *topo.Topology { return fanTopo(t, "sbp") }
	fanMTU := map[string]int{"myri": 16 << 10, "sbp": 8 << 10}
	for _, c := range []struct {
		name     string
		zeroCopy bool
		topo     func(*testing.T) *topo.Topology
		relay    func(*testing.T, *world)
		netMTU   map[string]int // nil: one MTU everywhere
	}{
		{"zerocopy", true, paperHS, unicast, nil},
		{"copy-always", false, paperHS, unicast, nil},
		{"multicast", true, mcastChain, multicast, nil},
		{"multicast-copy-always", false, mcastChain, multicast, nil},
		{"election-changes", true, fan, modes, fanMTU},
		{"election-changes-copy-always", false, fan, modes, fanMTU},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := fwd.DefaultConfig()
			cfg.PipelineDepth = 4
			cfg.ZeroCopy = c.zeroCopy
			cfg.NetMTU = c.netMTU
			w := build(t, c.topo(t), cfg)
			c.relay(t, w) // warm-up: fills the pools, pays the only misses
			warm := w.vc.RelBookkeeping()
			if warm.BufsAllocated == 0 {
				t.Fatal("warmup allocated no buffers; the relay is not using the pools")
			}
			const extra = 5
			for i := 0; i < extra; i++ {
				c.relay(t, w)
			}
			after := w.vc.RelBookkeeping()
			t.Logf("after warm-up %+v, after %d more relays %+v", warm, extra, after)
			if after.BufsAllocated != warm.BufsAllocated {
				t.Fatalf("steady-state relays allocated: %d -> %d buffers",
					warm.BufsAllocated, after.BufsAllocated)
			}
			if after.BufsTaken <= warm.BufsTaken {
				t.Fatalf("pools not exercised after warmup: %d -> %d taken",
					warm.BufsTaken, after.BufsTaken)
			}
			if after.BufsTaken != after.BufsReturned || int64(after.BufsFree) != after.BufsAllocated {
				t.Fatalf("gateway leaked staging buffers: %+v", after)
			}
		})
	}
}

// The armed twin of the wall above: with a metrics registry and a tracer
// recording, a relayed fragment still costs no allocation — the gateway's
// series are handles bound once, hop records are fixed fields copied into a
// chunk, spans go into the tracer's slice (DESIGN.md §19). Doubling a
// message's fragment count must therefore add next to nothing: what remains
// is amortised growth, one hop chunk per 256 records and the span slice's
// doublings. The registry is armed after Build, the way internal/bench arms
// it, so this is also the late-binding path.
//
// Nor does a relayed message: the senders are daemons, a transfer is queued by
// value and a slot carries what its release needs, so nothing is spawned,
// joined or fenced per message (DESIGN.md §23). A gateway's share of a
// message's allocations is what a second gateway on the path adds to them,
// endpoints being equal: nothing. A seed-framing header is a wire-pool buffer
// every gateway receives and hands on as it came (mad.TxMeta.Owned), so it
// reaches the next node before a receive is posted for it and lands there as
// it is, where the link used to copy a header re-emitted from the gateway's
// header cells into driver memory (mad.snapshot; DESIGN.md §36). That copy was
// the one allocation a second gateway added, the send process's record the
// other before it. On a multicast tree a gateway splits the destination set
// into branch headers: wire-pool buffers the next hop returns (DESIGN.md §37),
// where each used to be an allocation of its own, one a branch.
func TestGatewayRelayArmedAllocsNothing(t *testing.T) {
	cfg := fwd.DefaultConfig()
	cfg.MTU = 8 << 10
	cfg.PipelineDepth = 4
	cfg.Tracer = trace.New()
	armed := func(tp *topo.Topology) (*world, *obs.Registry) {
		w := build(t, tp, cfg)
		reg := obs.New()
		w.sess.Platform.SetMetrics(reg)
		return w, reg
	}
	// mallocs counts the allocations of one run.
	mallocs := func(run func()) uint64 {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		run()
		runtime.ReadMemStats(&m1)
		return m1.Mallocs - m0.Mallocs
	}

	w, reg := armed(paperHS(t))
	relay := func(size int) uint64 {
		blocks := []block{{pattern(size, 7), mad.SendCheaper, mad.ReceiveCheaper}}
		return mallocs(func() { sendRecv(t, w, "a1", "b1", blocks) })
	}
	const frags = 256
	relay(2 * frags * cfg.MTU) // warm-up: rings, pools, handles, the first chunks
	short, long := relay(frags*cfg.MTU), relay(2*frags*cfg.MTU)
	perFrag := (float64(long) - float64(short)) / frags
	t.Logf("armed relay: %d allocations for %d fragments, %d for %d: %.3f per extra fragment", short, frags, long, 2*frags, perFrag)
	if perFrag > 0.1 {
		t.Errorf("an armed relayed fragment costs %.2f allocations, want 0 (amortised)", perFrag)
	}
	gw := obs.Labels{"gateway": "gw"}
	if got := reg.Counter("madgo_gateway_relayed_packets_total", gw); got != 5*frags {
		t.Errorf("madgo_gateway_relayed_packets_total = %v, want %d: the late-armed registry missed writes", got, 5*frags)
	}
	if reg.HistogramCount("madgo_gateway_swap_seconds", gw) == 0 || len(cfg.Tracer.Spans()) == 0 || len(reg.Hops()) == 0 {
		t.Error("the armed run recorded no swap observations, spans or hops; the wall would be vacuous")
	}

	// perMsg is what one more message of a back-to-back stream costs, spawn
	// putting n of them on a fresh world of the topology.
	const msgs = 256
	data := pattern(3*cfg.MTU, 5)
	perMsg := func(tp *topo.Topology, spawn func(w *world, n int)) float64 {
		w, _ := armed(tp)
		stream := func(n int) uint64 {
			spawn(w, n)
			return mallocs(func() {
				if err := w.sim.Run(); err != nil {
					t.Fatal(err)
				}
			})
		}
		stream(2 * msgs) // warm-up
		short, long := stream(msgs), stream(2*msgs)
		return (float64(long) - float64(short)) / msgs
	}
	unicast := func(dst string) float64 {
		return perMsg(chainTopo(t), func(w *world, n int) {
			var done vtime.Time
			spawnStream(t, w, "a", dst, data, n, &done)
		})
	}
	multicast := func(dst string) float64 {
		return perMsg(mcastChain(t), func(w *world, n int) { spawnMcastStream(t, w, "a0", []string{dst}, data, n) })
	}
	for _, c := range []struct {
		name     string
		perMsg   func(dst string) float64
		one, two string // a destination one gateway away, and one two away
	}{
		{"relay", unicast, "g2", "c"}, // g2 is the second gateway: a message for it crosses only g1
		{"multicast relay", multicast, "c0", "l0"},
	} {
		one, two := c.perMsg(c.one), c.perMsg(c.two)
		t.Logf("armed %s: %.3f allocations per extra message through one gateway, %.3f through two: the second adds %.3f", c.name, one, two, two-one)
		if two-one >= 0.05 {
			t.Errorf("an armed gateway adds %.3f allocations to a %s message, want 0 (amortised)", two-one, c.name)
		}
	}
}
