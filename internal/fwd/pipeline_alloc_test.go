package fwd_test

import (
	"runtime"
	"testing"

	"madgo/internal/fwd"
	"madgo/internal/mad"
	"madgo/internal/obs"
	"madgo/internal/topo"
	"madgo/internal/trace"
)

// Steady-state relays must not touch the allocator: after the first message
// warms a ring's free list, every further message restocks from the pool
// (Gets keeps growing) without a single additional allocation (Misses stays
// at the warmup level). The copy-always ablation is the stress case — it
// runs both the staging-buffer pool and the per-packet stage pool — and the
// streaming multicast, replicated on two branches by a gateway that is
// itself a member, is the refcount's: every slot must come back exactly
// once however many branches it fed.
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
	for _, c := range []struct {
		name     string
		zeroCopy bool
		topo     func(*testing.T) *topo.Topology
		gateway  string
		relay    func(*testing.T, *world)
	}{
		{"zerocopy", true, paperHS, "gw", unicast},
		{"copy-always", false, paperHS, "gw", unicast},
		{"multicast", true, mcastChain, "gw1", multicast},
		{"multicast-copy-always", false, mcastChain, "gw1", multicast},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := fwd.DefaultConfig()
			cfg.PipelineDepth = 4
			cfg.ZeroCopy = c.zeroCopy
			w := build(t, c.topo(t), cfg)
			gw := w.vc.Gateway(c.gateway)

			c.relay(t, w) // warmup: stocks the ring, pays the only misses
			warm := gw.PoolStats()
			if warm.Misses == 0 {
				t.Fatal("warmup produced no pool misses; the relay is not using the pools")
			}
			const extra = 5
			for i := 0; i < extra; i++ {
				c.relay(t, w)
			}
			after := gw.PoolStats()
			if after.Misses != warm.Misses {
				t.Fatalf("steady-state relays allocated: misses %d -> %d",
					warm.Misses, after.Misses)
			}
			if after.Gets <= warm.Gets {
				t.Fatalf("pool not exercised after warmup: gets %d -> %d",
					warm.Gets, after.Gets)
			}
			if after.Gets != after.Puts {
				t.Fatalf("ring leaked staging buffers: gets %d != puts %d",
					after.Gets, after.Puts)
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
func TestGatewayRelayArmedAllocsNothing(t *testing.T) {
	cfg := fwd.DefaultConfig()
	cfg.MTU = 8 << 10
	cfg.PipelineDepth = 4
	cfg.Tracer = trace.New()
	w := build(t, paperHS(t), cfg)
	reg := obs.New()
	w.sess.Platform.SetMetrics(reg)

	relay := func(size int) uint64 {
		blocks := []block{{pattern(size, 7), mad.SendCheaper, mad.ReceiveCheaper}}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		sendRecv(t, w, "a1", "b1", blocks)
		runtime.ReadMemStats(&m1)
		return m1.Mallocs - m0.Mallocs
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
}
