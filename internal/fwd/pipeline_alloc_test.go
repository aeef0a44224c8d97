package fwd_test

import (
	"testing"

	"madgo/internal/fwd"
	"madgo/internal/mad"
	"madgo/internal/topo"
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
