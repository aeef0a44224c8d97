package coll_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"madgo/internal/coll"
	"madgo/internal/drivers/bip"
	"madgo/internal/drivers/sbp"
	"madgo/internal/drivers/sisci"
	"madgo/internal/fwd"
	"madgo/internal/hw"
	"madgo/internal/mad"
	"madgo/internal/topo"
	"madgo/internal/vtime"
)

// The broadcast contract must be mode-independent: whatever buffer the root
// offers, every member returns with a byte-identical copy — whether the
// fan-out travelled the gateway-native multicast tree (streaming modes), a
// binomial tree of reliable datagrams, or a mix of direct and forwarded
// edges. The property test draws random chain topologies, member subsets,
// roots and payloads and checks all modes deliver the same bytes.

// randChain builds a random 1-3 cluster chain: every network holds 2-3 leaf
// nodes, consecutive networks share a gateway.
func randChain(t *testing.T, rng *rand.Rand) (*topo.Topology, []string) {
	t.Helper()
	protos := []string{"sci", "myrinet", "sbp"}
	nets := 1 + rng.Intn(3)
	b := topo.NewBuilder()
	var names []string
	netNames := make([]string, nets)
	for i := 0; i < nets; i++ {
		netNames[i] = fmt.Sprintf("net%d", i)
		b = b.Network(netNames[i], protos[rng.Intn(len(protos))])
	}
	for i := 0; i < nets; i++ {
		for j := 0; j < 2+rng.Intn(2); j++ {
			n := fmt.Sprintf("n%d_%d", i, j)
			b = b.Node(n, netNames[i])
			names = append(names, n)
		}
		if i+1 < nets {
			gw := fmt.Sprintf("gw%d", i)
			b = b.Node(gw, netNames[i], netNames[i+1])
			names = append(names, gw)
		}
	}
	tp, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return tp, names
}

func buildColl(t *testing.T, tp *topo.Topology, cfg fwd.Config) (*vtime.Sim, *fwd.VirtualChannel) {
	t.Helper()
	sim := vtime.New()
	pl := hw.NewPlatform(sim)
	sess := mad.NewSession(pl)
	bindings := make(map[string]fwd.Binding)
	for _, nw := range tp.Networks() {
		switch nw.Protocol {
		case "sci":
			d := sisci.New()
			bindings[nw.Name] = fwd.Binding{Net: d.NewNetwork(pl, nw.Name), Drv: d}
		case "myrinet":
			d := bip.New()
			bindings[nw.Name] = fwd.Binding{Net: d.NewNetwork(pl, nw.Name), Drv: d}
		case "sbp":
			d := sbp.New()
			bindings[nw.Name] = fwd.Binding{Net: d.NewNetwork(pl, nw.Name), Drv: d}
		default:
			t.Fatalf("no driver for %s", nw.Protocol)
		}
	}
	vc, err := fwd.Build(sess, tp, bindings, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sim, vc
}

// broadcastOnce runs one Broadcast over the given members and returns every
// member's resulting buffer.
func broadcastOnce(t *testing.T, sim *vtime.Sim, vc *fwd.VirtualChannel,
	members []string, root int, payload []byte) [][]byte {
	t.Helper()
	out := make([][]byte, len(members))
	for i, m := range members {
		i, m := i, m
		sim.Spawn("member:"+m, func(p *vtime.Proc) {
			c, err := coll.New(vc, members, m)
			if err != nil {
				t.Error(err)
				return
			}
			buf := make([]byte, len(payload))
			if i == root {
				copy(buf, payload)
			}
			c.Broadcast(p, root, buf)
			out[i] = buf
		})
	}
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestBroadcastModeEquivalenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	modes := []struct {
		name string
		cfg  func() fwd.Config
	}{
		{"plain", fwd.DefaultConfig},
		{"reliable", func() fwd.Config {
			cfg := fwd.DefaultConfig()
			cfg.Reliable = true
			return cfg
		}},
	}
	for trial := 0; trial < 12; trial++ {
		tp, names := randChain(t, rng)
		// Random member subset of size >= 2, random order.
		rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
		members := names[:2+rng.Intn(len(names)-1)]
		root := rng.Intn(len(members))
		payload := make([]byte, 1+rng.Intn(100_000))
		rng.Read(payload)

		var want [][]byte
		for _, mode := range modes {
			sim, vc := buildColl(t, tp, mode.cfg())
			got := broadcastOnce(t, sim, vc, members, root, payload)
			for i := range got {
				if !bytes.Equal(got[i], payload) {
					t.Fatalf("trial %d mode %s: member %s holds corrupted broadcast (%d bytes, root %s)",
						trial, mode.name, members[i], len(payload), members[root])
				}
			}
			if want == nil {
				want = got
				continue
			}
			for i := range got {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("trial %d mode %s: member %s disagrees with baseline",
						trial, mode.name, members[i])
				}
			}
		}
	}
}

// TestBroadcastMulticastActuallyEngaged guards the property test against
// silently regressing to unicast: on a streaming channel with a forwarded
// member, Broadcast must enter the multicast path.
func TestBroadcastMulticastActuallyEngaged(t *testing.T) {
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
	sim, vc := buildColl(t, tp, fwd.DefaultConfig())
	members := []string{"a0", "a1", "gw", "b0", "b1"}
	payload := make([]byte, 50_000)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	broadcastOnce(t, sim, vc, members, 0, payload)
	st := vc.McastStats()
	if st.Messages != 1 {
		t.Errorf("McastStats.Messages = %d, want 1 (broadcast bypassed multicast)", st.Messages)
	}
	if st.Relays == 0 {
		t.Error("no gateway replicated the broadcast")
	}
	if st.LocalDeliveries != 1 {
		t.Errorf("LocalDeliveries = %d, want 1 (gw is a member)", st.LocalDeliveries)
	}
	// The gateway pulled the payload off the ingress wire exactly once
	// (+5 bytes of collective tag and length preamble).
	if b := vc.Gateway("gw").Bytes(); b != int64(len(payload))+5 {
		t.Errorf("gw ingress bytes = %d, want %d", b, len(payload)+5)
	}
}
