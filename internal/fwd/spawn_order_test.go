package fwd_test

import (
	"bytes"
	"fmt"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"madgo/internal/fwd"
	"madgo/internal/mad"
	"madgo/internal/route"
	"madgo/internal/topo"
	"madgo/internal/vtime"
)

// TestGatewaysAreMadeInRouteOrder: Build equips every table route walked off
// its source's search tree, and does so in the order of a reference walk over
// Lookup's routes by source, destination and hop. Gateways and their gwpoll
// daemons are made in that order, which breaks ties between processes due
// at one instant.
func TestGatewaysAreMadeInRouteOrder(t *testing.T) {
	chain := topo.NewBuilder().
		Network("n0", "sci").Network("n1", "myrinet").Network("n2", "sci").Network("n3", "myrinet").
		Node("b1", "n3").Node("a1", "n0").Node("a0", "n0").
		Node("g3", "n2", "n3").Node("g1", "n0", "n1").Node("g2", "n1", "n2").
		Node("c", "n1").Node("b0", "n3")
	star := topo.NewBuilder().Network("bb", "myrinet")
	for _, i := range []int{2, 0, 1} {
		star.Network(fmt.Sprintf("s%d", i), "sci")
	}
	for _, i := range []int{1, 2, 0} {
		star.Node(fmt.Sprintf("n%d_1", i), fmt.Sprintf("s%d", i)).
			Node(fmt.Sprintf("g%d", i), fmt.Sprintf("s%d", i), "bb").
			Node(fmt.Sprintf("n%d_0", i), fmt.Sprintf("s%d", i))
	}
	for _, c := range []struct {
		name string
		b    *topo.Builder
	}{{"chain of three gateways", chain}, {"star of clusters", star}} {
		name := c.name
		tp, err := c.b.Build()
		if err != nil {
			t.Fatal(err)
		}
		w := build(t, tp, fwd.DefaultConfig())

		var want, gates []string
		seen := map[string]bool{} // gateways and gwpoll daemons met so far
		tbl := route.Compute(tp)
		for _, src := range tp.NodeNames() {
			for _, dst := range tp.NodeNames() {
				if src == dst {
					continue
				}
				r, ok := tbl.Lookup(src, dst)
				if !ok {
					t.Fatalf("%s: no route %s -> %s", name, src, dst)
				}
				for _, h := range r[:len(r)-1] {
					if !seen[h.To] {
						seen[h.To] = true
						gates = append(gates, h.To)
					}
					if d := "gwpoll:" + h.To + ":" + h.Network; !seen[d] {
						seen[d] = true
						want = append(want, d)
					}
				}
			}
		}
		var got, gotGates []string
		made := map[string]bool{}
		for _, p := range w.sim.ProcessNames() {
			if strings.HasPrefix(p, "gwpoll:") {
				got = append(got, p)
				if g := strings.Split(p, ":")[1]; !made[g] {
					made[g] = true
					gotGates = append(gotGates, g)
				}
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: gwpoll daemons spawned in the order\n%v\nwant\n%v", name, got, want)
		}
		if !reflect.DeepEqual(gotGates, gates) {
			t.Errorf("%s: gateways made in the order %v, want %v", name, gotGates, gates)
		}
		sort.Strings(gates)
		if !reflect.DeepEqual(w.vc.Gateways(), gates) {
			t.Errorf("%s: gateways %v, want %v", name, w.vc.Gateways(), gates)
		}
		if len(want) < 4 {
			t.Errorf("%s: only %d gwpoll daemons: %v", name, len(want), want)
		}
	}
}

// sendDaemonPrefixes name the dispatchers and send threads whose spawn order
// TestSendDaemonsKeepTheirNamesAndSpawnOrder holds.
var sendDaemonPrefixes = []string{"gwfair:", "gwtx:", "relfwd:", "relsend:", "agg-flush:", "stripe:"}

// TestSendDaemonsKeepTheirNamesAndSpawnOrder: the relay dispatchers and the
// send threads of both dataplanes are made where they always were, under the
// same names, so processes due at one instant break ties as before. Three
// scenarios — a streaming multicast through a gateway that is also a
// destination, a reliable send striped over two gateway rails, and an
// aggregated frame followed by a message that bypasses the coalescer to two
// gateway rails — are held to testdata/spawn_order.golden, which
// MADGO_REGEN_SPAWN_ORDER=1 rewrites.
func TestSendDaemonsKeepTheirNamesAndSpawnOrder(t *testing.T) {
	var got strings.Builder
	list := func(scenario string, w *world) {
		fmt.Fprintf(&got, "== %s\n", scenario)
		for _, p := range w.sim.ProcessNames() {
			for _, pre := range sendDaemonPrefixes {
				if strings.HasPrefix(p, pre) {
					fmt.Fprintln(&got, p)
				}
			}
		}
	}

	w := build(t, mcastChain(t), fwd.DefaultConfig())
	blocks := []block{{pattern(150_000, 3), mad.SendCheaper, mad.ReceiveCheaper}}
	checkIdentical(t, mcastSendRecv(t, w, "a0", []string{"gw2", "c0", "l0"}, blocks), blocks)
	list("streaming multicast a0 -> gw2 c0 l0", w)

	w = buildFaulty(t, diamond(t), nil, nil, stripeCfg(2))
	blocks = []block{{pattern(128*1024, 5), mad.SendCheaper, mad.ReceiveCheaper}}
	if data, _, _ := sendRecv(t, w, "a", "b", blocks); !bytes.Equal(data[0], blocks[0].data) {
		t.Error("reliable striped payload corrupted")
	}
	if n := w.vc.StripeStats().Messages; n != 1 {
		t.Errorf("striped %d messages, want 1", n)
	}
	list("reliable striped a -> b", w)

	cfg := stripeCfg(2)
	cfg.Eager = true
	w = build(t, diamond(t), cfg)
	msgs := [][]block{
		{{pattern(64, 1), mad.SendCheaper, mad.ReceiveCheaper}},
		{{pattern(128*1024, 2), mad.SendCheaper, mad.ReceiveCheaper}},
	}
	w.sim.Spawn("app-send:a", func(p *vtime.Proc) {
		for _, m := range msgs {
			px := w.vc.At("a").BeginPacking(p, "b")
			for _, b := range m {
				px.Pack(p, b.data, b.s, b.r)
			}
			px.EndPacking(p)
		}
	})
	w.sim.Spawn("app-recv:b", func(p *vtime.Proc) {
		for i, m := range msgs {
			u := w.vc.At("b").BeginUnpacking(p)
			got := make([]byte, len(m[0].data))
			u.Unpack(p, got, m[0].s, m[0].r)
			u.EndUnpacking(p)
			if !bytes.Equal(got, m[0].data) {
				t.Errorf("eager+agg message %d corrupted", i)
			}
		}
	})
	if err := w.sim.Run(); err != nil {
		t.Fatal(err)
	}
	if st, sst := w.vc.AggStats(), w.vc.StripeStats(); st.Frames != 1 || st.BypassMessages != 1 || sst.Messages != 1 {
		t.Errorf("%d frames, %d bypasses, %d striped messages; want 1 of each", st.Frames, st.BypassMessages, sst.Messages)
	}
	list("eager+agg frame, then a bypass over two rails a -> b", w)

	const golden = "testdata/spawn_order.golden"
	if os.Getenv("MADGO_REGEN_SPAWN_ORDER") != "" {
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (MADGO_REGEN_SPAWN_ORDER=1 writes it)", err)
	}
	if got.String() != string(want) {
		t.Errorf("send daemons spawned as\n%s\nwant\n%s", got.String(), want)
	}
}
