package fwd_test

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"madgo/internal/fwd"
	"madgo/internal/mad"
	"madgo/internal/obs"
	"madgo/internal/topo"
	"madgo/internal/vtime"
)

// mcastChain is the 2-gateway chain the b1 benchmark uses: a root cluster,
// a core network with its own members, and a leaf cluster behind a second
// gateway.
func mcastChain(t *testing.T) *topo.Topology {
	t.Helper()
	tp, err := topo.NewBuilder().
		Network("edge", "sci").
		Network("core", "myrinet").
		Network("leaf", "sci").
		Node("a0", "edge").Node("a1", "edge").
		Node("gw1", "edge", "core").
		Node("c0", "core").Node("c1", "core").
		Node("gw2", "core", "leaf").
		Node("l0", "leaf").Node("l1", "leaf").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

// mcastSendRecv multicasts one block list from src to dests and returns the
// per-destination received blocks.
func mcastSendRecv(t *testing.T, w *world, src string, dests []string, blocks []block) map[string][][]byte {
	t.Helper()
	w.sim.Spawn("app-mcast:"+src, func(p *vtime.Proc) {
		px := w.vc.At(src).BeginMulticast(p, dests...)
		for _, b := range blocks {
			px.Pack(p, b.data, b.s, b.r)
		}
		px.EndPacking(p)
	})
	got := make(map[string][][]byte, len(dests))
	for _, d := range dests {
		d := d
		bufs := make([][]byte, len(blocks))
		got[d] = bufs
		w.sim.Spawn("app-recv:"+d, func(p *vtime.Proc) {
			u := w.vc.At(d).BeginUnpacking(p)
			if !u.Forwarded() && d != "gw1" {
				t.Errorf("%s: multicast not marked forwarded", d)
			}
			if u.From() != w.vc.NodeRank(src) {
				t.Errorf("%s: From() = %d, want rank of %s", d, u.From(), src)
			}
			for i, b := range blocks {
				bufs[i] = make([]byte, len(b.data))
				u.Unpack(p, bufs[i], b.s, b.r)
			}
			u.EndUnpacking(p)
		})
	}
	if err := w.sim.Run(); err != nil {
		t.Fatal(err)
	}
	return got
}

// spawnMcastStream spawns a root that multicasts data to dests n times back to
// back and, per destination, a receiver that unpacks and checks every copy.
func spawnMcastStream(t *testing.T, w *world, src string, dests []string, data []byte, n int) {
	w.sim.Spawn("mcast-send:"+src, func(p *vtime.Proc) {
		for i := 0; i < n; i++ {
			px := w.vc.At(src).BeginMulticast(p, dests...)
			px.Pack(p, data, mad.SendCheaper, mad.ReceiveCheaper)
			px.EndPacking(p)
		}
	})
	for _, d := range dests {
		w.sim.Spawn("mcast-recv:"+d, func(p *vtime.Proc) {
			got := make([]byte, len(data))
			for i := 0; i < n; i++ {
				u := w.vc.At(d).BeginUnpacking(p)
				u.Unpack(p, got, mad.SendCheaper, mad.ReceiveCheaper)
				u.EndUnpacking(p)
				if !bytes.Equal(got, data) {
					t.Errorf("%s -> %s: multicast %d corrupted", src, d, i)
				}
			}
		})
	}
}

func checkIdentical(t *testing.T, got map[string][][]byte, blocks []block) {
	t.Helper()
	for d, bufs := range got {
		for i := range blocks {
			if !bytes.Equal(bufs[i], blocks[i].data) {
				t.Errorf("%s: block %d corrupted (%d bytes)", d, i, len(blocks[i].data))
			}
		}
	}
}

func TestMulticastCompactAcrossChain(t *testing.T) {
	w := build(t, mcastChain(t), fwd.DefaultConfig())
	blocks := []block{
		{pattern(4, 1), mad.SendCheaper, mad.ReceiveExpress},
		{pattern(1000, 2), mad.SendCheaper, mad.ReceiveCheaper},
	}
	dests := []string{"a1", "c0", "c1", "l0", "l1"}
	got := mcastSendRecv(t, w, "a0", dests, blocks)
	checkIdentical(t, got, blocks)

	st := w.vc.McastStats()
	if st.Messages != 1 {
		t.Errorf("Messages = %d, want 1", st.Messages)
	}
	// gw1 and gw2 each replicate once.
	if st.Relays != 2 {
		t.Errorf("Relays = %d, want 2", st.Relays)
	}
	// Root 2 branches (a1 direct + chain), gw1 3 (c0, c1, gw2 subtree),
	// gw2 2 (l0, l1).
	if st.Branches != 7 {
		t.Errorf("Branches = %d, want 7", st.Branches)
	}
}

func TestMulticastStreamingAcrossChain(t *testing.T) {
	w := build(t, mcastChain(t), fwd.DefaultConfig())
	blocks := []block{{pattern(200_000, 3), mad.SendCheaper, mad.ReceiveCheaper}}
	dests := []string{"c0", "l0", "l1"}
	got := mcastSendRecv(t, w, "a0", dests, blocks)
	checkIdentical(t, got, blocks)

	// Each gateway receives the payload exactly once regardless of how many
	// receivers sit behind it.
	for _, gw := range []string{"gw1", "gw2"} {
		if b := w.vc.Gateway(gw).Bytes(); b != 200_000 {
			t.Errorf("%s ingress bytes = %d, want 200000", gw, b)
		}
	}
	st := w.vc.McastStats()
	// gw1 sends the stream twice (c0, gw2), gw2 twice (l0, l1): 4 copies of
	// the payload leave gateway egress links in total.
	if st.ReplicatedBytes != 4*200_000 {
		t.Errorf("ReplicatedBytes = %d, want %d", st.ReplicatedBytes, 4*200_000)
	}
}

func TestMulticastMultiBlockFlags(t *testing.T) {
	w := build(t, mcastChain(t), fwd.DefaultConfig())
	blocks := []block{
		{pattern(4, 1), mad.SendCheaper, mad.ReceiveExpress},
		{pattern(90_000, 2), mad.SendCheaper, mad.ReceiveCheaper},
		{pattern(100, 3), mad.SendSafer, mad.ReceiveExpress},
		{pattern(0, 4), mad.SendCheaper, mad.ReceiveCheaper},
		{pattern(40_000, 5), mad.SendLater, mad.ReceiveCheaper},
	}
	got := mcastSendRecv(t, w, "a1", []string{"a0", "c1", "l1"}, blocks)
	checkIdentical(t, got, blocks)
}

func TestMulticastEmptyMessage(t *testing.T) {
	w := build(t, mcastChain(t), fwd.DefaultConfig())
	blocks := []block{{pattern(0, 1), mad.SendCheaper, mad.ReceiveCheaper}}
	got := mcastSendRecv(t, w, "a0", []string{"l0", "l1"}, blocks)
	checkIdentical(t, got, blocks)
}

func TestMulticastDeliversToRelayingGateway(t *testing.T) {
	// A gateway that is both a destination and a branch point captures the
	// stream locally while replicating it downstream.
	w := build(t, mcastChain(t), fwd.DefaultConfig())
	for _, size := range []int{512, 150_000} {
		blocks := []block{{pattern(size, 7), mad.SendCheaper, mad.ReceiveCheaper}}
		got := mcastSendRecv(t, w, "a0", []string{"gw2", "l0"}, blocks)
		checkIdentical(t, got, blocks)
	}
	if n := w.vc.McastStats().LocalDeliveries; n != 2 {
		t.Errorf("LocalDeliveries = %d, want 2", n)
	}
}

func TestMulticastGatewayIngressIndependentOfFanout(t *testing.T) {
	// The gateway ingress byte count is the same whether one or three
	// receivers sit behind it — the tentpole's bandwidth-conservation
	// property.
	const size = 120_000
	ingress := func(dests []string) int64 {
		w := build(t, mcastChain(t), fwd.DefaultConfig())
		blocks := []block{{pattern(size, 9), mad.SendCheaper, mad.ReceiveCheaper}}
		got := mcastSendRecv(t, w, "a0", dests, blocks)
		checkIdentical(t, got, blocks)
		return w.vc.Gateway("gw1").Bytes()
	}
	one := ingress([]string{"c0"})
	three := ingress([]string{"c0", "c1", "l0"})
	if one != size || three != size {
		t.Errorf("gw1 ingress bytes: 1 dest = %d, 3 dests = %d, want %d both", one, three, size)
	}
}

// mcastTopo builds a topology of the given networks and nodes, each node
// listed with the networks it is on.
func mcastTopo(t *testing.T, nets []string, nodes [][]string) *topo.Topology {
	t.Helper()
	b := topo.NewBuilder()
	for i, n := range nets {
		b = b.Network(n, []string{"sci", "myrinet"}[i%2])
	}
	for _, n := range nodes {
		b = b.Node(n[0], n[1:]...)
	}
	tp, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

// TestMulticastSplitMatchesPlanner: the root and every gateway split the
// destination set they carry by next hop (fwd.SplitByHop), and the tree
// route.ComputeMulticast plans over the same table is the reference. At every
// node the split takes the planner's branches in its (network, next hop)
// order, each with the planner's hop and destination set, relaying exactly
// when the planner's does; every header's ranks ascend; every destination is
// reached once. Then each set is multicast: every destination gets the
// message byte for byte, the counters count the planner's edges, relays and
// local deliveries, the root's hop records name its branches in order, and
// every gateway's relay record names its branch count and the destinations
// its header carried, itself included. Sets are drawn at random, from any
// root, gateways included, on b1's chain (a node splits more than twelve
// destinations there, where the sort is not stable), the small chain,
// paperHS and a three-gateway chain whose member names sort against its
// networks; the star's sets are ones whose names concatenate alike.
func TestMulticastSplitMatchesPlanner(t *testing.T) {
	b1 := [][]string{{"a0", "edge"}, {"a1", "edge"}, {"gw1", "edge", "core"}}
	for i := 0; i < 8; i++ {
		b1 = append(b1, []string{fmt.Sprintf("c%d", i), "core"})
	}
	b1 = append(b1, []string{"gw2", "core", "leaf"})
	for i := 0; i < 8; i++ {
		b1 = append(b1, []string{fmt.Sprintf("l%d", i), "leaf"})
	}
	chain3 := [][]string{{"gwa", "n0", "n1"}, {"gwb", "n1", "n2"}, {"gwc", "n2", "n3"}}
	for i, n := range []string{"n0", "n1", "n2", "n3"} {
		for j := 0; j < 3; j++ {
			chain3 = append(chain3, []string{fmt.Sprintf("%c%d", 'z'-i, j), n})
		}
	}
	rng := rand.New(rand.NewSource(35))
	for _, c := range []struct {
		name  string
		tp    *topo.Topology
		fixed [][]string // sets multicast from the first node before the random ones
	}{
		{"star", mcastTopo(t, []string{"n"}, [][]string{{"r", "n"}, {"a", "n"}, {"ab", "n"}, {"bc", "n"}, {"c", "n"}}),
			[][]string{{"ab", "c"}, {"a", "bc"}, {"ab"}, {"a"}, {"ab", "c"}, {"a", "bc"}, {"ab"}}},
		{"b1", mcastTopo(t, []string{"edge", "core", "leaf"}, b1), nil},
		{"mcastChain", mcastChain(t), [][]string{{"a1", "c0", "gw1", "gw2", "l0"}}},
		{"paperHS", paperHS(t), nil},
		{"chain3", mcastTopo(t, []string{"n0", "n1", "n2", "n3"}, chain3), nil},
	} {
		t.Run(c.name, func(t *testing.T) {
			w := build(t, c.tp, fwd.DefaultConfig())
			reg := obs.New()
			w.sess.Platform.SetMetrics(reg)
			names := c.tp.NodeNames()
			type set struct {
				root  string
				dests []string
			}
			var sets []set
			for _, ds := range c.fixed {
				sets = append(sets, set{names[0], ds})
			}
			for len(sets) < len(c.fixed)+24 {
				root, p := names[rng.Intn(len(names))], 0.1+0.8*rng.Float64()
				var ds []string
				for _, n := range names {
					if n != root && rng.Float64() < p {
						ds = append(ds, n)
					}
				}
				if len(ds) > 0 {
					sets = append(sets, set{root, ds})
				}
			}
			for i, s := range sets {
				checkMulticastSplit(t, w, reg, s.root, s.dests, []int{200, 40_000}[i%2])
			}
		})
	}
}

// checkMulticastSplit holds the split at root and at every node its branches
// relay through to route.ComputeMulticast's tree, then multicasts size bytes
// and holds what the run counted and recorded to the same tree.
func checkMulticastSplit(t *testing.T, w *world, reg *obs.Registry, root string, dests []string, size int) {
	t.Helper()
	ref, err := w.vc.Table().ComputeMulticast(root, dests)
	if err != nil {
		t.Fatal(err)
	}
	where := fmt.Sprintf("%s -> %v", root, dests)
	type at struct {
		node, net string   // where a header arrives, and over which network
		dests     []string // the destinations it carries
	}
	reached := make(map[string]int)
	relays := make(map[string]string) // a gateway's relay record
	locals, split := 0, 0
	for q := []at{{node: root, dests: ref.Dests}}; len(q) > 0; q = q[1:] {
		n := q[0]
		got, local := fwd.SplitByHop(w.vc, n.node, n.dests)
		if local != (n.node != root && slices.Contains(n.dests, n.node)) {
			t.Fatalf("%s: %s split local = %v", where, n.node, local)
		}
		if local {
			reached[n.node]++
			locals++
		}
		want := ref.Branches[n.node]
		if len(want) > 0 {
			split++
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %s splits %+v, planner %+v", where, n.node, got, want)
		}
		for i, b := range got {
			byName := slices.Clone(b.Dests)
			slices.Sort(byName)
			if b.Hop != want[i].Hop || b.Relays != want[i].Relays() || !slices.Equal(byName, want[i].Dests) {
				t.Fatalf("%s: %s branch %d is %+v, planner %+v", where, n.node, i, b, want[i])
			}
			if !slices.IsSortedFunc(b.Dests, func(x, y string) int { return int(w.vc.NodeRank(x)) - int(w.vc.NodeRank(y)) }) {
				t.Fatalf("%s: %s branch %d carries %v, ranks not ascending", where, n.node, i, b.Dests)
			}
			if b.Relays {
				q = append(q, at{b.Hop.To, b.Hop.Network, b.Dests})
			} else {
				reached[b.Hop.To]++
			}
		}
		if n.node != root {
			relays[n.node] = fmt.Sprintf("mcast %s -> %d branches (%d dests)", n.net, len(got), len(n.dests))
		}
	}
	if split != len(ref.Branches) || len(reached) != len(ref.Dests) {
		t.Fatalf("%s: the split branches at %d nodes and reaches %v; the planner at %d and %v", where, split, reached, len(ref.Branches), ref.Dests)
	}
	for _, d := range ref.Dests {
		if reached[d] != 1 {
			t.Fatalf("%s: %s reached %d times", where, d, reached[d])
		}
	}

	before, mark := w.vc.McastStats(), len(reg.Hops())
	spawnMcastStream(t, w, root, ref.Dests, pattern(size, byte(len(dests))), 1)
	if err := w.sim.Run(); err != nil {
		t.Fatal(err)
	}
	st := w.vc.McastStats()
	if st.Messages-before.Messages != 1 || st.Branches-before.Branches != int64(ref.Edges) ||
		st.Relays-before.Relays != int64(len(ref.Relays())) || st.LocalDeliveries-before.LocalDeliveries != int64(locals) {
		t.Fatalf("%s: %d messages, %d branches, %d relays, %d local deliveries; want 1, %d, %d, %d", where,
			st.Messages-before.Messages, st.Branches-before.Branches, st.Relays-before.Relays,
			st.LocalDeliveries-before.LocalDeliveries, ref.Edges, len(ref.Relays()), locals)
	}
	var sent []string
	relayed := make(map[string]string)
	for _, h := range reg.Hops()[mark:] {
		switch {
		case h.Node == root && h.Op == "hop":
			sent = append(sent, h.Detail)
		case h.Op == "relay":
			relayed[h.Node] = h.Detail
		}
	}
	if len(sent) != len(ref.Branches[root]) {
		t.Fatalf("%s: the root recorded %q; the planner has branches %+v", where, sent, ref.Branches[root])
	}
	for i, b := range ref.Branches[root] {
		head, tail := fmt.Sprintf("%s -> %s via %s (mcast", root, b.Hop.To, b.Hop.Network), fmt.Sprintf(", %d dests)", len(b.Dests))
		if !strings.HasPrefix(sent[i], head) || !strings.HasSuffix(sent[i], tail) {
			t.Fatalf("%s: the root's branch %d recorded %q, want %s ...%s", where, i, sent[i], head, tail)
		}
	}
	if !maps.Equal(relayed, relays) {
		t.Fatalf("%s: gateways recorded %v, want %v", where, relayed, relays)
	}
}

func TestMulticastRequiresStreamingMode(t *testing.T) {
	cfg := fwd.DefaultConfig()
	cfg.Reliable = true
	w := build(t, mcastChain(t), cfg)
	if w.vc.CanMulticast() {
		t.Fatal("CanMulticast() = true in reliable mode")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("BeginMulticast in reliable mode did not panic")
		}
	}()
	w.sim.Spawn("bad", func(p *vtime.Proc) {
		w.vc.At("a0").BeginMulticast(p, "l0")
	})
	_ = w.sim.Run()
}

func TestMulticastDropsSelfAndDuplicates(t *testing.T) {
	w := build(t, mcastChain(t), fwd.DefaultConfig())
	blocks := []block{{pattern(256, 8), mad.SendCheaper, mad.ReceiveCheaper}}
	w.sim.Spawn("app-mcast:a0", func(p *vtime.Proc) {
		px := w.vc.At("a0").BeginMulticast(p, "l0", "a0", "l0")
		px.Pack(p, blocks[0].data, blocks[0].s, blocks[0].r)
		px.EndPacking(p)
	})
	var buf []byte
	w.sim.Spawn("app-recv:l0", func(p *vtime.Proc) {
		u := w.vc.At("l0").BeginUnpacking(p)
		buf = make([]byte, len(blocks[0].data))
		u.Unpack(p, buf, blocks[0].s, blocks[0].r)
		u.EndUnpacking(p)
	})
	if err := w.sim.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, blocks[0].data) {
		t.Error("payload corrupted")
	}
	if n := w.vc.McastStats().Messages; n != 1 {
		t.Errorf("Messages = %d, want 1", n)
	}
}

// TestMulticastHeaderIsHandedOverHopByHop: a multicast header is a wire-pool
// buffer its writer takes — the root, one a root branch, or a gateway, one a
// branch it splits off (mcastSplit) — and no hop hands on: the next hop returns
// one that travelled alone once it has parsed it, and the writer returns one
// it glued into a compact frame right after the copy (DESIGN.md §37). a0's
// message to {a1, c0, l0, l1} opens six headers: a1 and gw1 at the root, c0
// and gw2 at gw1, l0 and l1 at gw2. Compact, it builds six frames on the same
// branches, pool buffers too, each returned by its next hop. The pool is
// stocked with as many headers as one message holds at once; sent one at a
// time, every header buffer returned is a stocked one, so no writer makes its
// own. Sent back to back, 8 then 32 more messages allocate no more buffers,
// and every header and frame is returned once — a header may then borrow a
// frame's buffer, and go back with the frames. Every returned buffer is
// poisoned and the ledger balances (build).
func TestMulticastHeaderIsHandedOverHopByHop(t *testing.T) {
	dests := []string{"a1", "c0", "l0", "l1"}
	const headers = 6 // a message's headers, each returned once
	for _, c := range []struct {
		name   string
		size   int
		stock  int // the most headers a message holds at once
		frames int // the branch frames a message builds
	}{
		{"streaming", 70_000, 3, 0},
		{"compact", 1000, 2, headers},
	} {
		t.Run(c.name, func(t *testing.T) {
			w := build(t, mcastChain(t), fwd.DefaultConfig())
			var stock [][]byte
			returned, foreign, frames := 0, 0, 0
			stock = fwd.StockHeaderBufs(w.vc, c.stock, func(b []byte, header bool) {
				if !header {
					if len(b) > c.size {
						frames++
					}
					return
				}
				returned++
				for _, s := range stock {
					if &s[0] == &b[0] {
						return
					}
				}
				foreign++
			})
			blocks := []block{{pattern(c.size, 3), mad.SendCheaper, mad.ReceiveCheaper}}
			const msgs = 4
			for i := 0; i < msgs; i++ {
				checkIdentical(t, mcastSendRecv(t, w, "a0", dests, blocks), blocks)
			}
			if returned != msgs*headers || foreign != 0 || frames != msgs*c.frames {
				t.Fatalf("%d header buffers returned for %d headers, %d of them not stocked; %d frames for %d",
					returned, msgs*headers, foreign, frames, msgs*c.frames)
			}

			// Back to back: the root opens its next message while earlier
			// headers are still on their way or unread.
			stream := func(n int) int64 {
				spawnMcastStream(t, w, "a0", dests, blocks[0].data, n)
				if err := w.sim.Run(); err != nil {
					t.Fatal(err)
				}
				return w.vc.RelBookkeeping().BufsAllocated
			}
			warm, after := stream(8), stream(32)
			t.Logf("%s: %d header buffers returned; %d buffers allocated after 8 back-to-back messages, %d after 32 more", c.name, returned, warm, after)
			if after != warm {
				t.Errorf("back-to-back messages allocated buffers: %d after 8, %d after 32 more", warm, after)
			}
			if want := (msgs + 8 + 32) * (headers + c.frames); returned+frames != want {
				t.Errorf("%d header and %d frame buffers returned, want %d in all", returned, frames, want)
			}
		})
	}
}
