package fwd_test

import (
	"bytes"
	"testing"

	"madgo/internal/fwd"
	"madgo/internal/mad"
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
	if st.TreeRecomputes != 1 || st.TreeCacheHits != 0 {
		t.Errorf("plan cache = %d recomputes / %d hits", st.TreeRecomputes, st.TreeCacheHits)
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

func TestMulticastWithFlowControl(t *testing.T) {
	cfg := fwd.DefaultConfig()
	cfg.FlowControl = true
	cfg.CreditWindow = 2
	w := build(t, mcastChain(t), cfg)
	for _, size := range []int{100, 300_000} {
		blocks := []block{{pattern(size, 5), mad.SendCheaper, mad.ReceiveCheaper}}
		got := mcastSendRecv(t, w, "a0", []string{"a1", "c0", "l0", "l1"}, blocks)
		checkIdentical(t, got, blocks)
	}
	fs := w.vc.FlowStats()
	if fs.CreditsSpent == 0 || fs.CreditsSpent != fs.CreditsGranted {
		t.Errorf("credits spent %d / granted %d: want equal and nonzero",
			fs.CreditsSpent, fs.CreditsGranted)
	}
}

func TestMulticastPlanCacheInvalidatesOnEpoch(t *testing.T) {
	w := build(t, mcastChain(t), fwd.DefaultConfig())
	run := func() {
		blocks := []block{{pattern(64, 1), mad.SendCheaper, mad.ReceiveCheaper}}
		got := mcastSendRecv(t, w, "a0", []string{"l0"}, blocks)
		checkIdentical(t, got, blocks)
	}
	run()
	run()
	st := w.vc.McastStats()
	if st.TreeRecomputes != 1 || st.TreeCacheHits != 1 {
		t.Fatalf("before epoch bump: %d recomputes / %d hits, want 1/1", st.TreeRecomputes, st.TreeCacheHits)
	}
	// A routing-epoch change (health readmission, link death) must force the
	// next multicast to rebuild its tree over the new table.
	w.vc.Table().Epoch++
	run()
	st = w.vc.McastStats()
	if st.TreeRecomputes != 2 || st.TreeCacheHits != 1 {
		t.Fatalf("after epoch bump: %d recomputes / %d hits, want 2/1", st.TreeRecomputes, st.TreeCacheHits)
	}

	// The key is the root and the member names, each behind a zero byte,
	// written into one reused buffer. Member sets whose names concatenate
	// alike — {ab, c} and {a, bc} — get plans of their own, and a set looked
	// up after a longer one that starts like it does not find the longer
	// one's plan in the reused key's stale tail. A wrong plan would deliver
	// to the wrong nodes: the receivers would wait for ever.
	tp, err := topo.NewBuilder().Network("n", "sci").
		Node("r", "n").Node("a", "n").Node("ab", "n").Node("bc", "n").Node("c", "n").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	w = build(t, tp, fwd.DefaultConfig())
	blocks := []block{{pattern(64, 1), mad.SendCheaper, mad.ReceiveCheaper}}
	for i, c := range []struct {
		dests            []string
		recomputes, hits int64
	}{
		{[]string{"ab", "c"}, 1, 0},
		{[]string{"a", "bc"}, 2, 0},
		{[]string{"ab"}, 3, 0},
		{[]string{"a"}, 4, 0},
		{[]string{"ab", "c"}, 4, 1},
		{[]string{"a", "bc"}, 4, 2},
		{[]string{"ab"}, 4, 3},
	} {
		checkIdentical(t, mcastSendRecv(t, w, "r", c.dests, blocks), blocks)
		if st := w.vc.McastStats(); st.TreeRecomputes != c.recomputes || st.TreeCacheHits != c.hits {
			t.Fatalf("message %d to %v: %d recomputes / %d hits, want %d/%d", i, c.dests, st.TreeRecomputes, st.TreeCacheHits, c.recomputes, c.hits)
		}
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
// and gw2 at gw1, l0 and l1 at gw2. The pool is stocked with as many as one
// message holds at once; sent one at a time, every header buffer returned is
// a stocked one, so no writer makes its own. Sent back to back, 8 then 32 more
// messages allocate no more buffers. Every returned buffer is poisoned and
// the ledger balances (build).
func TestMulticastHeaderIsHandedOverHopByHop(t *testing.T) {
	dests := []string{"a1", "c0", "l0", "l1"}
	const headers = 6 // a message's headers, each returned once
	for _, c := range []struct {
		name  string
		size  int
		stock int // the most headers a message holds at once
	}{
		{"streaming", 70_000, 3},
		{"compact", 1000, 2},
	} {
		t.Run(c.name, func(t *testing.T) {
			w := build(t, mcastChain(t), fwd.DefaultConfig())
			var stock [][]byte
			returned, foreign := 0, 0
			stock = fwd.StockHeaderBufs(w.vc, c.stock, func(b []byte) {
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
			if returned != msgs*headers || foreign != 0 {
				t.Fatalf("%d header buffers returned for %d headers, %d of them not stocked", returned, msgs*headers, foreign)
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
			if want := (msgs + 8 + 32) * headers; returned != want {
				t.Errorf("%d header buffers returned, want %d", returned, want)
			}
		})
	}
}
