package fwd_test

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"madgo/internal/drivers/bip"
	"madgo/internal/drivers/sisci"
	"madgo/internal/fwd"
	"madgo/internal/hw"
	"madgo/internal/mad"
	"madgo/internal/topo"
	"madgo/internal/trace"
	"madgo/internal/vtime"
)

// The gateway pipeline runs per direction, not per message (§2.2.2: "one
// thread receives packet k+1 while the other retransmits packet k"): the relay
// thread goes back to its announcements when a message's last fragment is
// queued on the egress link's sender. Back-to-back single-fragment messages
// therefore cost one pipeline period each, not a receive plus a send: the
// parent of this test's commit read 844 µs a message here, receive and send
// strictly in turn.
func TestRelayOverlapsAcrossMessages(t *testing.T) {
	const msgs, size = 200, 16 * 1024
	tr := trace.New()
	cfg := fwd.DefaultConfig()
	cfg.Tracer = tr
	w := build(t, paperHS(t), cfg)
	var done vtime.Time
	spawnStream(t, w, "a0", "b1", pattern(size, 3), msgs, &done)
	if err := w.sim.Run(); err != nil {
		t.Fatal(err)
	}
	per := vtime.Duration(done) / msgs
	t.Logf("%d x %d B through the gateway: %v a message", msgs, size, per)
	if per > 480*vtime.Microsecond {
		t.Errorf("a relayed 16 KiB message costs %v, want <= 480µs: receive and send do not overlap across messages", per)
	}
	// One fragment a message, so the k-th recv span and the k-th send span
	// belong to message k.
	var recvs, sends []trace.Span
	for _, s := range tr.ByActor("gw:recv:sci0") {
		if s.Op == "recv" {
			recvs = append(recvs, s)
		}
	}
	for _, s := range tr.ByActor("gw:send:myri0") {
		if s.Op == "send" {
			sends = append(sends, s)
		}
	}
	if len(recvs) != msgs || len(sends) != msgs {
		t.Fatalf("%d recv and %d send spans, want %d each", len(recvs), len(sends), msgs)
	}
	for k := 0; k+1 < msgs; k++ {
		if recvs[k+1].T0 >= sends[k].T1 {
			t.Fatalf("recv of message %d starts at %v, after the send of message %d ended at %v",
				k+1, recvs[k+1].T0, k, sends[k].T1)
		}
	}
}

// spawnStream has src send data to dst n times back to back, and dst check
// every copy and note in done when it had the last.
func spawnStream(t *testing.T, w *world, src, dst string, data []byte, n int, done *vtime.Time) {
	w.sim.Spawn("stream-send:"+src, func(p *vtime.Proc) {
		for i := 0; i < n; i++ {
			px := w.vc.At(src).BeginPacking(p, dst)
			px.Pack(p, data, mad.SendCheaper, mad.ReceiveCheaper)
			px.EndPacking(p)
		}
	})
	w.sim.Spawn("stream-recv:"+dst, func(p *vtime.Proc) {
		got := make([]byte, len(data))
		for i := 0; i < n; i++ {
			u := w.vc.At(dst).BeginUnpacking(p)
			u.Unpack(p, got, mad.SendCheaper, mad.ReceiveCheaper)
			u.EndUnpacking(p)
			if !bytes.Equal(got, data) {
				t.Errorf("%s -> %s: message %d corrupted", src, dst, i)
			}
		}
		*done = p.Now()
	})
}

// fanTopo puts one gateway between a sender's network and three others, one
// per buffer-election mode of a static-buffer ingress: dynamic egress (the
// packets ride the ingress slots), static egress (the egress driver's
// buffers), and — for a message leaving on several branches — the plain pool.
func fanTopo(t *testing.T, pIn string) *topo.Topology {
	t.Helper()
	tp, err := topo.NewBuilder().
		Network("in", pIn).Network("myri", "myrinet").Network("sbp", "sbp").Network("sci", "sci").
		Node("a", "in").Node("a2", "in").
		Node("g", "in", "myri", "sbp", "sci").
		Node("m0", "myri").Node("m1", "myri").Node("s0", "sbp").Node("c0", "sci").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

// relayMsg is one message of a back-to-back sequence: to one destination, or
// multicast to several.
type relayMsg struct {
	dsts []string
	size int
}

// runSequence has every listed source send msgs back to back in one run, each
// message stamped with its source and index, and every destination check that
// what it receives from a source arrives byte-exact and in that source's
// order.
func runSequence(t *testing.T, w *world, srcs []string, msgs []relayMsg) {
	t.Helper()
	stamp := func(src string, i, size int) []byte { return pattern(size, src[len(src)-1]+byte(7*i)) }
	var dsts []string // in order of first use: the run is deterministic
	expect := map[string]int{}
	for _, m := range msgs {
		for _, d := range m.dsts {
			if expect[d] == 0 {
				dsts = append(dsts, d)
			}
			expect[d] += len(srcs)
		}
	}
	for _, src := range srcs {
		w.sim.Spawn("seq-send:"+src, func(p *vtime.Proc) {
			for i, m := range msgs {
				var px *fwd.Packing
				if len(m.dsts) > 1 {
					px = w.vc.At(src).BeginMulticast(p, m.dsts...)
				} else {
					px = w.vc.At(src).BeginPacking(p, m.dsts[0])
				}
				px.Pack(p, stamp(src, i, m.size), mad.SendCheaper, mad.ReceiveCheaper)
				px.EndPacking(p)
			}
		})
	}
	for _, dst := range dsts {
		w.sim.Spawn("seq-recv:"+dst, func(p *vtime.Proc) {
			next := map[string]int{} // per source, the index of the message due
			for k := 0; k < expect[dst]; k++ {
				u := w.vc.At(dst).BeginUnpacking(p)
				src := w.sess.Node(u.From()).Name
				i := next[src]
				for !slices.Contains(msgs[i].dsts, dst) {
					i++
				}
				next[src] = i + 1
				got := make([]byte, msgs[i].size)
				u.Unpack(p, got, mad.SendCheaper, mad.ReceiveCheaper)
				u.EndUnpacking(p)
				if !bytes.Equal(got, stamp(src, i, msgs[i].size)) {
					t.Errorf("%s: message %d of %s corrupted or out of order", dst, i, src)
				}
			}
		})
	}
	if err := w.sim.Run(); err != nil {
		t.Fatal(err)
	}
}

// Consecutive messages of one ingress ring leave on different egress links and
// networks while the tails of the earlier ones are still going out: each must
// leave on its own link, whole and in its sender's order — with one slot or
// several, credits or none, one ingress sender or two contending for the ring.
func TestRelayConsecutiveMessagesToDifferentLinks(t *testing.T) {
	msgs := []relayMsg{
		{[]string{"m0"}, 100_000}, {[]string{"c0"}, 70_000}, {[]string{"m1"}, 40_000},
		{[]string{"m0"}, 0}, {[]string{"m0", "m1", "c0"}, 90_000}, {[]string{"c0"}, 1},
		{[]string{"m1"}, 33_000}, {[]string{"m0", "c0"}, 500}, {[]string{"m0"}, 66_000},
	}
	for _, depth := range []int{1, 2, 4} {
		for _, flow := range []bool{false, true} {
			for _, eager := range []bool{false, true} {
				t.Run(fmt.Sprintf("depth%d/flow=%v/eager=%v", depth, flow, eager), func(t *testing.T) {
					cfg := fwd.DefaultConfig()
					cfg.PipelineDepth, cfg.FlowControl, cfg.Eager = depth, flow, eager
					w := build(t, fanTopo(t, "sci"), cfg)
					runSequence(t, w, []string{"a", "a2"}, msgs)
					if fs := w.vc.FlowStats(); fs.CreditsGranted != fs.CreditsSpent {
						t.Errorf("credit ledger unbalanced at quiescence: %d granted, %d spent", fs.CreditsGranted, fs.CreditsSpent)
					}
					if bk := w.vc.RelBookkeeping(); bk.BufsTaken == 0 || bk.BufsTaken != bk.BufsReturned {
						t.Errorf("staging buffers leaked or never taken: %d taken, %d returned", bk.BufsTaken, bk.BufsReturned)
					}
				})
			}
		}
	}
}

// What the egress fence used to guarantee: a whole frame — a message that
// reached the gateway in one transfer — queued behind a streamed message, or
// ahead of one, on the same link is never overtaken. One queue per link holds
// both now, so the order is the queue's; a frame that slipped between a
// stream's fragments would break the receiver's framing, a reordered one its
// per-sender order.
func TestRelayWholeFrameKeepsItsPlace(t *testing.T) {
	var msgs []relayMsg
	for i := 0; i < 6; i++ {
		msgs = append(msgs, relayMsg{[]string{"m0"}, 200}, relayMsg{[]string{"m0"}, 150_000},
			relayMsg{[]string{"m0"}, 64}, relayMsg{[]string{"m0"}, 3000})
	}
	for _, depth := range []int{1, 2} {
		cfg := fwd.DefaultConfig()
		cfg.Eager, cfg.PipelineDepth = true, depth
		w := build(t, fanTopo(t, "sci"), cfg)
		runSequence(t, w, []string{"a"}, msgs)
		if n := w.vc.Gateway("g").Messages(); n != int64(len(msgs)) {
			t.Errorf("depth %d: gateway relayed %d messages, want %d", depth, n, len(msgs))
		}
	}
}

// The link model reads a payload where it lies when the wire delivers it, one
// wire latency after Send returned. A bracketed message's header is a
// wire-pool buffer the gateway hands on as it came and only the final
// receiver returns, so nothing rewrites it while a wire carries it; a staging
// buffer goes back to its pool one swap after its own send, which Build holds
// to at least the wire latency. Both must outlive a wire of 30 µs — five times
// the Myrinet model's send overhead, and the order of the 40 µs swap the
// staging buffers rely on — with one slot or two and mice, whose headers
// follow each other fastest, under the poisoned ledger.
func TestHandedOverHeaderAndStagingOutliveASlowWire(t *testing.T) {
	var msgs []relayMsg
	for i := 0; i < 12; i++ {
		msgs = append(msgs, relayMsg{[]string{"b1"}, 1 + i}, relayMsg{[]string{"b0"}, 0},
			relayMsg{[]string{"b1"}, 3000 + i}, relayMsg{[]string{"b1"}, 64})
	}
	for _, depth := range []int{1, 2} {
		w, err := slowEgress(t, 30*vtime.Microsecond, depth)
		if err != nil {
			t.Fatal(err)
		}
		runSequence(t, w, []string{"a0", "a1"}, msgs)
	}
}

// slowEgress builds paperHS with a 1 KiB MTU, the given ring depth and a
// Myrinet network whose wire takes lat, under the poisoned ledger.
func slowEgress(t *testing.T, lat vtime.Duration, depth int) (*world, error) {
	sim := vtime.New()
	pl := hw.NewPlatform(sim)
	sess := mad.NewSession(pl)
	nic := hw.Myrinet()
	nic.WireLatency = lat
	in, out := sisci.New(), bip.NewWith(nic)
	cfg := fwd.DefaultConfig()
	cfg.PipelineDepth, cfg.MTU = depth, 1024
	vc, err := fwd.Build(sess, paperHS(t), map[string]fwd.Binding{
		"sci0":  {Net: in.NewNetwork(pl, "sci0"), Drv: in},
		"myri0": {Net: out.NewNetwork(pl, "myri0"), Drv: out},
	}, cfg)
	if err != nil {
		return nil, err
	}
	return auditRelBufs(t, &world{sim: sim, sess: sess, vc: vc}), nil
}

// A staging buffer goes back to the channel's pool one swap after its send,
// where the next fragment may take it at once, and the link reads a payload
// one wire latency after its send. A wire exactly as slow as the 40 µs swap
// is read first: 3 KB messages of two senders relayed onto it arrive
// byte-exact through poisoned returns, with one slot or two.
func TestRelayAtTheSwapBound(t *testing.T) {
	var msgs []relayMsg
	for i := 0; i < 24; i++ {
		msgs = append(msgs, relayMsg{[]string{"b1"}, 3000 + i})
	}
	for _, depth := range []int{1, 2} {
		w, err := slowEgress(t, hw.DefaultCPU().SwapOverhead, depth)
		if err != nil {
			t.Fatal(err)
		}
		runSequence(t, w, []string{"a0", "a1"}, msgs)
		if bk := w.vc.RelBookkeeping(); bk.BufsTaken == 0 {
			t.Fatal("the relay took no staging buffer from the pool")
		}
	}
}

// Build rejects a streaming channel whose wire is slower than its nodes'
// buffer switch, naming the network, and accepts one exactly as slow.
func TestBuildRejectsWireSlowerThanTheSwap(t *testing.T) {
	swap := hw.DefaultCPU().SwapOverhead
	if _, err := slowEgress(t, swap+vtime.Nanosecond, 2); err == nil || !strings.Contains(err.Error(), "network myri0") {
		t.Fatalf("a %v wire against a %v swap: Build returned %v, want an error naming myri0", swap+vtime.Nanosecond, swap, err)
	}
	if _, err := slowEgress(t, swap, 2); err != nil {
		t.Fatalf("a wire as slow as the swap rejected: %v", err)
	}
}
