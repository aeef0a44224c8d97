package fwd_test

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"

	"madgo/internal/agg"
	"madgo/internal/flight"
	"madgo/internal/fwd"
	"madgo/internal/mad"
	"madgo/internal/topo"
	"madgo/internal/vtime"
)

// Tests for the eager small-message path (§3.4.1): the compact framing that
// piggybacks the self-description header and the terminator on data
// fragments, and the cross-message coalescer that packs several sub-MTU
// messages into one aggregate frame. The source's sends on the special
// channels (RelayedSends) meter the transfers toward the first gateway. The
// headline elisions — one transfer for a small or an empty message where the
// seed framing spends three and two — are cells of TestFramingTransferTable.

// TestEagerLargeMessageDeliversIntact checks the eager path degrades
// gracefully past the inline limit: a multi-fragment message still arrives
// byte-identical, with the header riding the first fragment and the
// terminator flag the last — F transfers instead of the seed's F+2.
func TestEagerLargeMessageDeliversIntact(t *testing.T) {
	cfg := fwd.DefaultConfig()
	cfg.Eager = true
	w := build(t, paperHS(t), cfg)
	const n = 100_000
	blocks := []block{{pattern(n, 7), mad.SendCheaper, mad.ReceiveCheaper}}
	got, fwded, _ := sendRecv(t, w, "a0", "b1", blocks)
	if !fwded || !bytes.Equal(got[0], blocks[0].data) {
		t.Fatal("large eager message corrupted or not forwarded")
	}
	// The first fragment (a full MTU) is past the inline bound, so the
	// header travels alone; the terminator is still elided: F+1 transfers
	// against the seed's F+2.
	frags := int64((n + cfg.MTU - 1) / cfg.MTU)
	if sent := w.vc.RelayedSends("a0"); sent != frags+1 {
		t.Errorf("large eager message took %d transfers, want %d (header + one per fragment)", sent, frags+1)
	}
}

// TestAggCoalescesBurst drives a back-to-back burst of small messages from
// one sender and checks they cross as aggregate frames — one transfer per
// frame, not per message — and still arrive in order, byte-identical.
func TestAggCoalescesBurst(t *testing.T) {
	cfg := fwd.DefaultConfig()
	cfg.Eager = true
	w := build(t, paperHS(t), cfg)
	const msgs = 12
	const size = 128
	w.sim.Spawn("burst-send", func(p *vtime.Proc) {
		for m := 0; m < msgs; m++ {
			px := w.vc.At("a0").BeginPacking(p, "b1")
			px.Pack(p, pattern(size, byte(m+1)), mad.SendCheaper, mad.ReceiveCheaper)
			px.EndPacking(p)
		}
	})
	w.sim.Spawn("burst-recv", func(p *vtime.Proc) {
		for m := 0; m < msgs; m++ {
			u := w.vc.At("b1").BeginUnpacking(p)
			got := make([]byte, size)
			u.Unpack(p, got, mad.SendCheaper, mad.ReceiveCheaper)
			u.EndUnpacking(p)
			if !bytes.Equal(got, pattern(size, byte(m+1))) {
				t.Errorf("message %d out of order or corrupted", m)
			}
		}
	})
	if err := w.sim.Run(); err != nil {
		t.Fatal(err)
	}
	st := w.vc.AggStats()
	if st.SubMessages != msgs {
		t.Errorf("coalesced %d sub-messages, want %d", st.SubMessages, msgs)
	}
	if st.Frames == 0 || st.Frames >= msgs {
		t.Errorf("burst crossed in %d frames for %d messages; aggregation did not batch", st.Frames, msgs)
	}
	if st.BypassMessages != 0 {
		t.Errorf("%d small messages bypassed the coalescer", st.BypassMessages)
	}
	// One transfer per aggregate frame, however many sub-messages it packs.
	if sent := w.vc.RelayedSends("a0"); sent != st.Frames {
		t.Errorf("burst took %d transfers for %d frames; want one per frame", sent, st.Frames)
	}
}

// TestAggLargeMessageBypasses checks a message too large for an empty frame
// takes the ordinary path and is counted as a bypass, not silently dropped
// or fragmented through the coalescer.
func TestAggLargeMessageBypasses(t *testing.T) {
	cfg := fwd.DefaultConfig()
	cfg.Eager = true
	w := build(t, paperHS(t), cfg)
	blocks := []block{{pattern(100_000, 5), mad.SendCheaper, mad.ReceiveCheaper}}
	got, fwded, _ := sendRecv(t, w, "a0", "b1", blocks)
	if !fwded || !bytes.Equal(got[0], blocks[0].data) {
		t.Fatal("bypassed large message corrupted or not forwarded")
	}
	st := w.vc.AggStats()
	if st.BypassMessages != 1 {
		t.Errorf("BypassMessages = %d, want 1", st.BypassMessages)
	}
	if st.SubMessages != 0 {
		t.Errorf("large message was coalesced (%d sub-messages)", st.SubMessages)
	}
}

// TestAggOrderingAcrossBypass is the ordering contract between the two
// paths: small, large, small from one sender must arrive in exactly that
// order: the large message waits for the frame that carries the first small
// one, and the second small one for the large message. (Which of the daemon
// and the large message flushes the first frame is not part of the contract:
// with the path free the daemon has it on the wire before the large message
// is packed.)
func TestAggOrderingAcrossBypass(t *testing.T) {
	cfg := fwd.DefaultConfig()
	cfg.Eager = true
	w := build(t, paperHS(t), cfg)
	sizes := []int{200, 100_000, 300}
	w.sim.Spawn("mix-send", func(p *vtime.Proc) {
		for m, n := range sizes {
			px := w.vc.At("a0").BeginPacking(p, "b1")
			px.Pack(p, pattern(n, byte(m+1)), mad.SendCheaper, mad.ReceiveCheaper)
			px.EndPacking(p)
		}
	})
	w.sim.Spawn("mix-recv", func(p *vtime.Proc) {
		for m, n := range sizes {
			u := w.vc.At("b1").BeginUnpacking(p)
			got := make([]byte, n)
			u.Unpack(p, got, mad.SendCheaper, mad.ReceiveCheaper)
			u.EndUnpacking(p)
			if !bytes.Equal(got, pattern(n, byte(m+1))) {
				t.Errorf("message %d (%d bytes) out of order or corrupted", m, n)
			}
		}
	})
	if err := w.sim.Run(); err != nil {
		t.Fatal(err)
	}
	st := w.vc.AggStats()
	if st.BypassMessages != 1 || st.SubMessages != 2 || st.Frames < 2 {
		t.Errorf("stats %+v, want 2 coalesced in a frame each and 1 bypassed", st)
	}
}

// TestAggLoneMessageLeavesAtOnce pins the latency bound: a lone small message
// waits for nothing. The path is free, so its frame is sealed the instant it
// is packed — one idle frame — and its one wire transfer starts at that same
// instant.
func TestAggLoneMessageLeavesAtOnce(t *testing.T) {
	cfg := fwd.DefaultConfig()
	cfg.Eager = true
	w := build(t, paperHS(t), cfg)
	rec := flight.NewRecorder(0)
	w.sess.Platform.SetFlight(rec)
	var packed vtime.Time
	w.sim.Spawn("lone-send", func(p *vtime.Proc) {
		px := w.vc.At("a0").BeginPacking(p, "b1")
		px.Pack(p, pattern(64, 9), mad.SendCheaper, mad.ReceiveCheaper)
		px.EndPacking(p)
		packed = p.Now()
	})
	w.sim.Spawn("lone-recv", func(p *vtime.Proc) {
		u := w.vc.At("b1").BeginUnpacking(p)
		got := make([]byte, 64)
		u.Unpack(p, got, mad.SendCheaper, mad.ReceiveCheaper)
		u.EndUnpacking(p)
		if !bytes.Equal(got, pattern(64, 9)) {
			t.Error("lone message corrupted")
		}
	})
	if err := w.sim.Run(); err != nil {
		t.Fatal(err)
	}
	if st := w.vc.AggStats(); st.Frames != 1 || st.IdleFlushes != 1 {
		t.Errorf("stats %+v, want one frame, flushed because the path was free", st)
	}
	var sealed, started []vtime.Time
	for _, e := range rec.Ring("a0").Snapshot() {
		switch e.Kind {
		case flight.KindAggFlush:
			sealed = append(sealed, e.At)
		case flight.KindWire:
			started = append(started, e.At.Add(-e.Dur))
		}
	}
	if len(sealed) != 1 || sealed[0] != packed {
		t.Errorf("frames sealed at %v, want one at %v, when the message was packed", sealed, packed)
	}
	if len(started) != 1 || started[0] != packed {
		t.Errorf("wire transfers started at %v, want one at %v, when the message was packed", started, packed)
	}
}

// TestAggReliableBurst composes aggregation with the reliable engine: the
// whole frame is one ARQ sequence, and a large message interleaved into the
// burst keeps its place in the sender's order.
func TestAggReliableBurst(t *testing.T) {
	cfg := fwd.DefaultConfig()
	cfg.Reliable = true
	cfg.Eager = true
	w := build(t, paperHS(t), cfg)
	sizes := []int{100, 250, 60_000, 90, 400}
	w.sim.Spawn("rel-send", func(p *vtime.Proc) {
		for m, n := range sizes {
			px := w.vc.At("a0").BeginPacking(p, "b1")
			px.Pack(p, pattern(n, byte(m+1)), mad.SendCheaper, mad.ReceiveCheaper)
			px.EndPacking(p)
		}
	})
	w.sim.Spawn("rel-recv", func(p *vtime.Proc) {
		for m, n := range sizes {
			u := w.vc.At("b1").BeginUnpacking(p)
			got := make([]byte, n)
			u.Unpack(p, got, mad.SendCheaper, mad.ReceiveCheaper)
			u.EndUnpacking(p)
			if !bytes.Equal(got, pattern(n, byte(m+1))) {
				t.Errorf("reliable message %d (%d bytes) out of order or corrupted", m, n)
			}
		}
	})
	if err := w.sim.Run(); err != nil {
		t.Fatal(err)
	}
	st := w.vc.AggStats()
	if st.SubMessages != 4 || st.BypassMessages != 1 {
		t.Errorf("stats %+v, want 4 coalesced and 1 bypassed", st)
	}
}

// TestAggStripedFrame checks a frame that clears the striping threshold is
// carried by the multi-rail path and still decoalesces at the sink: the two
// subsystems compose instead of the aggregate flag being lost on a rail.
func TestAggStripedFrame(t *testing.T) {
	cfg := fwd.DefaultConfig()
	cfg.StripeK = 2
	cfg.Eager = true
	tp := railsTopo([]string{"sci", "myrinet", "myrinet", "sci"}, []bool{true, true})
	w := auditRelBufs(t, buildQuietFaulty(tp, nil, cfg))
	const msgs = 40 // a frame of them clears the 16 KiB stripe threshold
	const size = 1400
	w.sim.Spawn("stripe-send", func(p *vtime.Proc) {
		for m := 0; m < msgs; m++ {
			px := w.vc.At("a").BeginPacking(p, "b")
			px.Pack(p, pattern(size, byte(m+1)), mad.SendCheaper, mad.ReceiveCheaper)
			px.EndPacking(p)
		}
	})
	w.sim.Spawn("stripe-recv", func(p *vtime.Proc) {
		for m := 0; m < msgs; m++ {
			u := w.vc.At("b").BeginUnpacking(p)
			got := make([]byte, size)
			u.Unpack(p, got, mad.SendCheaper, mad.ReceiveCheaper)
			u.EndUnpacking(p)
			if !bytes.Equal(got, pattern(size, byte(m+1))) {
				t.Errorf("striped sub-message %d out of order or corrupted", m)
			}
		}
	})
	if err := w.sim.Run(); err != nil {
		t.Fatal(err)
	}
	st := w.vc.AggStats()
	if st.SubMessages != msgs {
		t.Errorf("coalesced %d sub-messages, want %d", st.SubMessages, msgs)
	}
	if w.vc.StripeStats().Messages == 0 {
		t.Error("aggregate frame above the stripe threshold was not striped")
	}
}

// TestAggDeliveryProperty is the composition property: for random mixes of
// small and large messages from one or two senders, across plain, reliable
// and striped transports, with the eager path on or off, every message
// arrives byte-identical and in its sender's order, and small messages
// coalesce exactly when it is on.
func TestAggDeliveryProperty(t *testing.T) {
	f := func(seed uint64) bool {
		next := xorshift(seed)
		striped := next(2) == 0
		reliable := next(2) == 0
		eager := next(2) == 0

		cfg := fwd.DefaultConfig()
		cfg.Reliable = reliable
		cfg.Eager = eager
		var tp *topo.Topology
		var senders []string
		var dst string
		if striped {
			cfg.StripeK = 2
			tp = railsTopo([]string{"sci", "myrinet", "myrinet", "sci"}, []bool{true, true})
			senders, dst = []string{"a"}, "b"
		} else {
			tp = paperHS(t)
			senders, dst = []string{"a0", "a1"}, "b1"
		}
		w := auditRelBufs(t, buildQuietFaulty(tp, nil, cfg))

		// The coalescer admits a message while its lone sub-message entry
		// fits an empty frame: header + entry overhead + payload under the
		// path MTU minus the GTM header.
		limit := cfg.MTU - 20
		type planned struct {
			sizes []int
			seeds []byte
		}
		plan := make(map[string]*planned, len(senders))
		total, smalls, larges := 0, 0, 0
		for si, name := range senders {
			pl := &planned{}
			m := 1 + int(next(8))
			for mi := 0; mi < m; mi++ {
				size := 1 + int(next(2048))
				if next(4) == 0 {
					size = 40_000 + int(next(80_000)) // never fits an empty frame
				}
				if agg.HeaderLen+agg.SubSizeParts(1, size) <= limit {
					smalls++
				} else {
					larges++
				}
				pl.sizes = append(pl.sizes, size)
				pl.seeds = append(pl.seeds, byte(si*101+mi*17+1))
			}
			plan[name] = pl
			total += m
		}

		for _, name := range senders {
			name := name
			pl := plan[name]
			w.sim.Spawn("prop-send:"+name, func(p *vtime.Proc) {
				for mi, size := range pl.sizes {
					px := w.vc.At(name).BeginPacking(p, dst)
					px.Pack(p, pattern(size, pl.seeds[mi]), mad.SendCheaper, mad.ReceiveCheaper)
					px.EndPacking(p)
				}
			})
		}
		okDelivery := true
		received := make(map[string]int, len(senders))
		w.sim.Spawn("prop-recv:"+dst, func(p *vtime.Proc) {
			for i := 0; i < total; i++ {
				u := w.vc.At(dst).BeginUnpacking(p)
				from := w.sess.Node(u.From()).Name
				pl := plan[from]
				if pl == nil || received[from] >= len(pl.sizes) {
					okDelivery = false
					t.Logf("seed %d: unexpected message from %s", seed, from)
					return
				}
				mi := received[from]
				got := make([]byte, pl.sizes[mi])
				u.Unpack(p, got, mad.SendCheaper, mad.ReceiveCheaper)
				u.EndUnpacking(p)
				if !bytes.Equal(got, pattern(pl.sizes[mi], pl.seeds[mi])) {
					okDelivery = false
					t.Logf("seed %d: message %d from %s out of order or corrupted", seed, mi, from)
					return
				}
				received[from]++
			}
		})
		cell := fmt.Sprintf("striped %v rel %v eager %v smalls %d larges %d",
			striped, reliable, eager, smalls, larges)
		if err := w.sim.Run(); err != nil {
			t.Logf("seed %d (%s): %v", seed, cell, err)
			return false
		}
		if !okDelivery {
			t.Logf("seed %d (%s): delivery check failed", seed, cell)
			return false
		}
		for name, pl := range plan {
			if received[name] != len(pl.sizes) {
				t.Logf("seed %d (%s): sender %s delivered %d of %d", seed, cell, name, received[name], len(pl.sizes))
				return false
			}
		}
		st := w.vc.AggStats()
		if eager {
			if int(st.SubMessages) != smalls || int(st.BypassMessages) != larges {
				t.Logf("seed %d (%s): stats %+v, want %d coalesced / %d bypassed",
					seed, cell, st, smalls, larges)
				return false
			}
		} else if st.SubMessages != 0 || st.Frames != 0 {
			t.Logf("seed %d (%s): aggregation off but stats %+v", seed, cell, st)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestAggIncastWithManySenders reruns the 64-sender incast wall cell with
// the eager+aggregation path armed: the c1 contention gate must hold with
// coalescing in the loop.
func TestAggIncastWithManySenders(t *testing.T) {
	cfg := fwd.DefaultConfig()
	cfg.Eager = true
	runWall(t, wallCase{name: "star-64-agg", topo: starTopo, senders: 64, cfg: cfg})
}

// TestAggPackOverlapsFlush is the sender's half of the pipeline: the daemon
// sends frame k without the coalescer's lock, so the stream's sender packs
// frame k+1 meanwhile and is parked only when that one is full. With a 1 KiB
// MTU a frame holds fourteen 64 B messages and takes longer to send than to
// pack: the first frame leaves with the one message there is, every later one
// full, the sender waits only as it opens a new frame, and the stream is on
// the wire sooner than packing and sending in turn would have it there.
func TestAggPackOverlapsFlush(t *testing.T) {
	const (
		size, perFrame, frames = 64, 14, 40
		msgs                   = 1 + perFrame*(frames-1)
	)
	cfg := fwd.DefaultConfig()
	cfg.Eager, cfg.MTU = true, 1024
	w := build(t, paperHS(t), cfg)
	rec := flight.NewRecorder(4 * msgs)
	w.sess.Platform.SetFlight(rec)
	took := make([]vtime.Duration, msgs) // BeginPacking to EndPacking
	data := pattern(size, 3)
	w.sim.Spawn("overlap-send", func(p *vtime.Proc) {
		for i := range took {
			t0 := p.Now()
			px := w.vc.At("a0").BeginPacking(p, "b1")
			px.Pack(p, data, mad.SendCheaper, mad.ReceiveCheaper)
			px.EndPacking(p)
			took[i] = p.Now().Sub(t0)
		}
	})
	w.sim.Spawn("overlap-recv", func(p *vtime.Proc) {
		got := make([]byte, size)
		for i := 0; i < msgs; i++ {
			u := w.vc.At("b1").BeginUnpacking(p)
			u.Unpack(p, got, mad.SendCheaper, mad.ReceiveCheaper)
			u.EndUnpacking(p)
			if !bytes.Equal(got, data) {
				t.Errorf("message %d corrupted", i)
			}
		}
	})
	if err := w.sim.Run(); err != nil {
		t.Fatal(err)
	}

	limit := cfg.MTU - 20 // the GTM header
	// An entry is its length, ID delta, block count, block size and modes in
	// a byte each, and the payload; a frame's first holds its ID whole, in two
	// bytes from message 64 on.
	const entry = 5 + size
	var flens []int
	var sendSum vtime.Duration
	var lastSent vtime.Time
	for _, e := range rec.Ring("a0").Snapshot() {
		switch e.Kind {
		case flight.KindAggFlush:
			flens = append(flens, int(e.Bytes))
		case flight.KindWire:
			sendSum += e.Dur
			lastSent = e.At
		}
	}
	if len(flens) != frames || flens[0] != agg.HeaderLen+entry {
		t.Fatalf("frames of %v bytes, want %d, the first of one message", flens, frames)
	}
	for k, n := range flens[1:] {
		if full := agg.HeaderLen + perFrame*entry; n != full && n != full+1 {
			t.Errorf("frame %d left with %d bytes, want %d messages and %d or %d: %d more would fit under %d",
				k+2, n, perFrame, full, full+1, (limit-n)/entry, limit)
		}
	}
	parked := 0
	for i, d := range took {
		if d == took[0] {
			continue
		}
		parked++
		if i < 1+perFrame || (i-1)%perFrame != 0 {
			t.Errorf("message %d took %v to pack, not the %v of an unhindered one, and does not open a frame", i, d, took[0])
		}
	}
	if parked == 0 {
		t.Error("the sender never waited for room: the path was not the bottleneck and the test shows nothing")
	}
	serial := vtime.Duration(msgs)*took[0] + sendSum
	t.Logf("%d messages in %d frames: packing %v, sending %v, on the wire after %v (in turn: %v); sender parked %d times",
		msgs, frames, vtime.Duration(msgs)*took[0], sendSum, lastSent, serial, parked)
	if vtime.Duration(lastSent) > serial-vtime.Duration(msgs)*took[0]/2 {
		t.Errorf("stream on the wire after %v, want at least half the packing hidden behind the sends (%v in turn)", lastSent, serial)
	}
}

// TestSinkReceivesOneFrameAhead is the sink's half of the pipeline and its
// bound. The polling thread receives the frame behind the one the application
// is draining, so a receiver that stops mid-frame holds exactly two — and no
// more, whatever the sender has ready: the thread's permit comes back only as
// the application takes a frame off the queue, the path behind it fills up
// and the sender parks. When the receiver resumes, everything arrives, in
// order.
func TestSinkReceivesOneFrameAhead(t *testing.T) {
	const msgs, size = 12000, 64 // twenty-five full frames of a 32 KiB MTU
	cfg := fwd.DefaultConfig()
	cfg.Eager = true
	w := build(t, paperHS(t), cfg)
	sent := 0
	w.sim.Spawn("ahead-send", func(p *vtime.Proc) {
		for ; sent < msgs; sent++ {
			px := w.vc.At("a0").BeginPacking(p, "b1")
			px.Pack(p, pattern(size, byte(sent)), mad.SendCheaper, mad.ReceiveCheaper)
			px.EndPacking(p)
		}
	})
	recv := func(p *vtime.Proc, i int) {
		u := w.vc.At("b1").BeginUnpacking(p)
		got := make([]byte, size)
		u.Unpack(p, got, mad.SendCheaper, mad.ReceiveCheaper)
		u.EndUnpacking(p)
		if !bytes.Equal(got, pattern(size, byte(i))) {
			t.Errorf("message %d corrupted or out of order", i)
		}
	}
	w.sim.Spawn("ahead-recv", func(p *vtime.Proc) {
		// The first frame is the first message alone; the second message
		// opens the second frame, which then stays half drained.
		recv(p, 0)
		recv(p, 1)
		var frames [2]int64
		var parkedAt [2]int
		for i := range frames {
			p.Sleep(50 * vtime.Millisecond)
			draining, ahead := fwd.SinkFrames(w.vc, "b1")
			if !draining || ahead != 1 {
				t.Errorf("stalled receiver: draining a frame %v, %d queued ahead of it; want true and exactly 1", draining, ahead)
			}
			frames[i], parkedAt[i] = w.vc.AggStats().Frames, sent
		}
		if frames[0] != frames[1] || parkedAt[0] != parkedAt[1] || parkedAt[0] == msgs {
			t.Errorf("sender not parked behind the stalled sink: %d then %d frames flushed, %d then %d of %d messages packed",
				frames[0], frames[1], parkedAt[0], parkedAt[1], msgs)
		}
		t.Logf("stalled mid-frame: the sink holds two frames, the sender parked after %d frames and %d of %d messages", frames[0], parkedAt[0], msgs)
		for i := 2; i < msgs; i++ {
			recv(p, i)
		}
	})
	if err := w.sim.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestSinkReturnsDrainedFrames: a frame goes back to the wire pool when the
// last of its sub-messages is ended, not when the sink's reader runs dry. With
// a 620-byte MTU a frame holds eight 64 B messages; two processes on b1
// unpack at once, the second 10 µs slower a message, so it is still to copy
// its sub-message out of a frame when the other has drained the rest. Every
// returned frame is poisoned (auditRelBufs): a frame given back too early is
// read as 0xDB garbage. Every message arrives once, byte-exact, and every
// buffer taken is returned.
func TestSinkReturnsDrainedFrames(t *testing.T) {
	const msgs, size = 1 + 8*20, 64
	cfg := fwd.DefaultConfig()
	cfg.Eager, cfg.MTU = true, 620
	w := build(t, paperHS(t), cfg)
	w.sim.Spawn("drained-send", func(p *vtime.Proc) {
		for i := 0; i < msgs; i++ {
			px := w.vc.At("a0").BeginPacking(p, "b1")
			px.Pack(p, pattern(size, byte(i)), mad.SendCheaper, mad.ReceiveCheaper)
			px.EndPacking(p)
		}
	})
	var seen [msgs]int
	var took [2]int
	for r := 0; r < 2; r++ {
		// Daemons: each takes whatever the sink has next, for ever.
		w.sim.SpawnDaemon(fmt.Sprintf("drained-recv:%d", r), func(p *vtime.Proc) {
			got := make([]byte, size)
			for {
				u := w.vc.At("b1").BeginUnpacking(p)
				if r == 1 {
					p.Sleep(10 * vtime.Microsecond) // out of step with the other process
				}
				u.Unpack(p, got, mad.SendCheaper, mad.ReceiveCheaper)
				u.EndUnpacking(p)
				if i := int(got[0]); i >= msgs || !bytes.Equal(got, pattern(size, got[0])) {
					t.Errorf("process %d unpacked garbage: % x...", r, got[:8])
				} else {
					seen[i]++
					took[r]++
				}
			}
		})
	}
	if err := w.sim.Run(); err != nil {
		t.Fatal(err)
	}
	for i, n := range seen {
		if n != 1 {
			t.Errorf("message %d delivered %d times", i, n)
		}
	}
	st, bk := w.vc.AggStats(), w.vc.RelBookkeeping()
	if st.SubMessages != msgs || st.SizeFlushes < 10 {
		t.Errorf("stats %+v: want %d coalesced, most frames full", st, msgs)
	}
	if bk.BufsTaken != bk.BufsReturned || bk.BufsTaken < st.Frames {
		t.Errorf("wire buffer ledger: %d taken, %d returned, for %d frames", bk.BufsTaken, bk.BufsReturned, st.Frames)
	}
	if took[0] < 10 || took[1] < 10 {
		t.Errorf("the processes took %d and %d messages: they did not unpack side by side", took[0], took[1])
	}
	t.Logf("%d frames (%d full) through a free list of %d buffers, %d and %d messages a process", st.Frames, st.SizeFlushes, bk.BufsFree, took[0], took[1])
}

// TestSinkSharesAFrameWithAParkedProcess: two ordinary processes of b1
// unpack one frame's sixteen sub-messages, eight each. Whichever takes the
// frame off the arrival queue finds the other parked there, and wakes it to
// share the frame; without that the other stays parked with the sub-messages
// it is owed in memory, and the run ends in a deadlock that names it. The
// first message leaves alone, and the first process takes it first.
func TestSinkSharesAFrameWithAParkedProcess(t *testing.T) {
	const coalesced, size = 16, 64
	cfg := fwd.DefaultConfig()
	cfg.Eager = true
	w := build(t, paperHS(t), cfg)
	w.sim.Spawn("share-send", func(p *vtime.Proc) {
		for i := 0; i <= coalesced; i++ {
			px := w.vc.At("a0").BeginPacking(p, "b1")
			px.Pack(p, pattern(size, byte(i)), mad.SendCheaper, mad.ReceiveCheaper)
			px.EndPacking(p)
		}
	})
	var seen [1 + coalesced]int
	for r, n := range []int{1 + coalesced/2, coalesced / 2} {
		w.sim.Spawn(fmt.Sprintf("share-recv:%d", r), func(p *vtime.Proc) {
			got := make([]byte, size)
			for range n {
				u := w.vc.At("b1").BeginUnpacking(p)
				u.Unpack(p, got, mad.SendCheaper, mad.ReceiveCheaper)
				u.EndUnpacking(p)
				if i := int(got[0]); i > coalesced || !bytes.Equal(got, pattern(size, got[0])) {
					t.Errorf("process %d unpacked garbage: % x...", r, got[:8])
				} else {
					seen[i]++
				}
			}
		})
	}
	if err := w.sim.Run(); err != nil {
		t.Fatal(err)
	}
	for i, n := range seen {
		if n != 1 {
			t.Errorf("message %d delivered %d times", i, n)
		}
	}
	if st := w.vc.AggStats(); st.Frames != 2 || st.SubMessages != 1+coalesced {
		t.Errorf("stats %+v, want the first message alone and the other %d in one frame", st, coalesced)
	}
}

// TestAggOrderAcrossPathsWithPrefetchingSink sends small, large, small, …
// from two senders at once through each transport a frame can take — one
// compact transfer, one reliable message, and two rails for what is past the
// stripe threshold — to a sink whose polling thread runs ahead of it. Small
// messages ride frames, large ones go around the coalescer as streams on the
// same gateway link, and every message must arrive byte-exact and in its
// sender's order.
func TestAggOrderAcrossPathsWithPrefetchingSink(t *testing.T) {
	var msgs []relayMsg
	for i := 0; i < 8; i++ {
		msgs = append(msgs, relayMsg{[]string{"b"}, 64 + i}, relayMsg{[]string{"b"}, 70_000 + 9000*i},
			relayMsg{[]string{"b"}, 900}, relayMsg{[]string{"b"}, 200}, relayMsg{[]string{"b"}, 33_000})
	}
	oneRail, err := topo.NewBuilder().Network("sci0", "sci").Network("myri0", "myrinet").
		Node("a", "sci0").Node("a2", "sci0").Node("gw", "sci0", "myri0").Node("b", "myri0").Build()
	if err != nil {
		t.Fatal(err)
	}
	twoRails, err := topo.NewBuilder().
		Network("r0a", "sci").Network("r0b", "myrinet").Network("r1a", "myrinet").Network("r1b", "sci").
		Node("a", "r0a", "r1a").Node("a2", "r0a", "r1a").
		Node("g0", "r0a", "r0b").Node("g1", "r1a", "r1b").Node("b", "r0b", "r1b").Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		tp   *topo.Topology
		tune func(*fwd.Config)
	}{
		{"streaming", oneRail, func(*fwd.Config) {}},
		{"reliable", oneRail, func(c *fwd.Config) { c.Reliable = true }},
		{"two rails", twoRails, func(c *fwd.Config) { c.StripeK = 2 }},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := fwd.DefaultConfig()
			cfg.Eager = true
			c.tune(&cfg)
			w := build(t, c.tp, cfg)
			runSequence(t, w, []string{"a", "a2"}, msgs)
			if st := w.vc.AggStats(); st.SubMessages != 2*3*8 || st.BypassMessages != 2*2*8 {
				t.Errorf("stats %+v, want %d coalesced and %d around the coalescer", st, 2*3*8, 2*2*8)
			}
			if c.name == "two rails" && w.vc.StripeStats().Messages == 0 {
				t.Error("nothing rode the rails")
			}
		})
	}
}

// TestSinkFrameWaitsBehindUnopenedStream is why the polling thread's permit
// covers every forwarded stream and not frames alone. With a 1 KiB MTU a
// 990 B message is too large for a frame and small enough to cross as one
// transfer that lands in the sink's driver memory; the frame behind it on the
// gateway's link is announced while the application, busy elsewhere, has not
// opened the message. Received then, the frame would be read from the other
// message's bytes. The thread waits until the application has the stream.
func TestSinkFrameWaitsBehindUnopenedStream(t *testing.T) {
	cfg := fwd.DefaultConfig()
	cfg.Eager, cfg.MTU = true, 1024
	w := build(t, paperHS(t), cfg)
	sizes := []int{64, 990, 64, 100, 990, 990, 64}
	w.sim.Spawn("behind-send", func(p *vtime.Proc) {
		for i, n := range sizes {
			px := w.vc.At("a0").BeginPacking(p, "b1")
			px.Pack(p, pattern(n, byte(i)), mad.SendCheaper, mad.ReceiveCheaper)
			px.EndPacking(p)
		}
	})
	w.sim.Spawn("behind-recv", func(p *vtime.Proc) {
		p.Sleep(5 * vtime.Millisecond) // everything is at the sink's door by then
		for i, n := range sizes {
			u := w.vc.At("b1").BeginUnpacking(p)
			got := make([]byte, n)
			u.Unpack(p, got, mad.SendCheaper, mad.ReceiveCheaper)
			u.EndUnpacking(p)
			if !bytes.Equal(got, pattern(n, byte(i))) {
				t.Errorf("message %d (%d bytes) out of order or corrupted", i, n)
			}
		}
	})
	if err := w.sim.Run(); err != nil {
		t.Fatal(err)
	}
	if st := w.vc.AggStats(); st.SubMessages != 4 || st.BypassMessages != 3 {
		t.Errorf("stats %+v, want 4 coalesced and 3 around the coalescer", st)
	}
}

// TestSinkPollsOncePerFrame is what a sub-message costs the sink: PollCost is
// a probe of the networks, so the call that takes a frame off the arrival
// queue pays it and the calls that read the frame's other sub-messages, which
// are in memory, pay none. The first message leaves alone, the sixteen packed
// while it is on the wire leave as the second frame, and the polling thread
// has that one waiting when the application comes back for it: sixteen
// messages in one poll and sixteen copies.
func TestSinkPollsOncePerFrame(t *testing.T) {
	const coalesced, size = 16, 64
	cfg := fwd.DefaultConfig()
	cfg.Eager = true
	w := build(t, paperHS(t), cfg)
	w.sim.Spawn("poll-send", func(p *vtime.Proc) {
		for i := 0; i <= coalesced; i++ {
			px := w.vc.At("a0").BeginPacking(p, "b1")
			px.Pack(p, pattern(size, byte(i)), mad.SendCheaper, mad.ReceiveCheaper)
			px.EndPacking(p)
		}
	})
	var begin, rest [1 + coalesced]vtime.Duration // BeginUnpacking; Unpack and EndUnpacking
	w.sim.Spawn("poll-recv", func(p *vtime.Proc) {
		got := make([]byte, size)
		for i := range begin {
			if i < 2 {
				p.Sleep(vtime.Millisecond) // the frame is received and queued by then
			}
			t0 := p.Now()
			u := w.vc.At("b1").BeginUnpacking(p)
			t1 := p.Now()
			u.Unpack(p, got, mad.SendCheaper, mad.ReceiveCheaper)
			u.EndUnpacking(p)
			begin[i], rest[i] = t1.Sub(t0), p.Now().Sub(t1)
			if !bytes.Equal(got, pattern(size, byte(i))) {
				t.Errorf("message %d corrupted or out of order", i)
			}
		}
	})
	if err := w.sim.Run(); err != nil {
		t.Fatal(err)
	}
	if st := w.vc.AggStats(); st.Frames != 2 || st.SubMessages != 1+coalesced {
		t.Fatalf("stats %+v, want the first message alone and the other %d in one frame", st, coalesced)
	}
	poll := w.vc.At("b1").Node().Host.CPU.PollCost
	var total vtime.Duration
	for i := 1; i <= coalesced; i++ {
		total += begin[i] + rest[i]
	}
	if begin[0] != poll || begin[1] != poll {
		t.Errorf("taking a frame off the arrival queue cost %v and %v, want one poll, %v", begin[0], begin[1], poll)
	}
	if want := poll + coalesced*rest[0]; total != want {
		t.Errorf("a frame of %d messages was unpacked in %v, want %v: one poll and %d copies of %v (BeginUnpacking took %v)",
			coalesced, total, want, coalesced, rest[0], begin[1:])
	}
}

// TestSinkOnTwoNetworksKeepsArrivalOrder: a sink behind two gateways takes
// its arrivals in the order its polling threads queued them, a frame's
// sub-messages before whatever is queued behind the frame — whether or not it
// polls for them. Each sender's first message leaves alone and the eight
// behind it as one frame, which the sink's thread on that network receives
// once the application has taken the first; the application rests while both
// second frames are queued, and again half-way through the first of them.
func TestSinkOnTwoNetworksKeepsArrivalOrder(t *testing.T) {
	const coalesced, size = 8, 64
	tp, err := topo.NewBuilder().
		Network("sci0", "sci").Network("myri0", "myrinet").Network("myri1", "myrinet").Network("sci1", "sci").
		Node("a", "sci0").Node("g0", "sci0", "myri0").
		Node("c", "myri1").Node("g1", "myri1", "sci1").
		Node("b", "myri0", "sci1").Build()
	if err != nil {
		t.Fatal(err)
	}
	cfg := fwd.DefaultConfig()
	cfg.Eager = true
	w := build(t, tp, cfg)
	for _, from := range []string{"a", "c"} {
		w.sim.Spawn("order-send:"+from, func(p *vtime.Proc) {
			for i := 0; i <= coalesced; i++ {
				px := w.vc.At(from).BeginPacking(p, "b")
				px.Pack(p, pattern(size, byte(i)), mad.SendCheaper, mad.ReceiveCheaper)
				px.EndPacking(p)
			}
		})
	}
	var order []byte
	w.sim.Spawn("order-recv", func(p *vtime.Proc) {
		seq := map[string]int{}
		got := make([]byte, size)
		for i := 0; i < 2*(1+coalesced); i++ {
			if i == 0 || i == 2 || i == 2+coalesced/2 {
				p.Sleep(vtime.Millisecond)
			}
			u := w.vc.At("b").BeginUnpacking(p)
			u.Unpack(p, got, mad.SendCheaper, mad.ReceiveCheaper)
			u.EndUnpacking(p)
			from := w.sess.Node(u.From()).Name
			if !bytes.Equal(got, pattern(size, byte(seq[from]))) {
				t.Errorf("arrival %d, from %s, corrupted or out of its sender's order", i, from)
			}
			seq[from]++
			order = append(order, from[0])
		}
	})
	if err := w.sim.Run(); err != nil {
		t.Fatal(err)
	}
	if st := w.vc.AggStats(); st.Frames != 4 || st.SubMessages != 2*(1+coalesced) {
		t.Fatalf("stats %+v, want each sender's first message alone and its other %d in one frame", st, coalesced)
	}
	// c's second frame, on the faster path, is queued ahead of a's.
	if want := "ac" + "cccccccc" + "aaaaaaaa"; string(order) != want {
		t.Errorf("arrivals taken in the order %s, want %s", order, want)
	}
}
