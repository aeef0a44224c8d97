package fwd_test

import (
	"bytes"
	"testing"

	"madgo/internal/fault"
	"madgo/internal/fwd"
	"madgo/internal/mad"
	"madgo/internal/topo"
	"madgo/internal/vtime"
)

// windowWorld is a reliable, coalescing pair with two rails: a0 reaches b0
// through gw1 and through gw2, and its frames ride whichever rail has fewer
// bytes scheduled, so consecutive frames cross different gateways.
func windowWorld(t *testing.T, plan *fault.Plan) *world {
	cfg := stripeCfg(2)
	cfg.Eager = true
	return buildFaulty(t, twoGateways(t), nil, plan, cfg)
}

// sendInOrder sends msgs from src to dst back to back and checks that dst
// unpacks each one, in order and byte for byte, at the size it was packed
// with. sample, if not nil, runs every 20 µs until dst has them all.
func sendInOrder(t *testing.T, w *world, src, dst string, msgs [][]byte, sample func()) {
	t.Helper()
	done := false
	w.sim.Spawn("app-send:"+src, func(p *vtime.Proc) {
		for _, m := range msgs {
			px := w.vc.At(src).BeginPacking(p, dst)
			px.Pack(p, m, mad.SendCheaper, mad.ReceiveCheaper)
			px.EndPacking(p)
		}
	})
	w.sim.Spawn("app-recv:"+dst, func(p *vtime.Proc) {
		for i, m := range msgs {
			got := make([]byte, len(m))
			u := w.vc.At(dst).BeginUnpacking(p)
			u.Unpack(p, got, mad.SendCheaper, mad.ReceiveCheaper)
			u.EndUnpacking(p)
			if !bytes.Equal(got, m) {
				t.Errorf("message %d (%d B) corrupted", i, len(m))
			}
		}
		done = true
	})
	if sample != nil {
		w.sim.Spawn("sample", func(p *vtime.Proc) {
			for !done {
				sample()
				p.Sleep(20 * vtime.Microsecond)
			}
		})
	}
	if err := w.sim.Run(); err != nil {
		t.Fatal(err)
	}
}

// alternating returns n messages of 550 and 657 bytes in turn: a message
// delivered out of order is unpacked at the other size, which the sink's
// mirror check reports as a protocol error.
func alternating(n int) [][]byte {
	msgs := make([][]byte, n)
	for i := range msgs {
		size := 550
		if i%2 == 1 {
			size = 657
		}
		msgs[i] = pattern(size, byte(i))
	}
	return msgs
}

// TestReliableFramesAcrossTwoRailsArriveInOrder: a0's frames to b0 alternate
// between its two rails while one of them is slow — gw1's sends stall 3 ms
// each for the first 40 ms — or loses packets, so a later frame completes at
// b0 before an earlier one. b0 delivers every message in order and byte for
// byte. Without the sink's sequence (every complete message handed to the
// merged queue at once), the stalled case panics with "protocol error:
// packed {657B s=0 r=0}, unpacked {550B …}".
func TestReliableFramesAcrossTwoRailsArriveInOrder(t *testing.T) {
	for _, tc := range []struct {
		name string
		plan *fault.Plan
	}{
		{"gw1 stalled", fault.NewPlan(7).Stall("gw1", 0, 40*vtime.Millisecond, 3*vtime.Millisecond)},
		{"lossy rail", fault.NewPlan(7).Drop("sciA", 0.05)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := windowWorld(t, tc.plan)
			held := 0
			sendInOrder(t, w, "a0", "b0", alternating(120), func() { held = max(held, w.vc.SinkHeld("b0", "a0")) })
			gw1, gw2 := w.vc.Gateway("gw1").Bytes(), w.vc.Gateway("gw2").Bytes()
			if gw1 == 0 || gw2 == 0 {
				t.Errorf("frames rode one rail: gw1 relayed %d bytes, gw2 %d", gw1, gw2)
			}
			if held == 0 {
				t.Error("no frame completed ahead of an earlier one: the test reorders nothing")
			}
			t.Logf("gw1 %d B, gw2 %d B, b0 held up to %d messages back", gw1, gw2, held)
		})
	}
}

// TestReliableFrameWindow: a0 streams small messages to b0 while gw1 stalls,
// so end-to-end acks return slowly and the coalescer's window fills. Up to
// the window's four frames are in flight at once, never more, and b0 never
// holds more than three complete messages of a0 back for order.
func TestReliableFrameWindow(t *testing.T) {
	w := windowWorld(t, fault.NewPlan(3).Stall("gw1", 0, 40*vtime.Millisecond, 3*vtime.Millisecond))
	var inflight, window, held int
	sendInOrder(t, w, "a0", "b0", alternating(200), func() {
		n, win := w.vc.FrameWindow("a0", "b0")
		inflight, window = max(inflight, n), win
		held = max(held, w.vc.SinkHeld("b0", "a0"))
	})
	if window != 4 || inflight != window {
		t.Errorf("at most %d messages in flight with a window of %d; want the window, 4, filled", inflight, window)
	}
	if held < 1 || held > window-1 {
		t.Errorf("b0 held up to %d complete messages back; want 1 to %d", held, window-1)
	}
}

// TestReliableFailoverToDirectKeepsOrder: a1 streams small messages to b1
// through gw, which crashes with frames in flight, and the live route fails
// over to the Ethernet control network, which reaches b1 direct. The frames
// lost with gw wait for their end-to-end resend while a1 goes on sending; b1
// still delivers every message in order, since the pair's messages keep their
// numbers whatever route their packets take.
func TestReliableFailoverToDirectKeepsOrder(t *testing.T) {
	full := topo.PaperTestbed()
	hs, err := full.Restrict("sci0", "myri0")
	if err != nil {
		t.Fatal(err)
	}
	cfg := fwd.DefaultConfig()
	cfg.Eager = true
	w := buildFaulty(t, hs, full, fault.NewPlan(3).Crash("gw", vtime.Time(500*vtime.Microsecond), 0), cfg)
	sendInOrder(t, w, "a1", "b1", alternating(200), nil)
	if ds := w.vc.DeliveryStats(); ds.Failovers == 0 || ds.MessageResends == 0 {
		t.Errorf("%d failovers and %d message resends; want the crash to strand frames in flight", ds.Failovers, ds.MessageResends)
	}
}
