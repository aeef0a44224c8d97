package fwd_test

import (
	"bytes"
	"testing"

	"madgo/internal/fwd"
	"madgo/internal/mad"
	"madgo/internal/vtime"
)

// mustPanic fails the test unless f panics with want.
func mustPanic(t *testing.T, what, want string, f func()) {
	t.Helper()
	defer func() {
		if r := recover(); r != want {
			t.Errorf("%s: panicked with %v, want %q", what, r, want)
		}
	}()
	f()
}

// TestStaleHandlePanics holds the generation rule of the framing records
// (DESIGN.md §43): a record goes back on its channel's free list when its
// message ends and serves the next message of its kind, so the handle of the
// ended message must not reach it. For every framing whose record is reused,
// Pack after EndPacking, a second EndPacking, Unpack after EndUnpacking and a
// second EndUnpacking panic with their messages twice: while the record is
// idle, and while it serves a newer message on the same endpoint — which still
// arrives byte-exact after the recovered panics — and so does a copy of a
// handle, taken before its message ended. A streamed message's sender record
// is not reused; its handle panics all the same.
func TestStaleHandlePanics(t *testing.T) {
	eager := fwd.DefaultConfig()
	eager.Eager = true
	aggregated := eager
	aggregated.Aggregation = true
	aggregated.FlowControl = true
	reliable := fwd.DefaultConfig()
	reliable.Reliable = true
	for _, c := range []struct {
		name     string
		world    func(t *testing.T) *world
		src, dst string
		size     int
		// senderReused: the sender's record is one that is reused.
		senderReused bool
	}{
		{"aggregated", func(t *testing.T) *world { return build(t, paperHS(t), aggregated) }, "a0", "b1", 64, true},
		{"reliable", func(t *testing.T) *world { return build(t, paperHS(t), reliable) }, "a0", "b1", 64, true},
		{"streamed", func(t *testing.T) *world { return build(t, paperHS(t), eager) }, "a0", "b1", 64, false},
		{"striped", func(t *testing.T) *world { return build(t, dualRail(t), stripeCfg(2)) }, "a", "b", 128 << 10, true},
		{"direct", func(t *testing.T) *world { return build(t, paperHS(t), fwd.DefaultConfig()) }, "a0", "a1", 64, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			w := c.world(t)
			first, second := pattern(c.size, 1), pattern(c.size, 2)
			stalePacking := func(p *vtime.Proc, px *fwd.Packing, when string) {
				mustPanic(t, "Pack after EndPacking, "+when, "fwd: Pack after EndPacking", func() {
					px.Pack(p, first, mad.SendCheaper, mad.ReceiveCheaper)
				})
				mustPanic(t, "double EndPacking, "+when, "fwd: double EndPacking", func() { px.EndPacking(p) })
			}
			staleUnpacking := func(p *vtime.Proc, u *fwd.Unpacking, when string) {
				mustPanic(t, "Unpack after EndUnpacking, "+when, "fwd: Unpack after EndUnpacking", func() {
					u.Unpack(p, make([]byte, c.size), mad.SendCheaper, mad.ReceiveCheaper)
				})
				mustPanic(t, "double EndUnpacking, "+when, "fwd: double EndUnpacking", func() { u.EndUnpacking(p) })
			}
			w.sim.Spawn("send", func(p *vtime.Proc) {
				ep := w.vc.At(c.src)
				px := ep.BeginPacking(p, c.dst)
				px.Pack(p, first, mad.SendCheaper, mad.ReceiveCheaper)
				copied := *px
				px.EndPacking(p)
				stalePacking(p, px, "idle")
				stalePacking(p, &copied, "a copy")
				next := ep.BeginPacking(p, c.dst)
				if c.senderReused && !fwd.SharesRecord(px, next) {
					t.Error("the second message's sender did not reuse the first one's record")
				}
				next.Pack(p, second, mad.SendCheaper, mad.ReceiveCheaper)
				stalePacking(p, px, "reused")
				next.EndPacking(p)
			})
			w.sim.Spawn("recv", func(p *vtime.Proc) {
				ep := w.vc.At(c.dst)
				got := make([]byte, c.size)
				u := ep.BeginUnpacking(p)
				u.Unpack(p, got, mad.SendCheaper, mad.ReceiveCheaper)
				copied := *u
				u.EndUnpacking(p)
				if !bytes.Equal(got, first) {
					t.Error("the first message arrived corrupted")
				}
				staleUnpacking(p, u, "idle")
				staleUnpacking(p, &copied, "a copy")
				next := ep.BeginUnpacking(p)
				if !fwd.SharesUnpackRecord(u, next) {
					t.Error("the second message's receiver did not reuse the first one's record")
				}
				staleUnpacking(p, u, "reused")
				clear(got)
				next.Unpack(p, got, mad.SendCheaper, mad.ReceiveCheaper)
				next.EndUnpacking(p)
				if !bytes.Equal(got, second) {
					t.Error("the newer message arrived corrupted after the stale handle's panics")
				}
			})
			if err := w.sim.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
