package fwd_test

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"
	"strings"
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
// handle, taken before its message ended. The streamed rows are the seed
// framing and the eager one under a 4 KiB MTU, whose messages outgrow a frame:
// sharing the header's transfer (streamed) or behind a header that travels
// alone (eager). The multicast row sends to two destinations through the
// gateway, and each checks its Unpacking handles the same way; the two share
// the channel's free list, so a destination's second message may be served
// by the record of the other's first. In the last two rows the second message
// takes another framing than the first, and the one GTM record at each end
// serves both: a multicast to b1 alone, then a unicast stream to it; a striped
// message through the diamond's two gateways, then one below the stripe
// threshold, which streams through one of them.
func TestStaleHandlePanics(t *testing.T) {
	aggregated := fwd.DefaultConfig()
	aggregated.Eager = true
	eager := aggregated
	eager.MTU = 4096
	reliable := fwd.DefaultConfig()
	reliable.Reliable = true
	for _, c := range []struct {
		name     string
		world    func(t *testing.T) *world
		src, dst string
		size     int
		also     []string // the multicast's other destinations; nil for a unicast row
		// The second message: its size when it differs (0: size), and
		// whether it is a unicast message after a multicast.
		nextSize    int
		nextUnicast bool
	}{
		{"aggregated", func(t *testing.T) *world { return build(t, paperHS(t), aggregated) }, "a0", "b1", 64, nil, 0, false},
		{"reliable", func(t *testing.T) *world { return build(t, paperHS(t), reliable) }, "a0", "b1", 64, nil, 0, false},
		{"seed", func(t *testing.T) *world { return build(t, paperHS(t), fwd.DefaultConfig()) }, "a0", "b1", 64, nil, 0, false},
		{"streamed", func(t *testing.T) *world { return build(t, paperHS(t), eager) }, "a0", "b1", 4096 - 20, nil, 0, false},
		{"eager", func(t *testing.T) *world { return build(t, paperHS(t), eager) }, "a0", "b1", 8 << 10, nil, 0, false},
		{"striped", func(t *testing.T) *world { return build(t, dualRail(t), stripeCfg(2)) }, "a", "b", 128 << 10, nil, 0, false},
		{"direct", func(t *testing.T) *world { return build(t, paperHS(t), fwd.DefaultConfig()) }, "a0", "a1", 64, nil, 0, false},
		{"multicast", func(t *testing.T) *world { return build(t, paperHS(t), fwd.DefaultConfig()) }, "a0", "b1", 64, []string{"b0"}, 0, false},
		{"multicast then stream", func(t *testing.T) *world { return build(t, paperHS(t), fwd.DefaultConfig()) }, "a0", "b1", 64, []string{}, 0, true},
		{"striped then below threshold", func(t *testing.T) *world { return build(t, diamond(t), stripeCfg(2)) }, "a", "b", 128 << 10, nil, 4 << 10, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			w := c.world(t)
			nextSize := cmp.Or(c.nextSize, c.size)
			first, second := pattern(c.size, 1), pattern(nextSize, 2)
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
			begin := func(p *vtime.Proc, ep *fwd.Endpoint, unicast bool) *fwd.Packing {
				if c.also != nil && !unicast {
					return ep.BeginMulticast(p, append([]string{c.dst}, c.also...)...)
				}
				return ep.BeginPacking(p, c.dst)
			}
			w.sim.Spawn("send", func(p *vtime.Proc) {
				ep := w.vc.At(c.src)
				px := begin(p, ep, false)
				px.Pack(p, first, mad.SendCheaper, mad.ReceiveCheaper)
				copied := *px
				px.EndPacking(p)
				stalePacking(p, px, "idle")
				stalePacking(p, &copied, "a copy")
				next := begin(p, ep, c.nextUnicast)
				if !fwd.SharesRecord(px, next) {
					t.Error("the second message's sender did not reuse the first one's record")
				}
				next.Pack(p, second, mad.SendCheaper, mad.ReceiveCheaper)
				stalePacking(p, px, "reused")
				next.EndPacking(p)
			})
			var firsts []*fwd.Unpacking // every destination's first message
			for _, dst := range append([]string{c.dst}, c.also...) {
				w.sim.Spawn("recv:"+dst, func(p *vtime.Proc) {
					ep := w.vc.At(dst)
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
					firsts = append(firsts, u)
					next := ep.BeginUnpacking(p)
					if !slices.ContainsFunc(firsts, func(f *fwd.Unpacking) bool { return fwd.SharesUnpackRecord(f, next) }) {
						t.Error("the second message's receiver did not reuse a first one's record")
					}
					staleUnpacking(p, u, "reused")
					got = make([]byte, nextSize)
					next.Unpack(p, got, mad.SendCheaper, mad.ReceiveCheaper)
					next.EndUnpacking(p)
					if !bytes.Equal(got, second) {
						t.Error("the newer message arrived corrupted after the stale handle's panics")
					}
				})
			}
			if err := w.sim.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestUnpackMisusePanics is the sink's mirror check, framing by framing: a
// message of two blocks, unpacked with the wrong size, with the wrong mode,
// past its last block or ended with a block left, panics with the message of
// the framing that carries it. The last row unpacks a reliable block of two
// fragments in two fragment-sized parts, which must panic too: a reliable
// message's blocks are held to the sender's block descriptors, not only to
// its fragments'. Two framings check less: a direct message is not
// self-described, so an Unpack past its end waits for a transfer that never
// comes (past is empty: the receiver is left parked), and a rail carries a
// span, not blocks, so the link's posted receive is what catches a striped
// block of the wrong size. A misused message is abandoned with its buffers, so
// the ledger is not audited.
func TestUnpackMisusePanics(t *testing.T) {
	aggregated := fwd.DefaultConfig()
	aggregated.Eager = true
	eager := aggregated // two blocks of 3 000 B outgrow its frame
	eager.MTU = 4096
	reliable := fwd.DefaultConfig()
	reliable.Reliable = true
	type unpack struct {
		size int
		r    mad.RecvMode
	}
	const mtu = 32 << 10 // the default MTU
	for _, c := range []struct {
		name     string
		world    func(t *testing.T) *world
		src, dst string
		mcast    []string // destinations of a multicast, dst among them
		size     int      // of each of the two blocks
		// The misuses' messages: wrong size, wrong mode, past the last block,
		// ended with a block left.
		wrongSize, wrongMode, past, left string
	}{
		{name: "direct", world: func(t *testing.T) *world { return build(t, paperHS(t), fwd.DefaultConfig()) },
			src: "a0", dst: "a1", size: 64,
			wrongSize: "mad: protocol error: 64-byte fragment for 1-byte destination",
			wrongMode: "mad: protocol error: packed {64B send_CHEAPER receive_CHEAPER}, unpacked {-1B send_CHEAPER receive_EXPRESS} — blocks must be unpacked in pack order with matching flags",
			past:      "", left: "mad: protocol error: EndUnpacking with 1 unconsumed blocks"},
		{name: "gtm", world: func(t *testing.T) *world { return build(t, paperHS(t), fwd.DefaultConfig()) },
			src: "a0", dst: "b1", size: 64,
			wrongSize: "fwd: protocol error: packed {64B send_CHEAPER receive_CHEAPER}, unpacked {65B send_CHEAPER receive_CHEAPER}",
			wrongMode: "fwd: protocol error: packed {64B send_CHEAPER receive_CHEAPER}, unpacked {64B send_CHEAPER receive_EXPRESS}",
			past:      "fwd: protocol error: stream packet without exactly one block", left: "fwd: protocol error: stream ended before its terminator"},
		{name: "eager", world: func(t *testing.T) *world { return build(t, paperHS(t), eager) },
			src: "a0", dst: "b1", size: 3000,
			wrongSize: "fwd: protocol error: packed {3000B send_CHEAPER receive_CHEAPER}, unpacked {3001B send_CHEAPER receive_CHEAPER}",
			wrongMode: "fwd: protocol error: packed {3000B send_CHEAPER receive_CHEAPER}, unpacked {3000B send_CHEAPER receive_EXPRESS}",
			past:      "fwd: protocol error: blocks expected after the stream's terminator", left: "fwd: protocol error: stream ended before its terminator"},
		{name: "aggregated", world: func(t *testing.T) *world { return build(t, paperHS(t), aggregated) },
			src: "a0", dst: "b1", size: 64,
			wrongSize: "fwd: protocol error: packed {64B s=0 r=0}, unpacked {65B send_CHEAPER receive_CHEAPER}",
			wrongMode: "fwd: protocol error: packed {64B s=0 r=0}, unpacked {64B send_CHEAPER receive_EXPRESS}",
			past:      "fwd: unpack past the end of an aggregated message", left: "fwd: aggregated message ended with unconsumed blocks"},
		{name: "striped", world: func(t *testing.T) *world { return build(t, dualRail(t), stripeCfg(2)) },
			src: "a", dst: "b", size: 64 << 10,
			wrongSize: "mad: posted receive of 1 bytes for 2161-byte transmission on reg:myri0",
			wrongMode: "fwd: protocol error: packed {32768B send_CHEAPER receive_CHEAPER}, unpacked {32768B send_CHEAPER receive_EXPRESS}",
			past:      "fwd: striped block covered by no rail", left: "fwd: striped message not fully unpacked (65536 of 131072 bytes)"},
		{name: "reliable", world: func(t *testing.T) *world { return build(t, paperHS(t), reliable) },
			src: "a0", dst: "b1", size: 64,
			wrongSize: "fwd: protocol error: packed {64B send_CHEAPER receive_CHEAPER}, unpacked {65B send_CHEAPER receive_CHEAPER}",
			wrongMode: "fwd: protocol error: packed {64B send_CHEAPER receive_CHEAPER}, unpacked {64B send_CHEAPER receive_EXPRESS}",
			past:      "fwd: unpack past the end of a reliable message", left: "fwd: reliable message not fully unpacked (1 of 2 blocks)"},
		{name: "multicast capture", world: func(t *testing.T) *world { return build(t, paperHS(t), fwd.DefaultConfig()) },
			src: "a0", dst: "gw", mcast: []string{"gw", "b1"}, size: 64,
			wrongSize: "fwd: protocol error: packed {64B send_CHEAPER receive_CHEAPER}, unpacked {65B send_CHEAPER receive_CHEAPER}",
			wrongMode: "fwd: protocol error: packed {64B send_CHEAPER receive_CHEAPER}, unpacked {64B send_CHEAPER receive_EXPRESS}",
			past:      "fwd: protocol error: blocks expected after the stream's terminator", left: "fwd: protocol error: stream ended with unconsumed fragments"},
	} {
		blocks := [2][]byte{pattern(c.size, 1), pattern(c.size, 2)}
		for _, m := range []struct {
			name    string
			unpacks []unpack // the last one is the misuse, unless end
			end     bool     // the misuse is EndUnpacking
			want    *string
		}{
			{"wrong size", []unpack{{c.size + 1, mad.ReceiveCheaper}}, false, &c.wrongSize},
			{"wrong mode", []unpack{{c.size, mad.ReceiveExpress}}, false, &c.wrongMode},
			{"past the last block", []unpack{{c.size, mad.ReceiveCheaper}, {c.size, mad.ReceiveCheaper}, {c.size, mad.ReceiveCheaper}}, false, &c.past},
			{"a block left", []unpack{{c.size, mad.ReceiveCheaper}}, true, &c.left},
		} {
			t.Run(c.name+"/"+m.name, func(t *testing.T) {
				w := c.world(t)
				w.aborts = true
				w.sim.Spawn("misuse-send", func(p *vtime.Proc) {
					ep := w.vc.At(c.src)
					var px *fwd.Packing
					if c.mcast != nil {
						px = ep.BeginMulticast(p, c.mcast...)
					} else {
						px = ep.BeginPacking(p, c.dst)
					}
					for _, b := range blocks {
						px.Pack(p, b, mad.SendCheaper, mad.ReceiveCheaper)
					}
					px.EndPacking(p)
				})
				var got any
				w.sim.Spawn("misuse-recv", func(p *vtime.Proc) {
					defer func() { got = recover() }()
					u := w.vc.At(c.dst).BeginUnpacking(p)
					for _, x := range m.unpacks {
						u.Unpack(p, make([]byte, x.size), mad.SendCheaper, x.r)
					}
					if m.end {
						u.EndUnpacking(p)
					}
				})
				err := runRecovering(w, &got)
				if *m.want == "" {
					// Not self-described: the Unpack waits for a transfer that
					// never comes.
					if got != nil || err == nil || !strings.Contains(err.Error(), "misuse-recv") {
						t.Errorf("panicked with %v and the run ended with %v, want the receiver left parked", got, err)
					}
				} else if fmt.Sprint(got) != *m.want {
					t.Errorf("panicked with %v, want %q", got, *m.want)
				}
			})
		}
	}
	t.Run("reliable/a block in fragment-sized parts", func(t *testing.T) {
		w := build(t, paperHS(t), reliable)
		w.aborts = true
		w.sim.Spawn("misuse-send", func(p *vtime.Proc) {
			px := w.vc.At("a0").BeginPacking(p, "b1")
			px.Pack(p, pattern(2*mtu, 1), mad.SendCheaper, mad.ReceiveCheaper)
			px.EndPacking(p)
		})
		w.sim.Spawn("misuse-recv", func(p *vtime.Proc) {
			u := w.vc.At("b1").BeginUnpacking(p)
			mustPanic(t, "the first half", "fwd: protocol error: packed {65536B send_CHEAPER receive_CHEAPER}, unpacked {32768B send_CHEAPER receive_CHEAPER}", func() {
				u.Unpack(p, make([]byte, mtu), mad.SendCheaper, mad.ReceiveCheaper)
			})
		})
		_ = w.sim.Run()
	})
}

// runRecovering runs a world whose receiver misuses a message: a panic in a
// process working for it, which the simulation passes on, lands in got too.
// The error is the run's, a deadlock where the misused message's sender or
// receiver is left parked.
func runRecovering(w *world, got *any) (err error) {
	defer func() {
		if r := recover(); r != nil {
			*got = r
		}
	}()
	return w.sim.Run()
}
