package mad_test

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"madgo/internal/drivers/bip"
	"madgo/internal/drivers/sisci"
	"madgo/internal/hw"
	"madgo/internal/mad"
	"madgo/internal/vtime"
	"madgo/internal/vtime/vsync"
)

// TestDirectMessageAllocBudget pins what one whole message — BeginPacking
// to EndUnpacking on a direct link — may allocate once the link is warm.
// The link itself contributes nothing any more: its transmissions, wakers,
// wire events, flow spec and route are per-link state. What is left is the
// message's own bookkeeping (Packing and its packer, Unpacking with its
// mirror inside, block descriptors; the Arrival note travels by value, the
// aggregate is a buffer of the channel's pool its receiver returns): 4 and 4
// allocations where the same messages cost 45 and 41 when every send built
// those afresh, and 6 and 7 while the packer made its aggregate afresh — at
// construction and at every flush — and the mirror was a record of its own.
// The aggregate is handed over (TxMeta.Owned), so an eager delivery that
// finds no receive posted does not snapshot it into driver memory: the
// 64-byte message read 8 while it did.
func TestDirectMessageAllocBudget(t *testing.T) {
	cases := []struct {
		name   string
		drv    netDriver
		size   int
		budget float64
	}{
		{"myrinet 32 KiB", bip.New(), 32 << 10, 4},
		{"sci 64 B", sisci.New(), 64, 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pr := newPair(tc.drv)
			out, in := pattern(tc.size, 3), make([]byte, tc.size)
			next := vsync.NewSem(0) // one permit per message to send
			delivered := 0
			pr.sim.SpawnDaemon("tx", func(p *vtime.Proc) {
				ep := pr.ch.At(pr.a)
				for {
					next.Acquire(p, 1)
					px := ep.BeginPacking(p, pr.b.Rank)
					px.Pack(p, out, mad.SendCheaper, mad.ReceiveCheaper)
					px.EndPacking(p)
				}
			})
			pr.sim.SpawnDaemon("rx", func(p *vtime.Proc) {
				ep := pr.ch.At(pr.b)
				for {
					u := ep.BeginUnpacking(p)
					u.Unpack(p, in, mad.SendCheaper, mad.ReceiveCheaper)
					u.EndUnpacking(p)
					delivered++
				}
			})
			message := func() {
				next.Release(1)
				pr.run(t)
			}
			for i := 0; i < 4; i++ {
				message()
			}
			allocs := testing.AllocsPerRun(100, message)
			if delivered != 4+101 || !bytes.Equal(in, out) {
				t.Fatalf("delivered %d of %d messages, payload intact: %v", delivered, 4+101, bytes.Equal(in, out))
			}
			t.Logf("%s: %.1f allocations per message (budget %.0f)", tc.name, allocs, tc.budget)
			if allocs > tc.budget {
				t.Errorf("%s: one message allocates %.1f times, budget %.0f", tc.name, allocs, tc.budget)
			}
		})
	}
}

// TestLinkBringUpAllocBudget pins what a link costs the first time a message
// crosses it. An 18-node SCI channel sends one 64-byte message on each of its
// 306 directed links, one link after the other, then a second round on the
// same, warm, links; the first round's allocations minus the second's, per
// link, are the bring-up. A link holds its mailbox, its credit window and the
// first slots of its queues itself, its wire's record is one of a batch and
// its wire events share the channel's callback: what is left is the Link and
// the one string its wire's, mailbox's and flow's names are cut from, plus the
// maps and lists that index links and wires: 2.2–2.3 allocations and about
// 1 520 bytes. It read 3.4 and about 1 530 bytes while the wire's name was a
// string of its own, and 19.4 (27.5 cold, 8.1 warm) and about 1 720 bytes
// while the names went through fmt.Sprintf and the wire, its callback, the
// mailbox, the semaphore and four queues were allocated apart. The budget is
// the reading plus 15 %, rounded up: a second string a link does not fit.
func TestLinkBringUpAllocBudget(t *testing.T) {
	const members, budget = 18, 3.0
	sim := vtime.New()
	pl := hw.NewPlatform(sim)
	sess := mad.NewSession(pl)
	drv := sisci.New()
	nodes := make([]*mad.Node, members)
	for i := range nodes {
		nodes[i] = sess.AddNode(fmt.Sprintf("n%02d", i))
	}
	ch := sess.NewChannel("ch0", drv.NewNetwork(pl, "sci0"), drv, nodes...)
	for _, n := range nodes {
		ch.At(n) // endpoints are per node, not per link
	}
	out := pattern(64, 5)
	round := func() (allocs, allocated float64) {
		delivered := 0
		sim.Spawn("tx", func(p *vtime.Proc) {
			for _, src := range nodes {
				for _, dst := range nodes {
					if dst != src {
						px := ch.At(src).BeginPacking(p, dst.Rank)
						px.Pack(p, out, mad.SendCheaper, mad.ReceiveCheaper)
						px.EndPacking(p)
					}
				}
			}
		})
		for _, dst := range nodes {
			sim.Spawn("rx", func(p *vtime.Proc) {
				ep, in := ch.At(dst), make([]byte, len(out))
				for range members - 1 {
					u := ep.BeginUnpacking(p)
					u.Unpack(p, in, mad.SendCheaper, mad.ReceiveCheaper)
					u.EndUnpacking(p)
					if bytes.Equal(in, out) {
						delivered++
					}
				}
			})
		}
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		if err := sim.Run(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&m1)
		if want := members * (members - 1); delivered != want {
			t.Fatalf("delivered %d of %d messages byte-exact", delivered, want)
		}
		return float64(m1.Mallocs - m0.Mallocs), float64(m1.TotalAlloc - m0.TotalAlloc)
	}
	cold, coldBytes := round()
	warm, warmBytes := round()
	links := float64(members * (members - 1))
	perLink := (cold - warm) / links
	t.Logf("link bring-up: %.1f allocations and %.0f bytes a link (%.1f cold, %.1f warm; budget %.0f)",
		perLink, (coldBytes-warmBytes)/links, cold/links, warm/links, budget)
	if perLink > budget {
		t.Errorf("bringing a link up allocates %.1f times, budget %.0f", perLink, budget)
	}
}

// TestControlSendAllocsNothing: a warm control datagram — sent, delivered and
// received — allocates nothing. Its transmission record comes off the link's
// free list and goes back at the receive, and its delivery is the channel's
// one callback told the link and the lane by its argument.
func TestControlSendAllocsNothing(t *testing.T) {
	sim, ab, _, _ := rawPair(sisci.New())
	dgram := pattern(24, 1)
	got := 0
	sim.SpawnDaemon("rx", func(p *vtime.Proc) {
		ep := ab.Channel.At(ab.Dst)
		for {
			if _, buf := ep.NextArrival(p).Link.Recv(p); &buf[0] == &dgram[0] {
				got++
			}
		}
	})
	send := func() {
		if !ab.SendControl(mad.KindHealth, dgram) {
			t.Fatal("control datagram not sent")
		}
		if err := sim.Run(); err != nil {
			t.Fatal(err)
		}
	}
	for range 4 {
		send()
	}
	if allocs := testing.AllocsPerRun(100, send); allocs != 0 {
		t.Errorf("a warm control send and its delivery allocate %.2f times, want 0", allocs)
	}
	if got != 4+101 {
		t.Errorf("received %d control datagrams, want %d", got, 4+101)
	}
}
