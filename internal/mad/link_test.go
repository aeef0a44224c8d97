package mad_test

import (
	"bytes"
	"runtime"
	"testing"

	"madgo/internal/drivers/loopback"
	"madgo/internal/drivers/sisci"
	"madgo/internal/fault"
	"madgo/internal/hw"
	"madgo/internal/mad"
	"madgo/internal/vtime"
)

// rawPair builds a two-node fixture exposing the link level directly.
func rawPair(drv netDriver) (*vtime.Sim, *mad.Link, *mad.Link, *mad.Session) {
	sim := vtime.New()
	pl := hw.NewPlatform(sim)
	sess := mad.NewSession(pl)
	a := sess.AddNode("a")
	b := sess.AddNode("b")
	net := drv.NewNetwork(pl, "n")
	ch := sess.NewChannel("raw", net, drv, a, b)
	return sim, ch.Link(a.Rank, b.Rank), ch.Link(b.Rank, a.Rank), sess
}

func TestLinkPostedEarlyIsZeroCopy(t *testing.T) {
	sim, ab, _, sess := rawPair(loopback.New())
	data := []byte("hello, posted receiver")
	meta := mad.TxMeta{SOM: true, Blocks: []mad.BlockDesc{{Size: len(data)}}}
	got := make([]byte, len(data))
	sim.Spawn("recv", func(p *vtime.Proc) {
		// Post before the sender even starts.
		ab.RecvInto(p, got)
	})
	sim.Spawn("send", func(p *vtime.Proc) {
		p.Sleep(vtime.Microsecond)
		ab.Send(p, meta, data)
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("payload corrupted")
	}
	if n, _ := sess.Copies(); n != 0 {
		t.Fatalf("posted-early receive charged %d copies", n)
	}
}

func TestLinkLatePostPaysCopy(t *testing.T) {
	sim, ab, _, sess := rawPair(loopback.New())
	data := make([]byte, 10_000)
	meta := mad.TxMeta{SOM: true, Blocks: []mad.BlockDesc{{Size: len(data)}}}
	got := make([]byte, len(data))
	sim.Spawn("send", func(p *vtime.Proc) {
		ab.Send(p, meta, data)
	})
	sim.Spawn("recv", func(p *vtime.Proc) {
		p.Sleep(vtime.Millisecond) // data long since landed in the slot
		ab.RecvInto(p, got)
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if _, copied := sess.Copies(); copied != int64(len(data)) {
		t.Fatalf("late post copied %d bytes, want %d", copied, len(data))
	}
}

func TestLinkSlotHandoffIsUncharged(t *testing.T) {
	sim, ab, _, sess := rawPair(loopback.New())
	data := []byte("slot me")
	meta := mad.TxMeta{SOM: true, Blocks: []mad.BlockDesc{{Size: len(data)}}}
	sim.Spawn("send", func(p *vtime.Proc) { ab.Send(p, meta, data) })
	sim.Spawn("recv", func(p *vtime.Proc) {
		p.Sleep(vtime.Microsecond)
		m, slot := ab.Recv(p)
		if !bytes.Equal(slot, data) || len(m.Blocks) != 1 {
			t.Error("slot handoff corrupted")
		}
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if n, _ := sess.Copies(); n != 0 {
		t.Fatalf("slot handoff charged %d copies", n)
	}
}

func TestLinkSlotIsStableAfterSenderReuse(t *testing.T) {
	// The delivered slot must be driver memory, not an alias of the
	// sender's buffer.
	sim, ab, _, _ := rawPair(loopback.New())
	data := []byte{1, 2, 3, 4}
	meta := mad.TxMeta{SOM: true, Blocks: []mad.BlockDesc{{Size: len(data)}}}
	sim.Spawn("send", func(p *vtime.Proc) {
		ab.Send(p, meta, data)
		p.Sleep(vtime.Microsecond)
		copy(data, []byte{9, 9, 9, 9}) // reuse after send completed
	})
	sim.Spawn("recv", func(p *vtime.Proc) {
		p.Sleep(10 * vtime.Microsecond)
		_, slot := ab.Recv(p)
		if !bytes.Equal(slot, []byte{1, 2, 3, 4}) {
			t.Errorf("slot aliased sender memory: %v", slot)
		}
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestOwnedTransferIsHandedOver: an Owned eager transfer that lands in driver
// memory reaches Recv as the sender's own backing array, with no copy made;
// the same transfer without Owned arrives as a copy. Both on a ring-credit
// link (loopback) and on SCI's post-gated path, where a payload past the gate
// waits for the receive and still lands in driver memory for a slot receive.
func TestOwnedTransferIsHandedOver(t *testing.T) {
	for _, c := range []struct {
		name string
		drv  netDriver
		size int
	}{
		{"eager", loopback.New(), 64},
		{"post-gated", sisci.New(), 64 << 10},
	} {
		for _, owned := range []bool{true, false} {
			sim, ab, _, _ := rawPair(c.drv)
			data := make([]byte, c.size)
			data[0] = 7
			meta := mad.TxMeta{SOM: true, Owned: owned, Blocks: []mad.BlockDesc{{Size: len(data)}}}
			var slot []byte
			sim.Spawn("send", func(p *vtime.Proc) { ab.Send(p, meta, data) })
			sim.Spawn("recv", func(p *vtime.Proc) { _, slot = ab.Recv(p) })
			if err := sim.Run(); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(slot, data) {
				t.Fatalf("%s, owned %v: payload corrupted", c.name, owned)
			}
			if same := &slot[0] == &data[0]; same != owned {
				t.Errorf("%s, owned %v: the receiver got the sender's array: %v", c.name, owned, same)
			}
		}
	}
}

// TestRecvIntoSpentReturnsTheOwnedPayload: the spent-payload receive copies
// like RecvInto and also hands the receiver what the copy emptied. An Owned
// transfer that landed in driver memory (the receive posted late) returns the
// sender's backing array, one placed into a posted receive returns the
// sender's payload, and a transfer that is not Owned returns nil. Every case
// ends at the virtual instant RecvInto's twin does, with the same copies
// charged.
func TestRecvIntoSpentReturnsTheOwnedPayload(t *testing.T) {
	for _, c := range []struct {
		name      string
		recvAfter vtime.Duration // the receive posts this long after the send starts
	}{
		{"landed", 50 * vtime.Microsecond},
		{"placed", 0},
	} {
		for _, owned := range []bool{true, false} {
			// run receives one 20-byte transfer through recv and reports the
			// receiver's buffer, when it was done and what the session copied.
			run := func(recv func(p *vtime.Proc, l *mad.Link, dst []byte) []byte) (data, got, spent []byte, done vtime.Time, copies int64) {
				sim, ab, _, sess := rawPair(loopback.New())
				data = bytes.Repeat([]byte{7}, 20)
				got = make([]byte, len(data))
				meta := mad.TxMeta{SOM: true, Owned: owned, Blocks: []mad.BlockDesc{{Size: len(data)}}}
				sim.Spawn("send", func(p *vtime.Proc) {
					p.Sleep(vtime.Microsecond)
					ab.Send(p, meta, data)
				})
				sim.Spawn("recv", func(p *vtime.Proc) {
					p.Sleep(c.recvAfter)
					spent = recv(p, ab, got)
					done = p.Now()
				})
				if err := sim.Run(); err != nil {
					t.Fatal(err)
				}
				copies, _ = sess.Copies()
				return data, got, spent, done, copies
			}
			data, got, spent, done, copies := run(func(p *vtime.Proc, l *mad.Link, dst []byte) []byte {
				_, n, spent := l.RecvIntoSpent(p, dst)
				if n != len(dst) {
					t.Errorf("%s, owned %v: RecvIntoSpent reported %d bytes, want %d", c.name, owned, n, len(dst))
				}
				return spent
			})
			_, _, _, twinDone, twinCopies := run(func(p *vtime.Proc, l *mad.Link, dst []byte) []byte {
				l.RecvInto(p, dst)
				return nil
			})
			if !bytes.Equal(got, data) {
				t.Errorf("%s, owned %v: payload corrupted: %v", c.name, owned, got)
			}
			if owned != (spent != nil) || owned && &spent[0] != &data[0] {
				t.Errorf("%s, owned %v: spent payload is not the sender's array (nil: %v)", c.name, owned, spent == nil)
			}
			if done != twinDone || copies != twinCopies {
				t.Errorf("%s, owned %v: done at %v with %d copies, RecvInto at %v with %d", c.name, owned, done, copies, twinDone, twinCopies)
			}
			want := int64(0) // placed: the NIC wrote it there
			if c.recvAfter > 0 {
				want = 1 // landed: the late post pays a memcpy out of driver memory
			}
			if copies != want {
				t.Errorf("%s, owned %v: %d copies charged, want %d", c.name, owned, copies, want)
			}
		}
	}
}

func TestLinkDescriptorPayloadMismatchPanics(t *testing.T) {
	sim, ab, _, _ := rawPair(loopback.New())
	sim.Spawn("send", func(p *vtime.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("expected panic on descriptor/payload mismatch")
			}
		}()
		ab.Send(p, mad.TxMeta{Blocks: []mad.BlockDesc{{Size: 5}}}, []byte{1})
	})
	_ = sim.Run()
}

func TestLinkPostedBufferTooSmallPanics(t *testing.T) {
	sim, ab, _, _ := rawPair(loopback.New())
	sim.Spawn("recv", func(p *vtime.Proc) {
		ab.RecvInto(p, make([]byte, 2))
	})
	sim.Spawn("send", func(p *vtime.Proc) {
		p.Sleep(vtime.Microsecond)
		ab.Send(p, mad.TxMeta{Blocks: []mad.BlockDesc{{Size: 10}}}, make([]byte, 10))
	})
	// The mismatch is detected at delivery, in scheduler context, so the
	// panic surfaces from Run itself.
	defer func() {
		if recover() == nil {
			t.Error("expected panic on undersized posted buffer")
		}
	}()
	_ = sim.Run()
}

func TestEagerCreditsBoundSenderWindow(t *testing.T) {
	// With SCI's single ring credit, the second small send must wait for
	// the receiver to take the first.
	sim, ab, _, _ := rawPair(sisci.New())
	var secondSendDone vtime.Time
	sim.Spawn("send", func(p *vtime.Proc) {
		meta := mad.TxMeta{Blocks: []mad.BlockDesc{{Size: 8}}}
		m := meta
		m.SOM = true
		ab.Send(p, m, make([]byte, 8))
		ab.Send(p, meta, make([]byte, 8)) // blocks on the credit
		secondSendDone = p.Now()
	})
	var firstTaken vtime.Time
	sim.Spawn("recv", func(p *vtime.Proc) {
		p.Sleep(500 * vtime.Microsecond)
		ab.Recv(p)
		firstTaken = p.Now()
		ab.Recv(p)
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if secondSendDone < firstTaken {
		t.Fatalf("second send finished at %v before the receiver took the first at %v",
			secondSendDone, firstTaken)
	}
}

func TestPostGatedLargeSendWaitsForReceiver(t *testing.T) {
	// An SCI transmission above the post-gate threshold must not stream
	// before the receiver posts; once posted it lands with zero copies.
	sim, ab, _, sess := rawPair(sisci.New())
	n := sisci.New().NIC().PostGateThreshold * 4
	data := make([]byte, n)
	var sendDone, posted vtime.Time
	sim.Spawn("send", func(p *vtime.Proc) {
		ab.Send(p, mad.TxMeta{SOM: true, Blocks: []mad.BlockDesc{{Size: n}}}, data)
		sendDone = p.Now()
	})
	sim.Spawn("recv", func(p *vtime.Proc) {
		p.Sleep(2 * vtime.Millisecond) // make the sender wait visibly
		posted = p.Now()
		ab.RecvInto(p, make([]byte, n))
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if sendDone <= posted {
		t.Fatalf("gated send completed at %v before the post at %v", sendDone, posted)
	}
	if c, b := sess.Copies(); c != 0 {
		t.Fatalf("gated delivery charged %d copies (%d bytes)", c, b)
	}
}

func TestRendezvousToSlotReceiver(t *testing.T) {
	// A rendezvous transmission granted to a plain Recv (no destination)
	// lands in driver memory and hands off without charges.
	sim, ab, _, sess := rawPair(allDrivers()["bip"])
	n := 100_000
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(i)
	}
	sim.Spawn("send", func(p *vtime.Proc) {
		ab.Send(p, mad.TxMeta{SOM: true, Blocks: []mad.BlockDesc{{Size: n}}}, data)
	})
	sim.Spawn("recv", func(p *vtime.Proc) {
		p.Sleep(vtime.Microsecond)
		_, slot := ab.Recv(p)
		if !bytes.Equal(slot, data) {
			t.Error("rendezvous slot corrupted")
		}
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if c, _ := sess.Copies(); c != 0 {
		t.Fatalf("rendezvous slot handoff charged %d copies", c)
	}
}

func TestTxMetaFramingCharged(t *testing.T) {
	// Framing bytes must appear on the wire: a zero-payload transmission
	// still moves header bytes through the fluid engine.
	sim, ab, _, _ := rawPair(loopback.New())
	sim.Spawn("send", func(p *vtime.Proc) {
		ab.Send(p, mad.TxMeta{SOM: true}, nil)
	})
	sim.Spawn("recv", func(p *vtime.Proc) {
		meta, slot := ab.Recv(p)
		if len(slot) != 0 || !meta.SOM {
			t.Error("empty transmission mangled")
		}
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestLinkAccessors(t *testing.T) {
	_, ab, ba, _ := rawPair(loopback.New())
	if ab.Src.Name != "a" || ab.Dst.Name != "b" || ba.Src.Name != "b" {
		t.Error("link endpoints wrong")
	}
	if ab.NIC().Protocol != "loopback" {
		t.Error("NIC accessor wrong")
	}
	if ab.TryRecvReady() {
		t.Error("fresh link reports pending data")
	}
	if ab.Channel.Name != "raw" {
		t.Error("channel backlink wrong")
	}
}

// A Reliable transmission is a datagram in a buffer its sender gives away
// (Owned): the receiver gets that very memory, described by the link itself,
// and a corruption verdict damages it in place. Streaming transmissions of
// memory their sender goes on using keep being copied.
func TestLinkReliableHandsBufferOver(t *testing.T) {
	sim, ab, _, sess := rawPair(loopback.New())
	sess.Platform.ArmFaults(fault.New(fault.NewPlan(1).Corrupt("*", 1)))
	datagram := []byte("a datagram its sender never reads again")
	clean := append([]byte(nil), datagram...)
	streamed := []byte("memory the sender goes on using")
	sim.Spawn("send", func(p *vtime.Proc) {
		if !ab.Send(p, mad.TxMeta{SOM: true, Reliable: true, Owned: true, Kind: mad.KindRel}, datagram) {
			t.Error("an undropped datagram was reported as not sent")
		}
		ab.Send(p, mad.TxMeta{SOM: true, Blocks: []mad.BlockDesc{{Size: len(streamed)}}}, streamed)
	})
	sim.Spawn("recv", func(p *vtime.Proc) {
		meta, slot := ab.Recv(p)
		if &slot[0] != &datagram[0] {
			t.Error("the reliable datagram was copied instead of handed over")
		}
		if meta.Blocks != nil || !meta.Reliable || meta.Kind != mad.KindRel {
			t.Errorf("handed-over metadata = %+v, want the link's own descriptor stripped", meta)
		}
		if bytes.Equal(slot, clean) {
			t.Error("the corruption verdict did not reach the handed-over buffer")
		}
		_, slot = ab.Recv(p)
		if &slot[0] == &streamed[0] || !bytes.Equal(slot, streamed) {
			t.Error("a streaming transmission must land in driver memory, intact")
		}
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
}

// A dropped Reliable transmission never leaves: Send says so, and nothing
// arrives — the buffer is still the sender's to reuse.
func TestLinkReliableDropKeepsBuffer(t *testing.T) {
	sim, ab, _, sess := rawPair(loopback.New())
	sess.Platform.ArmFaults(fault.New(fault.NewPlan(1).Drop("*", 1)))
	sim.Spawn("send", func(p *vtime.Proc) {
		if ab.Send(p, mad.TxMeta{SOM: true, Reliable: true, Kind: mad.KindRel}, []byte("lost")) {
			t.Error("a dropped datagram was reported as sent")
		}
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if ab.TryRecvReady() {
		t.Fatal("a dropped datagram arrived")
	}
}

// TestLandedSlotIsReused: the driver memory a late receive copies a transfer
// out of takes the next transfer that lands on the link, so a warm link's
// landed transfers allocate nothing; an empty transfer still lands in no
// memory and is charged no copy, whatever memory the link keeps. 300 rounds,
// every third transfer empty, the receive posted 50 µs after each send.
func TestLandedSlotIsReused(t *testing.T) {
	const warm, rounds = 30, 300
	sim, ab, _, sess := rawPair(loopback.New())
	data := bytes.Repeat([]byte{7}, 20)
	got := make([]byte, len(data))
	full := mad.TxMeta{SOM: true, Blocks: []mad.BlockDesc{{Size: len(data)}}}
	empty := mad.TxMeta{SOM: true, Blocks: []mad.BlockDesc{{Size: 0}}}
	// Round i starts at i × 100 µs: the send then, the receive 50 µs later.
	at := func(i int, d vtime.Duration) vtime.Time {
		return vtime.Time(0).Add(vtime.Duration(i)*100*vtime.Microsecond + d)
	}
	sim.Spawn("send", func(p *vtime.Proc) {
		for i := 0; i < warm+rounds; i++ {
			p.Sleep(at(i, 0).Sub(p.Now()))
			if i%3 == 2 {
				ab.Send(p, empty, nil)
			} else {
				ab.Send(p, full, data)
			}
		}
	})
	var m0, m1 runtime.MemStats
	var copies0 int64
	sim.Spawn("recv", func(p *vtime.Proc) {
		for i := 0; i < warm+rounds; i++ {
			if i == warm {
				runtime.ReadMemStats(&m0)
				copies0, _ = sess.Copies()
			}
			p.Sleep(at(i, 50*vtime.Microsecond).Sub(p.Now()))
			clear(got)
			if _, n, _ := ab.RecvIntoSpent(p, got); i%3 != 2 && (n != len(data) || !bytes.Equal(got, data)) {
				t.Fatalf("transfer %d: got %d bytes %v", i, n, got)
			}
		}
		runtime.ReadMemStats(&m1)
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if copies, _ := sess.Copies(); copies-copies0 != 2*rounds/3 {
		t.Errorf("%d copies charged for %d landed transfers, %d of them empty; want %d", copies-copies0, rounds, rounds/3, 2*rounds/3)
	}
	if allocs := m1.Mallocs - m0.Mallocs; allocs >= rounds/20 {
		t.Errorf("%d landed transfers on a warm link allocate %d times, want 0 (amortised)", rounds, allocs)
	}
}
