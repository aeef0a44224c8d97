package vsync

import (
	"fmt"
	"testing"
	"testing/quick"

	"madgo/internal/vtime"
)

func TestChanBufferedFIFO(t *testing.T) {
	runSim(t, func(s *vtime.Sim) {
		ch := NewChan[int]("c", 4)
		s.Spawn("producer", func(p *vtime.Proc) {
			for i := 0; i < 10; i++ {
				ch.Send(p, i)
			}
		})
		s.Spawn("consumer", func(p *vtime.Proc) {
			for i := 0; i < 10; i++ {
				v, ok := ch.Recv(p)
				if !ok || v != i {
					t.Errorf("recv #%d = %d,%v", i, v, ok)
				}
			}
		})
	})
}

func TestChanRendezvous(t *testing.T) {
	runSim(t, func(s *vtime.Sim) {
		ch := NewChan[string]("r", 0)
		var sendDone, recvDone vtime.Time
		s.Spawn("sender", func(p *vtime.Proc) {
			ch.Send(p, "x")
			sendDone = p.Now()
		})
		s.Spawn("receiver", func(p *vtime.Proc) {
			p.Sleep(5 * vtime.Microsecond)
			v, ok := ch.Recv(p)
			if !ok || v != "x" {
				t.Errorf("recv = %q,%v", v, ok)
			}
			recvDone = p.Now()
		})
		s.Spawn("check", func(p *vtime.Proc) {
			p.Sleep(vtime.Millisecond)
			if sendDone != vtime.Time(5*vtime.Microsecond) {
				t.Errorf("send completed at %v, want 5µs (rendezvous)", sendDone)
			}
			if recvDone != vtime.Time(5*vtime.Microsecond) {
				t.Errorf("recv completed at %v", recvDone)
			}
		})
	})
}

// TestChanReceiversCountsParkedRecv: Receivers counts the processes parked in
// Recv, and a value handed to one of them takes it off the count.
func TestChanReceiversCountsParkedRecv(t *testing.T) {
	runSim(t, func(s *vtime.Sim) {
		ch := NewChan[int]("n", 4)
		for i := 0; i < 2; i++ {
			s.Spawn(fmt.Sprintf("recv%d", i), func(p *vtime.Proc) { ch.Recv(p) })
		}
		s.Spawn("send", func(p *vtime.Proc) {
			p.Sleep(vtime.Microsecond)
			if n := ch.Receivers(); n != 2 {
				t.Errorf("%d receivers parked, want 2", n)
			}
			for want := 1; want >= 0; want-- {
				ch.Send(p, 0)
				if n := ch.Receivers(); n != want || ch.Len() != 0 {
					t.Errorf("%d receivers parked and %d buffered after a send, want %d and 0", n, ch.Len(), want)
				}
			}
		})
	})
}

func TestChanBlocksWhenFull(t *testing.T) {
	runSim(t, func(s *vtime.Sim) {
		ch := NewChan[int]("f", 1)
		var secondSendAt vtime.Time
		s.Spawn("sender", func(p *vtime.Proc) {
			ch.Send(p, 1)
			ch.Send(p, 2) // blocks until consumer drains
			secondSendAt = p.Now()
		})
		s.Spawn("consumer", func(p *vtime.Proc) {
			p.Sleep(7 * vtime.Microsecond)
			if v, ok := ch.Recv(p); !ok || v != 1 {
				t.Errorf("recv = %d,%v", v, ok)
			}
			if v, ok := ch.Recv(p); !ok || v != 2 {
				t.Errorf("recv = %d,%v", v, ok)
			}
		})
		s.Spawn("check", func(p *vtime.Proc) {
			p.Sleep(vtime.Millisecond)
			if secondSendAt != vtime.Time(7*vtime.Microsecond) {
				t.Errorf("second send at %v, want 7µs", secondSendAt)
			}
		})
	})
}

func TestChanTryOps(t *testing.T) {
	runSim(t, func(s *vtime.Sim) {
		ch := NewChan[int]("t", 1)
		s.Spawn("p", func(p *vtime.Proc) {
			if _, ok := ch.TryRecv(); ok {
				t.Error("TryRecv on empty channel succeeded")
			}
			if !ch.TrySend(1) {
				t.Error("TrySend on empty channel failed")
			}
			if ch.TrySend(2) {
				t.Error("TrySend on full channel succeeded")
			}
			if v, ok := ch.TryRecv(); !ok || v != 1 {
				t.Errorf("TryRecv = %d,%v", v, ok)
			}
			if ch.Len() != 0 {
				t.Errorf("Len = %d", ch.Len())
			}
		})
	})
}

func TestChanCloseReleasesReceivers(t *testing.T) {
	runSim(t, func(s *vtime.Sim) {
		ch := NewChan[int]("close", 0)
		s.Spawn("receiver", func(p *vtime.Proc) {
			if _, ok := ch.Recv(p); ok {
				t.Error("recv on closed channel returned ok")
			}
		})
		s.Spawn("closer", func(p *vtime.Proc) {
			p.Sleep(vtime.Microsecond)
			ch.Close()
			if !ch.Closed() {
				t.Error("Closed() = false")
			}
		})
	})
}

func TestChanCloseDrainsBuffer(t *testing.T) {
	runSim(t, func(s *vtime.Sim) {
		ch := NewChan[int]("drain", 2)
		s.Spawn("p", func(p *vtime.Proc) {
			ch.Send(p, 1)
			ch.Send(p, 2)
			ch.Close()
			if v, ok := ch.Recv(p); !ok || v != 1 {
				t.Errorf("recv = %d,%v", v, ok)
			}
			if v, ok := ch.Recv(p); !ok || v != 2 {
				t.Errorf("recv = %d,%v", v, ok)
			}
			if _, ok := ch.Recv(p); ok {
				t.Error("recv on drained closed channel returned ok")
			}
		})
	})
}

func TestChanSendOnClosedPanics(t *testing.T) {
	runSim(t, func(s *vtime.Sim) {
		ch := NewChan[int]("panics", 1)
		ch.Close()
		s.Spawn("p", func(p *vtime.Proc) {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			ch.Send(p, 1)
		})
	})
}

func TestChanManyProducersOrderedPerProducer(t *testing.T) {
	runSim(t, func(s *vtime.Sim) {
		ch := NewChan[[2]int]("m", 3)
		const producers, per = 4, 20
		seen := make(map[int]int)
		for pid := 0; pid < producers; pid++ {
			pid := pid
			s.Spawn(fmt.Sprintf("prod%d", pid), func(p *vtime.Proc) {
				for k := 0; k < per; k++ {
					ch.Send(p, [2]int{pid, k})
					p.Sleep(vtime.Duration(pid+1) * vtime.Microsecond)
				}
			})
		}
		s.Spawn("consumer", func(p *vtime.Proc) {
			for i := 0; i < producers*per; i++ {
				v, ok := ch.Recv(p)
				if !ok {
					t.Fatal("channel closed early")
				}
				if v[1] != seen[v[0]] {
					t.Errorf("producer %d out of order: got %d want %d", v[0], v[1], seen[v[0]])
				}
				seen[v[0]]++
			}
		})
	})
}

// Property: any sequence of sends is received in exactly the same order,
// for any buffer capacity.
func TestChanOrderProperty(t *testing.T) {
	f := func(values []int64, capacity uint8) bool {
		if len(values) > 64 {
			values = values[:64]
		}
		capn := int(capacity % 8)
		s := vtime.New()
		ch := NewChan[int64]("prop", capn)
		var got []int64
		s.Spawn("producer", func(p *vtime.Proc) {
			for _, v := range values {
				ch.Send(p, v)
			}
			ch.Close()
		})
		s.Spawn("consumer", func(p *vtime.Proc) {
			for {
				v, ok := ch.Recv(p)
				if !ok {
					return
				}
				got = append(got, v)
			}
		})
		if err := s.Run(); err != nil {
			return false
		}
		if len(got) != len(values) {
			return false
		}
		for i := range got {
			if got[i] != values[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestChanRecvClearsVacatedSlot: a value read out of the buffer leaves no
// copy behind past the buffer's length, where it would keep what it points
// to reachable after the receiver has let go of it.
func TestChanRecvClearsVacatedSlot(t *testing.T) {
	runSim(t, func(s *vtime.Sim) {
		ch := NewChan[*int]("c", 4)
		stale := func(call string) {
			for i, v := range ch.buf[len(ch.buf):cap(ch.buf)] {
				if v != nil {
					t.Errorf("after %s: slot %d past len %d still holds a value", call, len(ch.buf)+i, len(ch.buf))
				}
			}
		}
		s.Spawn("p", func(p *vtime.Proc) {
			for i := 0; i < 4; i++ {
				ch.Send(p, new(int))
			}
			ch.Recv(p)
			stale("Recv")
			ch.TryRecv()
			stale("TryRecv")
			ch.Recv(p)
			ch.TryRecv()
			stale("draining")
		})
	})
}

// TestChanUnboundedInitNeverBlocks: an unbounded channel embedded by value
// starts in the array it was given, takes every send without blocking, grows
// past that array and keeps FIFO order.
func TestChanUnboundedInitNeverBlocks(t *testing.T) {
	var owner struct {
		q   Chan[int]
		buf [2]int
	}
	owner.q.Init("u", Unbounded, owner.buf[:0])
	for i := 0; i < 5; i++ {
		if !owner.q.TrySend(i) {
			t.Fatalf("TrySend #%d refused by an unbounded channel", i)
		}
		if i == 1 && &owner.q.buf[0] != &owner.buf[0] {
			t.Error("the first values are not in the array Init was given")
		}
	}
	for i := 0; i < 5; i++ {
		if v, ok := owner.q.TryRecv(); !ok || v != i {
			t.Fatalf("TryRecv #%d = %d,%v", i, v, ok)
		}
	}
}

// TestChanReserve makes room for a channel's values before they come: the
// value already buffered stays first, filling the channel to its capacity
// then allocates nothing, and no room is made past the capacity.
func TestChanReserve(t *testing.T) {
	c := NewChan[int]("r", 3)
	c.TrySend(7)
	c.Reserve(64)
	if cap(c.buf) < 3 || cap(c.buf) >= 64 {
		t.Fatalf("room for %d values, want 3 up to its size class", cap(c.buf))
	}
	if v, _ := c.TryRecv(); v != 7 {
		t.Fatalf("first value %d, want 7", v)
	}
	allocs := testing.AllocsPerRun(100, func() {
		for v := 0; v < 3; v++ {
			c.TrySend(v)
		}
		for v := 0; v < 3; v++ {
			if got, _ := c.TryRecv(); got != v {
				t.Fatalf("took %d, want %d", got, v)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("filling a reserved channel allocates %.1f times, want 0", allocs)
	}
}
