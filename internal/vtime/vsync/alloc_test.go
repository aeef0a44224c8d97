package vsync

import (
	"runtime"
	"testing"

	"madgo/internal/vtime"
)

// steadyAllocs runs sim for one 100 µs window to warm it up (wait records,
// event heap) and returns the allocations of each further window.
func steadyAllocs(t *testing.T, sim *vtime.Sim) float64 {
	t.Helper()
	window := func() {
		if err := sim.RunUntil(sim.Now().Add(100 * vtime.Microsecond)); err != nil {
			t.Fatal(err)
		}
	}
	window()
	return testing.AllocsPerRun(50, window)
}

// TestChanHandoffAllocsNothing pins the blocking paths of Chan at zero
// allocations once the wait records exist: a sender that finds the buffer
// full and a receiver that finds it empty both park on recycled records.
func TestChanHandoffAllocsNothing(t *testing.T) {
	sim := vtime.New()
	full := NewChan[int]("full", 1)   // the sender outruns the receiver and blocks
	empty := NewChan[int]("empty", 1) // the receiver outruns the sender and blocks
	sim.SpawnDaemon("fast-tx", func(p *vtime.Proc) {
		for i := 0; ; i++ {
			full.Send(p, i)
		}
	})
	sim.SpawnDaemon("slow-rx", func(p *vtime.Proc) {
		for {
			p.Sleep(vtime.Microsecond)
			full.Recv(p)
		}
	})
	sim.SpawnDaemon("slow-tx", func(p *vtime.Proc) {
		for i := 0; ; i++ {
			p.Sleep(vtime.Microsecond)
			empty.Send(p, i)
		}
	})
	received := 0
	sim.SpawnDaemon("fast-rx", func(p *vtime.Proc) {
		for {
			if _, ok := empty.Recv(p); ok {
				received++
			}
		}
	})
	if allocs := steadyAllocs(t, sim); allocs != 0 {
		t.Errorf("200 blocking channel hand-offs allocate %.1f times, want 0", allocs)
	}
	if received < 5000 {
		t.Fatalf("blocked receiver took only %d values", received)
	}
}

// TestSemAndMutexBlockingAllocsNothing does the same for the primitives the
// link layer blocks on: the eager credit window and the per-message locks.
func TestSemAndMutexBlockingAllocsNothing(t *testing.T) {
	sim := vtime.New()
	var mu Mutex
	credits := NewSem(2) // two contenders meet at the mutex, the third waits here
	for i := 0; i < 3; i++ {
		sim.SpawnDaemon("contender", func(p *vtime.Proc) {
			for {
				credits.Acquire(p, 1)
				mu.Lock(p)
				p.Sleep(vtime.Microsecond)
				mu.Unlock(p)
				credits.Release(1)
			}
		})
	}
	if allocs := steadyAllocs(t, sim); allocs != 0 {
		t.Errorf("100 contended Sem/Mutex rounds allocate %.1f times, want 0", allocs)
	}
}

// TestFirstContentionAllocatesOnlyRecords holds a fresh primitive while k
// waiters block on it one after another, then lets them all through, once
// every 100 µs round. A waiter parks on a record of the primitive's wait
// list, which keeps its queue and its spare records chained through the
// records themselves, so the first round allocates the k records and nothing
// else, and later rounds none: a list of two growing slices also allocated
// their growth, 13 allocations for five waiters. Every round lets the waiters
// through in the order they came, on records re-queued from the free list —
// a semaphore's too, whose head needs two permits and holds the others back
// while one is free.
func TestFirstContentionAllocatesOnlyRecords(t *testing.T) {
	const k, rounds, trials = 5, 4, 3
	const period = 100 * vtime.Microsecond
	// Processes hand over on unbuffered Go channels, whose parked goroutines
	// the runtime gives records from per-processor caches, now and then
	// allocating one. One processor keeps that rare, and the least a round
	// reads over three fresh runs is the primitives' alone.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	type contention struct {
		hold, release func(p *vtime.Proc) // from a round's start to its middle
		wait          func(p *vtime.Proc, i int)
	}
	cases := []struct {
		name  string
		fresh func() contention
	}{
		{"Mutex", func() contention {
			var mu Mutex
			return contention{func(p *vtime.Proc) { mu.Lock(p) }, func(p *vtime.Proc) { mu.Unlock(p) },
				func(p *vtime.Proc, i int) { mu.Lock(p); mu.Unlock(p) }}
		}},
		{"Sem", func() contention {
			sem := NewSem(0)
			return contention{func(*vtime.Proc) {}, func(*vtime.Proc) {
				sem.Release(1)
				if sem.Available() != 1 {
					t.Error("Sem served a waiter behind a head that needs more permits than are free")
				}
				sem.Release(k)
			}, func(p *vtime.Proc, i int) {
				if i == 0 {
					sem.Acquire(p, 2) // the head
				} else {
					sem.Acquire(p, 1)
				}
			}}
		}},
		{"Cond", func() contention {
			var mu Mutex
			c := NewCond(&mu)
			return contention{func(*vtime.Proc) {}, func(p *vtime.Proc) { mu.Lock(p); c.Broadcast(); mu.Unlock(p) },
				func(p *vtime.Proc, i int) { mu.Lock(p); c.Wait(p); mu.Unlock(p) }}
		}},
		{"WaitGroup", func() contention {
			var wg WaitGroup
			return contention{func(*vtime.Proc) { wg.Add(1) }, func(*vtime.Proc) { wg.Done() },
				func(p *vtime.Proc, i int) { wg.Wait(p) }}
		}},
		{"Chan-recv", func() contention {
			c := NewChan[int]("rx", 0)
			return contention{func(*vtime.Proc) {}, func(p *vtime.Proc) {
				for v := 0; v < k; v++ {
					c.Send(p, v)
				}
			}, func(p *vtime.Proc, i int) {
				if v, _ := c.Recv(p); v != i {
					t.Errorf("receiver %d took value %d", i, v)
				}
			}}
		}},
		{"Chan-send", func() contention {
			c := NewChan[int]("tx", 0)
			return contention{func(*vtime.Proc) {}, func(p *vtime.Proc) {
				for want := 0; want < k; want++ {
					if v, _ := c.Recv(p); v != want {
						t.Errorf("took value %d from the blocked senders, want %d", v, want)
					}
				}
			}, func(p *vtime.Proc, i int) { c.Send(p, i) }}
		}},
	}
	// run plays rounds rounds on a fresh primitive and returns what each
	// allocated. Round 0 only starts the processes; from round 1 on the
	// holder holds the primitive and waiter i blocks on it i µs after the
	// first.
	run := func(c contention) (allocs [rounds]uint64) {
		sim := vtime.New()
		order := make([]int, 0, k*rounds)
		sim.SpawnDaemon("holder", func(p *vtime.Proc) {
			for r := 0; ; r++ {
				start := p.Now()
				if r > 0 {
					c.hold(p)
				}
				p.Sleep(period / 2)
				if r > 0 {
					c.release(p)
				}
				p.Sleep(start.Add(period).Sub(p.Now()))
			}
		})
		for i := 0; i < k; i++ {
			sim.SpawnDaemon("waiter", func(p *vtime.Proc) {
				for r := 0; ; r++ {
					start := p.Now()
					p.Sleep(10*vtime.Microsecond + vtime.Duration(i)*vtime.Microsecond)
					if r > 0 {
						c.wait(p, i)
						order = append(order, i)
					}
					p.Sleep(start.Add(period).Sub(p.Now()))
				}
			})
		}
		var m0, m1 runtime.MemStats
		for r := range allocs {
			runtime.ReadMemStats(&m0)
			if err := sim.RunUntil(sim.Now().Add(period)); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&m1)
			allocs[r] = m1.Mallocs - m0.Mallocs
		}
		for j, i := range order {
			if i != j%k {
				t.Fatalf("waiters went through in the order %v, want 0..%d every round", order, k-1)
			}
		}
		if len(order) != k*(rounds-1) {
			t.Fatalf("%d waiters went through, want %d", len(order), k*(rounds-1))
		}
		return allocs
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			least := run(c.fresh())
			for n := 1; n < trials; n++ {
				for r, a := range run(c.fresh()) {
					least[r] = min(least[r], a)
				}
			}
			for r := 1; r < rounds; r++ {
				want := uint64(0)
				if r == 1 {
					want = k
				}
				if least[r] != want {
					t.Errorf("round %d: %d waiters allocate %d times, want %d", r, k, least[r], want)
				}
			}
		})
	}
}
