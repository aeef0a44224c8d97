package vsync

import (
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
