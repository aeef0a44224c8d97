package vtime

import "testing"

// The kernel's steady state allocates nothing: events live by value in the
// heap's backing array and a sleeping process parks on no object of its
// own. Each test warms the simulation up (AllocsPerRun's first call is not
// counted either), then advances it window by window.

// steadyAllocs runs sim for one 100 µs window to warm it up and returns the
// allocations of each further window.
func steadyAllocs(t *testing.T, sim *Sim) float64 {
	t.Helper()
	window := func() {
		if err := sim.RunUntil(sim.Now().Add(100 * Microsecond)); err != nil {
			t.Fatal(err)
		}
	}
	window()
	return testing.AllocsPerRun(50, window)
}

func TestAfterChainAllocsNothing(t *testing.T) {
	sim := New()
	var step func()
	step = func() { sim.After(Microsecond, step) }
	sim.After(Microsecond, step)
	if allocs := steadyAllocs(t, sim); allocs != 0 {
		t.Errorf("100 chained After callbacks allocate %.1f times, want 0", allocs)
	}
}

func TestSleepWakeAllocsNothing(t *testing.T) {
	sim := New()
	for i := 0; i < 2; i++ {
		sim.SpawnDaemon("sleeper", func(p *Proc) {
			for {
				p.Sleep(Microsecond)
			}
		})
	}
	if allocs := steadyAllocs(t, sim); allocs != 0 {
		t.Errorf("200 Sleep wake-ups allocate %.1f times, want 0", allocs)
	}
}

// TestAtArgPassesItsArgument covers the bound-callback form of At: the
// argument given at scheduling time is the one delivered, in time order.
func TestAtArgPassesItsArgument(t *testing.T) {
	sim := New()
	var got []uint64
	record := func(arg uint64) { got = append(got, arg) }
	sim.AtArg(30, record, 3)
	sim.AtArg(10, record, 1)
	sim.AtArg(20, record, 2)
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("AtArg delivered %v, want [1 2 3]", got)
	}
}

// TestInitBlockerRearmsCallerStorage covers the embedded-Waker protocol:
// one Waker value serves wait after wait, stays one-shot within each, and
// refuses to be re-armed under a parked process.
func TestInitBlockerRearmsCallerStorage(t *testing.T) {
	sim := New()
	var w Waker
	rounds := 0
	sim.Spawn("waiter", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.InitBlocker(&w, "round", "trip")
			sim.After(Microsecond, w.Wake)
			w.Wait()
			rounds++
		}
		p.InitBlocker(&w, "twice", "")
		w.Wake()
		func() {
			defer func() {
				if recover() == nil {
					t.Error("second Wake of one arming did not panic")
				}
			}()
			w.Wake()
		}()
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if rounds != 3 {
		t.Fatalf("waiter completed %d of 3 rounds", rounds)
	}

	sim = New()
	sim.Spawn("stuck", func(p *Proc) {
		p.InitBlocker(&w, "held", "forever")
		w.Wait()
	})
	sim.Spawn("thief", func(p *Proc) {
		defer func() {
			if recover() == nil {
				t.Error("re-arming a Waker under a parked process did not panic")
			}
		}()
		p.InitBlocker(&w, "stolen", "")
	})
	err := sim.Run()
	de, ok := err.(DeadlockError)
	if !ok || len(de.Stuck) != 1 || de.Stuck[0] != "stuck (held forever)" {
		t.Fatalf("Run = %v, want a deadlock naming \"stuck (held forever)\"", err)
	}
}
