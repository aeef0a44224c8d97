package vtime

import "testing"

// The kernel's host cost, measured where tier-1 reaches it (the ledger's
// layer pass in benchmark/ reads the same shapes): one process wake, one
// spawn + join, one callback event. Run with -benchmem; the steady state of
// each allocates nothing but BenchmarkSpawnJoin's process record and closure.

// benchRun times sim.Run over b.N operations that build has queued.
func benchRun(b *testing.B, build func(sim *Sim)) {
	b.Helper()
	b.ReportAllocs()
	sim := New()
	build(sim)
	b.ResetTimer()
	if err := sim.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSleepWake is one Sleep and its wake: alone, the sleeper pops its
// own wake and no goroutine switches; among others every wake is one switch.
func BenchmarkSleepWake(b *testing.B) {
	for _, bc := range []struct {
		name  string
		procs int
	}{{"self", 1}, {"2procs", 2}, {"1024procs", 1024}} {
		b.Run(bc.name, func(b *testing.B) {
			benchRun(b, func(sim *Sim) {
				for i := 0; i < bc.procs; i++ {
					sleeps := b.N / bc.procs
					if i < b.N%bc.procs {
						sleeps++
					}
					sim.Spawn("sleeper", func(p *Proc) {
						for k := 0; k < sleeps; k++ {
							p.Sleep(Microsecond)
						}
					})
				}
			})
		})
	}
}

// BenchmarkSpawnJoin is the per-message send thread of a gateway relay: a
// parent spawns a child that does one unit of work and joins it.
func BenchmarkSpawnJoin(b *testing.B) {
	benchRun(b, func(sim *Sim) {
		sim.Spawn("parent", func(p *Proc) {
			for i := 0; i < b.N; i++ {
				p.Join(sim.Spawn("child", func(c *Proc) { c.Sleep(Microsecond) }))
			}
		})
	})
}

// BenchmarkCallbackEvent is one After callback: what an event costs when no
// process is involved.
func BenchmarkCallbackEvent(b *testing.B) {
	benchRun(b, func(sim *Sim) {
		left := b.N
		var step func()
		step = func() {
			if left--; left > 0 {
				sim.After(Microsecond, step)
			}
		}
		sim.After(Microsecond, step)
	})
}
