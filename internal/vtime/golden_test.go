package vtime

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"
)

// kernelTraceGolden is the FNV-1a hash, and kernelTraceSteps the length, of
// the traces of the 200 programs below as the kernel of PR 16 — every yield
// a bounce through a scheduler goroutine — ran them. The kernel may change
// how control moves between goroutines; it may not change the order in
// which events pop, and this is the test that fails if it does.
const (
	kernelTraceGolden = uint64(0x3da2b53cf2395df6)
	kernelTraceSteps  = 16744
)

// traceProgram is one seeded random program over the whole kernel surface:
// processes that sleep, yield, spawn, park on wakers, wake each other and
// join; callbacks (At and AtArg) that wake and spawn; daemons left parked;
// RunUntil windows with spawns between them. Every step appends (now,
// process id, step) to the trace. A process draws from its own generator, so
// a program is the same program whatever order the kernel runs it in, and
// only the trace tells the orders apart.
type traceProgram struct {
	sim     *Sim
	seed    int64
	out     []byte
	steps   int
	procs   []*Proc // by id-1, in spawn order
	waiters []*traceWaiter
}

type traceWaiter struct {
	w     *Waker
	woken bool
}

func (tp *traceProgram) record(pid, step int) {
	tp.out = binary.LittleEndian.AppendUint64(tp.out, uint64(tp.sim.Now()))
	tp.out = binary.LittleEndian.AppendUint32(tp.out, uint32(pid))
	tp.out = binary.LittleEndian.AppendUint32(tp.out, uint32(step))
	tp.steps++
}

// wakeOne wakes the pick-th waiter still parked, if there is one.
func (tp *traceProgram) wakeOne(pick int) {
	var parked []*traceWaiter
	for _, tw := range tp.waiters {
		if !tw.woken {
			parked = append(parked, tw)
		}
	}
	if len(parked) == 0 {
		return
	}
	tw := parked[pick%len(parked)]
	tw.woken = true
	tw.w.Wake()
}

// spawn starts process number len(procs)+1 with a script of the given
// length; children get shorter scripts, so a program ends.
func (tp *traceProgram) spawn(length int) {
	id := len(tp.procs) + 1
	rng := rand.New(rand.NewSource(tp.seed*1000 + int64(id)))
	body := func(p *Proc) {
		for step := 0; step < length; step++ {
			tp.record(id, step)
			switch op := rng.Intn(10); op {
			case 0, 1, 2:
				p.Sleep(Duration(rng.Intn(4)) * Microsecond)
			case 3:
				p.Yield()
			case 4:
				if len(tp.procs) < 40 {
					tp.spawn(length / 2)
				}
			case 5:
				// Park until someone picks this waiter; a callback a few
				// microseconds out is the safety net, so a program deadlocks
				// only by joining a daemon (about a quarter of them do, and
				// the report is part of the trace).
				tw := &traceWaiter{w: p.Blocker("trace wait")}
				tp.waiters = append(tp.waiters, tw)
				tp.sim.After(Duration(1+rng.Intn(5))*Microsecond, func() {
					tp.record(0, id)
					if !tw.woken {
						tw.woken = true
						tw.w.Wake()
					}
				})
				tw.w.Wait()
			case 6:
				tp.wakeOne(rng.Intn(8))
			case 7:
				// Join a process spawned after this one: no cycles.
				if later := len(tp.procs) - id; later > 0 {
					p.Join(tp.procs[id+rng.Intn(later)])
				}
			case 8:
				pick, grow := rng.Intn(8), rng.Intn(3) == 0
				tp.sim.After(Duration(rng.Intn(3))*Microsecond, func() {
					tp.record(0, 1000+id)
					tp.wakeOne(pick)
					if grow && len(tp.procs) < 40 {
						tp.spawn(length / 2)
					}
				})
			case 9:
				tp.sim.AtArg(tp.sim.Now().Add(Duration(rng.Intn(3))*Microsecond), func(arg uint64) {
					tp.record(0, 2000+int(arg))
				}, uint64(id))
			}
		}
		tp.record(id, length)
	}
	if rng.Intn(12) == 0 {
		// A service loop that outlives the run: parked daemons are part of
		// every real system's end state.
		tp.procs = append(tp.procs, tp.sim.SpawnDaemon(fmt.Sprintf("d%d", id), func(p *Proc) {
			body(p)
			p.Blocker("daemon idle").Wait()
		}))
		return
	}
	tp.procs = append(tp.procs, tp.sim.Spawn(fmt.Sprintf("p%d", id), body))
}

func runTraceProgram(seed int64) ([]byte, int) {
	tp := &traceProgram{sim: New(), seed: seed}
	rng := rand.New(rand.NewSource(seed))
	for i, n := 0, 1+rng.Intn(5); i < n; i++ {
		tp.spawn(4 + rng.Intn(12))
	}
	finish := func(err error) {
		tp.record(0, 9000)
		if err != nil {
			tp.out = append(tp.out, err.Error()...)
		}
	}
	for win, n := 0, rng.Intn(4); win < n; win++ {
		finish(tp.sim.RunUntil(tp.sim.Now().Add(Duration(rng.Intn(6)) * Microsecond)))
		if rng.Intn(2) == 0 && len(tp.procs) < 40 {
			tp.spawn(3 + rng.Intn(6))
		}
	}
	finish(tp.sim.Run())
	return tp.out, tp.steps
}

func TestKernelTraceGolden(t *testing.T) {
	h := fnv.New64a()
	steps := 0
	for seed := int64(1); seed <= 200; seed++ {
		out, n := runTraceProgram(seed)
		h.Write(out)
		steps += n
	}
	if got := h.Sum64(); got != kernelTraceGolden || steps != kernelTraceSteps {
		t.Fatalf("trace of 200 seeded programs: hash %#x over %d steps, pinned %#x over %d: the kernel pops events in a different order",
			got, steps, kernelTraceGolden, kernelTraceSteps)
	}
}
