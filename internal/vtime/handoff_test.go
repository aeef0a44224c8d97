package vtime

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// The hand-off's hazards (DESIGN.md §20), one test each, then what Run must
// keep reporting byte for byte, then the worker lifecycle.

// TestYielderReadsNothingAfterHandingOver: the process a yielder wakes runs
// concurrently with the yielder's goroutine until that goroutine blocks, and
// its first act here is to wake the yielder back — a write to the yielder's
// record. The race detector fails this test if handOver looks at that record
// (or anything else of the simulation's) after its send.
func TestYielderReadsNothingAfterHandingOver(t *testing.T) {
	s := New()
	const rounds = 2000
	var turn [2]*Waker
	count := 0
	for i := 0; i < 2; i++ {
		s.Spawn(fmt.Sprintf("player%d", i), func(p *Proc) {
			for k := 0; k < rounds; k++ {
				if other := turn[1-i]; other != nil {
					turn[1-i] = nil
					other.Wake()
				}
				count++
				turn[i] = p.Blocker("turn")
				turn[i].Wait()
			}
			if other := turn[1-i]; other != nil {
				turn[1-i] = nil
				other.Wake()
			}
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if count != 2*rounds {
		t.Fatalf("played %d turns, want %d", count, 2*rounds)
	}
}

// TestFinishedProcessRunsItsSuccessor: a finished process's goroutine runs
// the event loop; a callback there spawns a process, which takes the worker
// just freed — the very goroutine that then pops the newcomer's start event.
// It has to notice the event is its own (comparing workers: the process
// record is a different one) rather than send to itself and hang.
func TestFinishedProcessRunsItsSuccessor(t *testing.T) {
	s := New()
	ran := false
	s.Spawn("first", func(p *Proc) {
		s.After(0, func() {
			s.Spawn("second", func(p *Proc) {
				p.Sleep(Microsecond)
				ran = true
			})
		})
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("the process spawned onto its spawner's worker never ran")
	}
	if s.workers != 1 {
		t.Fatalf("%d workers started, want 1: the second process should reuse the first one's", s.workers)
	}
}

// TestCallbackPanicUnderProcessSurfacesFromRun: a callback that panics while
// a sleeping process's goroutine runs the event loop is Run's to report,
// with the value it was raised with — not the process's, whose function is
// merely parked further up that goroutine's stack and must not be unwound.
func TestCallbackPanicUnderProcessSurfacesFromRun(t *testing.T) {
	s := New()
	boom := errors.New("callback boom")
	unwound, finished := false, false
	s.Spawn("bystander", func(p *Proc) {
		defer func() { unwound = true }()
		p.Sleep(2 * Microsecond)
		finished = true
	})
	s.After(Microsecond, func() { panic(boom) })
	if r := panicOf(func() { _ = s.Run() }); r != boom {
		t.Fatalf("Run panicked with %v, want the callback's own value", r)
	}
	if unwound {
		t.Fatal("the callback's panic unwound the process that was running the event loop")
	}
	// The bystander is still parked on its sleep, and the run resumable.
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !finished {
		t.Fatal("bystander did not finish in the resumed run")
	}
}

// TestBlockingCallFromCallbackPanics: no process is current while callbacks
// run, whichever goroutine runs them, so a callback that blocks on a
// process's behalf — here the very process whose goroutine it runs on — is
// caught by checkCurrent instead of corrupting the hand-off.
func TestBlockingCallFromCallbackPanics(t *testing.T) {
	s := New()
	var handle *Proc
	var caught interface{}
	s.Spawn("sleeper", func(p *Proc) {
		handle = p
		p.Sleep(2 * Microsecond)
	})
	s.After(Microsecond, func() {
		defer func() { caught = recover() }()
		handle.Sleep(Microsecond)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := `vtime: Sleep called on process "sleeper" which is not running`
	if caught != want {
		t.Fatalf("Sleep from a callback: recovered %v, want %q", caught, want)
	}
}

// panicOf returns what f panicked with, nil if it returned.
func panicOf(f func()) (r interface{}) {
	defer func() { r = recover() }()
	f()
	return nil
}

func TestProcessPanicMessage(t *testing.T) {
	s := New()
	s.Spawn("quiet", func(p *Proc) { p.Sleep(5 * Microsecond) })
	s.Spawn("bomber", func(p *Proc) {
		p.Sleep(Microsecond)
		panic(fmt.Errorf("boom %d", 7))
	})
	want := `vtime: process "bomber" panicked: boom 7`
	if r := panicOf(func() { _ = s.Run() }); r != want {
		t.Fatalf("Run panicked with %v, want %q", r, want)
	}
}

// TestAbortReturnsItsErrorAndTheRunResumes: an Abort ends the run with its
// error, retires the aborting process without waking its joiners, and leaves
// every other process and event where it was.
func TestAbortReturnsItsErrorAndTheRunResumes(t *testing.T) {
	s := New()
	gaveUp := errors.New("gave up")
	quitter := s.Spawn("quitter", func(p *Proc) {
		p.Sleep(Microsecond)
		panic(Abort{Err: gaveUp})
	})
	ticks := 0
	s.Spawn("ticker", func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Sleep(Microsecond)
			ticks++
		}
	})
	s.Spawn("joiner", func(p *Proc) { p.Join(quitter) })
	if err := s.Run(); err != gaveUp {
		t.Fatalf("Run = %v, want the Abort's error", err)
	}
	if !quitter.Done() || s.Processes() != 2 || s.Now() != Time(Microsecond) {
		t.Fatalf("after the Abort: done=%v live=%d now=%v, want true 2 1µs", quitter.Done(), s.Processes(), s.Now())
	}
	err := s.Run()
	if ticks != 5 {
		t.Fatalf("ticker made %d of 5 ticks in the resumed run", ticks)
	}
	if want := "vtime: deadlock, blocked processes: joiner (join quitter)"; err == nil || err.Error() != want {
		t.Fatalf("resumed Run = %v, want %q", err, want)
	}
}

// TestCallbackAbortReturnsItsError: a callback's Abort ends the run with its
// error as a process's does, whether the goroutine inside Run runs the
// callback (the first event) or a process goroutine does (a later one), and
// leaves every process and later event where it was.
func TestCallbackAbortReturnsItsError(t *testing.T) {
	for _, at := range []Duration{0, 2 * Microsecond} {
		s := New()
		gaveUp := errors.New("gave up")
		s.AtArg(Time(at), func(uint64) { panic(Abort{Err: gaveUp}) }, 0)
		ticks := 0
		s.Spawn("ticker", func(p *Proc) {
			for i := 0; i < 5; i++ {
				p.Sleep(Microsecond)
				ticks++
			}
		})
		if err := s.Run(); err != gaveUp || s.Now() != Time(at) {
			t.Fatalf("abort at %v: Run = %v at %v, want the Abort's error then", at, err, s.Now())
		}
		if err := s.Run(); err != nil || ticks != 5 {
			t.Fatalf("abort at %v: resumed Run = %v with %d of 5 ticks", at, err, ticks)
		}
	}
	s := New()
	s.After(0, func() { panic("boom") })
	if r := panicOf(func() { _ = s.Run() }); r != "boom" {
		t.Fatalf("a callback's other panic: Run panicked with %v, want it unchanged", r)
	}
}

// TestDeadlockReportListing pins the report: stuck processes sorted by
// name, each with what it waits on, daemons left out, every OnIdle hook run
// once, in registration order, before Run returns.
func TestDeadlockReportListing(t *testing.T) {
	s := New()
	var hooks []string
	s.OnIdle(func() { hooks = append(hooks, "first") })
	s.OnIdle(func() { hooks = append(hooks, "second") })
	s.SpawnDaemon("service", func(p *Proc) { p.Blocker("idle").Wait() })
	never := s.Spawn("zed", func(p *Proc) {
		var w Waker
		p.InitBlocker(&w, "recv", "mailbox")
		w.Wait()
	})
	s.Spawn("amy", func(p *Proc) { p.Join(never) })
	s.Spawn("done", func(p *Proc) { p.Sleep(Microsecond) })
	err := s.Run()
	if want := "vtime: deadlock, blocked processes: amy (join zed), zed (recv mailbox)"; err == nil || err.Error() != want {
		t.Fatalf("Run = %v, want %q", err, want)
	}
	if got := strings.Join(hooks, ","); got != "first,second" {
		t.Fatalf("OnIdle hooks ran as %q, want first,second", got)
	}
}

// goroutinesSettleAt polls until at most want goroutines are left, for two
// seconds at most: a released worker has been told to exit when Run
// returns, and exiting is the Go scheduler's to get around to.
func goroutinesSettleAt(want int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); n > want && time.Now().Before(deadline); {
		time.Sleep(100 * time.Microsecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// TestRunLeavesNoIdleWorkers: a run that drained its queue leaves behind the
// goroutines of its parked daemons and nothing else, however many processes
// came and went.
func TestRunLeavesNoIdleWorkers(t *testing.T) {
	before := runtime.NumGoroutine() // too high if an earlier test's workers are still on their way out, never too low
	s := New()
	const daemons = 3
	for i := 0; i < daemons; i++ {
		s.SpawnDaemon("service", func(p *Proc) { p.Blocker("idle").Wait() })
	}
	for i := 0; i < 50; i++ {
		s.Spawn("burst", func(p *Proc) {
			p.Sleep(Duration(i%5) * Microsecond)
			p.Join(s.Spawn("child", func(c *Proc) { c.Sleep(Microsecond) }))
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if s.workers < 50 {
		t.Fatalf("only %d workers started for 50 concurrent processes", s.workers)
	}
	if got := goroutinesSettleAt(before + daemons); got > before+daemons {
		t.Fatalf("%d goroutines after Run, want %d (the %d parked daemons over the %d before)", got, before+daemons, daemons, before)
	}
	if len(s.free) != 0 {
		t.Fatalf("%d workers still on the free list", len(s.free))
	}
}

// TestSpawnChurnReusesWorkers: a thousand processes that come and go a few
// at a time run on a few goroutines, and every handle stays valid.
func TestSpawnChurnReusesWorkers(t *testing.T) {
	s := New()
	const lanes, perLane = 4, 250
	var handles []*Proc
	finished := 0
	for l := 0; l < lanes; l++ {
		s.Spawn("lane", func(p *Proc) {
			for i := 0; i < perLane; i++ {
				h := s.Spawn("job", func(c *Proc) {
					c.Sleep(Microsecond)
					finished++
				})
				handles = append(handles, h)
				p.Join(h)
			}
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if finished != lanes*perLane {
		t.Fatalf("%d of %d jobs finished", finished, lanes*perLane)
	}
	if s.workers > 2*lanes {
		t.Fatalf("%d workers started for %d lanes of one job at a time, want at most %d", s.workers, lanes, 2*lanes)
	}
	for _, h := range handles {
		if !h.Done() || h.Name() != "job" {
			t.Fatal("the handle of a finished process no longer describes it")
		}
	}
}

// TestSpawnJoinAllocBudget: in steady state a Spawn allocates the process
// record — handle and first joiner slot inside it — and its caller the
// closure; goroutine and channel come off the free list.
func TestSpawnJoinAllocBudget(t *testing.T) {
	s := New()
	children := 0
	s.SpawnDaemon("parent", func(p *Proc) {
		for {
			p.Join(s.Spawn("child", func(c *Proc) {
				c.Sleep(2 * Microsecond)
				children++
			}))
		}
	})
	if allocs := steadyAllocs(t, s) / 50; allocs > 2 {
		t.Errorf("a steady-state Spawn + Join allocates %.2f times, budget 2 (process record, caller's closure)", allocs)
	}
}
