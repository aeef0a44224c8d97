package vtime

import "fmt"

type procState int

const (
	stateNew procState = iota
	stateScheduled
	stateRunning
	stateParked
	stateDone
)

// proc is the internal process record. The public handle is Proc, embedded
// so that a Spawn allocates one object; records are never reused, so a
// handle kept after its process finished stays safe to ask Done or Join.
type proc struct {
	sim     *Sim
	id      int
	name    string
	fn      func(*Proc)
	w       *worker // the goroutine running fn
	state   procState
	gen     uint64 // bumped on every park; stale wake events are ignored
	waiting string // human-readable blocking reason, for deadlock reports
	subject string // what waiting refers to ("recv" + a channel's name), kept apart so blocking never concatenates
	daemon  bool   // daemons may remain blocked when the simulation ends
	joiners []*proc
	joiner1 [1]*proc // backs joiners for the common single joiner
	handle  Proc
}

// Proc is the handle a simulated process uses to interact with virtual
// time: sleeping, parking, and spawning further processes. Every blocking
// operation in the library takes the caller's Proc.
//
// A Proc must only be used from its own goroutine while that goroutine holds
// control (which is always the case in straight-line process code).
type Proc struct {
	p *proc
}

// worker is a goroutine that runs process functions, one process after the
// other, and the channel it blocks on whenever it does not hold control.
// Spawn takes one off Sim.free or starts one; a process that finishes puts
// its worker back, so a simulation that spawns a process per message keeps
// reusing a handful of goroutines.
type worker struct {
	resume chan struct{}
	p      *proc // the process being run; nil on the free list
}

// loop is the worker's goroutine: run the process, retire it, hand over,
// and come back holding the next process — or none, when Run has released
// the idle workers.
func (w *worker) loop(s *Sim) {
	<-w.resume // the start event of the process the worker was started for
	for w.p != nil {
		p := w.p
		if !p.call() {
			// Run reports the failure recorded by call; this worker ends with
			// its process.
			s.current = nil
			s.home.resume <- struct{}{}
			return
		}
		p.state = stateDone
		delete(s.live, p.id)
		for _, j := range p.joiners {
			s.ready(j)
		}
		p.joiners, p.fn = nil, nil
		w.p = nil
		s.free = append(s.free, w)
		s.handOver(w)
	}
}

// call runs the process function and reports whether it returned; a panic
// becomes the run's failure instead.
func (p *proc) call() (returned bool) {
	defer func() {
		if r := recover(); r != nil {
			p.sim.failure = failure{p: p, value: r}
		}
	}()
	p.fn(&p.handle)
	return true
}

// Spawn creates a process executing fn and schedules it to start at the
// current time. It may be called before Run or from inside a running
// process.
func (s *Sim) Spawn(name string, fn func(*Proc)) *Proc {
	s.nextID++
	p := &proc{sim: s, id: s.nextID, name: name, fn: fn, state: stateScheduled}
	p.handle.p = p
	p.joiners = p.joiner1[:0]
	s.live[p.id] = p
	if n := len(s.free); n > 0 {
		p.w, s.free[n-1] = s.free[n-1], nil
		s.free = s.free[:n-1]
	} else {
		p.w = &worker{resume: make(chan struct{})}
		s.workers++
		go p.w.loop(s)
	}
	p.w.p = p
	s.schedule(event{at: s.now, p: p, gen: p.gen})
	return &p.handle
}

// SpawnDaemon creates a process like Spawn, but marks it as a daemon:
// service loops (channel pollers, gateway forwarding threads) that block
// forever by design. A simulation whose only remaining processes are
// blocked daemons terminates cleanly instead of reporting a deadlock.
func (s *Sim) SpawnDaemon(name string, fn func(*Proc)) *Proc {
	p := s.Spawn(name, fn)
	p.p.daemon = true
	return p
}

// Name returns the process name given at Spawn.
func (pr *Proc) Name() string { return pr.p.name }

// Sim returns the simulation this process belongs to.
func (pr *Proc) Sim() *Sim { return pr.p.sim }

// Now returns the current virtual time.
func (pr *Proc) Now() Time { return pr.p.sim.now }

// checkCurrent panics unless the process is the one the scheduler is
// currently running; calling blocking operations from the wrong goroutine is
// always a programming error and would corrupt the simulation.
func (pr *Proc) checkCurrent(op string) {
	if pr.p.sim.current != pr.p {
		panic(fmt.Sprintf("vtime: %s called on process %q which is not running", op, pr.p.name))
	}
}

// park gives up control without a scheduled wake; some other process or
// callback must call unpark. The reason appears in deadlock reports.
func (pr *Proc) park(reason, subject string) {
	pr.checkCurrent("park")
	p := pr.p
	p.state = stateParked
	p.gen++
	p.waiting, p.subject = reason, subject
	p.sim.handOver(p.w)
	p.waiting, p.subject = "", ""
}

// blockedOn formats the blocking reason for a deadlock report.
func (p *proc) blockedOn() string {
	if p.subject == "" {
		return p.waiting
	}
	return p.waiting + " " + p.subject
}

// unpark schedules a parked process to resume at the current time. It is
// exported within the package for the vsync primitives via Waker.
func (pr *Proc) unpark() {
	pr.p.sim.ready(pr.p)
}

// Parked reports whether the process is currently parked (blocked without a
// scheduled wake).
func (pr *Proc) Parked() bool { return pr.p.state == stateParked }

// Done reports whether the process function has returned.
func (pr *Proc) Done() bool { return pr.p.state == stateDone }

// Sleep suspends the process for d of virtual time. d must be nonnegative;
// Sleep(0) yields to other processes scheduled at the same instant.
func (pr *Proc) Sleep(d Duration) {
	pr.checkCurrent("Sleep")
	if d < 0 {
		panic("vtime: Sleep with negative duration")
	}
	p := pr.p
	p.state = stateParked
	p.gen++
	p.waiting, p.subject = "sleep", ""
	p.sim.schedule(event{at: p.sim.now.Add(d), p: p, gen: p.gen})
	p.state = stateScheduled
	p.sim.handOver(p.w)
	p.waiting = ""
}

// Yield lets every other process scheduled at the current instant run before
// this one continues.
func (pr *Proc) Yield() { pr.Sleep(0) }

// Blocker returns a fresh Waker on which the process can park until another
// process or callback wakes it. The reason string shows up in deadlock
// reports.
//
// Typical use:
//
//	w := p.Blocker("await reply")
//	registerWaiter(w)
//	w.Wait()
//
// Blocker allocates the Waker; paths that block once per transfer embed the
// Waker in the object being waited on and arm it with InitBlocker instead.
func (pr *Proc) Blocker(reason string) *Waker {
	w := new(Waker)
	pr.InitBlocker(w, reason, "")
	return w
}

// InitBlocker arms w, storage owned by the caller, as a one-shot Waker of
// this process: the object waited on (a fluid flow, a posted receive, a
// queue record) embeds its Waker and re-arms it for every wait, so blocking
// allocates nothing. reason and subject ("recv", the channel's name) are
// joined only if a deadlock report needs them. Re-arming a Waker whose
// process is still parked on it panics: the storage was recycled too early.
func (pr *Proc) InitBlocker(w *Waker, reason, subject string) {
	pr.checkCurrent("Blocker")
	if w.parked {
		panic("vtime: Waker re-armed while a process is parked on it")
	}
	*w = Waker{pr: pr, reason: reason, subject: subject}
}

// Waker is a one-shot rendezvous between a process about to block and the
// party that will wake it. Wake may be called before or after Wait; the
// pairing is race-free because the simulation is single-threaded. The zero
// value is unarmed; see Blocker and InitBlocker.
type Waker struct {
	pr              *Proc
	reason, subject string
	woken           bool
	parked          bool
}

// Wait parks the owning process until Wake has been called. If Wake already
// happened, Wait returns immediately (still yielding no time).
func (w *Waker) Wait() {
	if w.woken {
		return
	}
	w.parked = true
	w.pr.park(w.reason, w.subject)
	w.parked = false
}

// Proc returns the process that owns this waker.
func (w *Waker) Proc() *Proc { return w.pr }

// Wake releases the waiter. Waking twice panics: Wakers are strictly
// one-shot so protocol errors surface immediately.
func (w *Waker) Wake() {
	if w.woken {
		panic("vtime: Waker woken twice")
	}
	w.woken = true
	if w.parked {
		w.pr.unpark()
	}
}

// Join blocks until other has finished. Joining a finished process returns
// immediately.
func (pr *Proc) Join(other *Proc) {
	pr.checkCurrent("Join")
	if other.p.state == stateDone {
		return
	}
	other.p.joiners = append(other.p.joiners, pr.p)
	pr.park("join", other.p.name)
}
