package vtime

import (
	"fmt"
	"sort"
	"strings"
)

// event is a scheduled occurrence: either resuming a parked process or
// running a lightweight callback in scheduler context.
type event struct {
	at  Time
	seq uint64       // FIFO tiebreaker for simultaneous events
	p   *proc        // process to resume, nil for callbacks
	gen uint64       // park generation guard for p (stale wakes are dropped); the argument of fnArg
	fn  func()       // plain callback (At, After)
	arg func(uint64) // callback taking gen as its argument (AtArg)
}

// before is the queue order: time first, then scheduling order. seq is
// unique, so the order is total and any correct priority queue pops the
// same sequence.
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// eventHeap is a binary min-heap of events held by value: scheduling an
// event allocates nothing once the backing array has grown to the run's
// high-water mark.
type eventHeap []event

func (h *eventHeap) push(e event) {
	q := append(*h, e)
	*h = q
	// Sift the hole up, then drop e into it.
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !e.before(&q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = e
}

func (h *eventHeap) pop() event {
	q := *h
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = event{} // drop the references the vacated slot held
	q = q[:n]
	*h = q
	if n == 0 {
		return top
	}
	// Sift the hole at the root down, then drop last into it.
	i := 0
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && q[r].before(&q[child]) {
			child = r
		}
		if !q[child].before(&last) {
			break
		}
		q[i] = q[child]
		i = child
	}
	q[i] = last
	return top
}

// Sim is a discrete-event simulation. The zero value is not usable; create
// simulations with New.
//
// All processes of a Sim run one at a time — exactly one goroutine holds
// control at any moment, and it passes control on itself (handOver) — so no
// locking is needed anywhere in simulation code.
type Sim struct {
	now     Time
	seq     uint64
	events  eventHeap
	live    map[int]*proc
	nextID  int
	running bool
	current *proc
	idle    []func() // hooks run when the event queue drains (diagnostics)

	// The hand-off (DESIGN.md §20).
	home     worker    // the goroutine inside Run: it runs no process, it only has a channel to wait on
	deadline Time      // of the run in progress; negative for none
	failure  failure   // why a process goroutine sent control home, if not for the deadline or an empty queue
	free     []*worker // workers whose process finished, awaiting the next Spawn; the last freed is reused first
	workers  int       // workers started so far (tests)
}

// failure is a panic on its way to Run, which alone reports panics: out of a
// process function (p set), or out of a callback that a process goroutine
// was running because the event loop was its to run (p nil).
type failure struct {
	p     *proc
	value interface{}
}

// New creates an empty simulation with the clock at zero.
func New() *Sim {
	return &Sim{
		live: make(map[int]*proc),
		home: worker{resume: make(chan struct{})},
	}
}

// Now returns the current virtual time.
func (s *Sim) Now() Time { return s.now }

// schedule enqueues e at its time (>= now), stamping its sequence number.
func (s *Sim) schedule(e event) {
	if e.at < s.now {
		panic(fmt.Sprintf("vtime: scheduling into the past (%v < %v)", e.at, s.now))
	}
	s.seq++
	e.seq = s.seq
	s.events.push(e)
}

// At schedules fn to run in scheduler context at absolute time at. The
// callback must not block; it is intended for bookkeeping such as fluid-flow
// completions. Callbacks may schedule further events and wake processes.
func (s *Sim) At(at Time, fn func()) {
	s.schedule(event{at: at, fn: fn})
}

// AtArg is At for a callback bound once and told apart by an argument: a
// caller that re-arms one timer many times (the fluid engine's completion
// timer and its generation) passes the same fn every time instead of
// allocating a closure per arming.
func (s *Sim) AtArg(at Time, fn func(arg uint64), arg uint64) {
	s.schedule(event{at: at, gen: arg, arg: fn})
}

// After schedules fn to run d from now. See At.
func (s *Sim) After(d Duration, fn func()) {
	if d < 0 {
		panic("vtime: After with negative duration")
	}
	s.At(s.now.Add(d), fn)
}

// OnIdle registers a diagnostic hook invoked once when the event queue
// drains while processes are still alive (i.e. on deadlock detection),
// before Run returns the DeadlockError.
func (s *Sim) OnIdle(fn func()) { s.idle = append(s.idle, fn) }

// Abort is a panic value that ends the simulation cleanly: a process or a
// callback that panics with an Abort makes Run return Err instead of
// re-raising the panic in the caller. The reliability layer uses it to
// surface typed delivery errors (a destination that stayed unreachable
// through every retry) without either crashing the host program or leaving
// the simulation deadlocked.
type Abort struct{ Err error }

// DeadlockError reports that the event queue drained while processes were
// still blocked. It lists the stuck processes and what they were last
// waiting on.
type DeadlockError struct {
	Stuck []string
}

func (e DeadlockError) Error() string {
	return "vtime: deadlock, blocked processes: " + strings.Join(e.Stuck, ", ")
}

// Run executes the simulation until no events remain. It returns nil when
// every process has finished, and a DeadlockError when processes remain
// blocked with nothing left to wake them. A panic inside a process is
// re-raised in the caller, annotated with the process name — except an
// Abort, whose error is returned instead.
func (s *Sim) Run() error {
	return s.run(-1)
}

// RunUntil executes the simulation, stopping before the first event
// scheduled after the deadline. Remaining events stay queued; Run or
// RunUntil may be called again. The clock is left at the time of the last
// executed event (it does not jump to the deadline).
func (s *Sim) RunUntil(deadline Time) error {
	return s.run(deadline)
}

func (s *Sim) run(deadline Time) error {
	if s.running {
		panic("vtime: Run called reentrantly")
	}
	s.running = true
	s.deadline = deadline
	defer func() {
		s.running = false
		if len(s.events) == 0 {
			s.releaseIdle()
		}
	}()

	// Control comes back here at the deadline, on an empty queue, or with a
	// failure to report.
	s.handOver(&s.home)
	if f := s.failure; f.value != nil {
		s.failure = failure{}
		ab, abort := f.value.(Abort)
		if f.p == nil {
			if abort {
				return ab.Err
			}
			panic(f.value)
		}
		if abort {
			f.p.state = stateDone
			delete(s.live, f.p.id)
			return ab.Err
		}
		panic(fmt.Sprintf("vtime: process %q panicked: %v", f.p.name, f.value))
	}
	if len(s.events) > 0 {
		return nil // the deadline
	}
	var stuck []string
	for _, p := range s.live {
		if !p.daemon {
			stuck = append(stuck, fmt.Sprintf("%s (%s)", p.name, p.blockedOn()))
		}
	}
	if len(stuck) > 0 {
		for _, fn := range s.idle {
			fn()
		}
		sort.Strings(stuck)
		return DeadlockError{Stuck: stuck}
	}
	return nil
}

// handOver is the kernel's one context switch. The caller is the goroutine
// of worker w and has just given up control: its process parked, went to
// sleep or finished, or it is the goroutine inside Run. It runs the event
// loop itself, up to the first event that resumes a process. If that is the
// process w runs — a sleeper whose own wake is the next event, or a process
// Spawn has put on this worker since the last one finished — handOver just
// returns: no goroutine switch. Otherwise it wakes the worker whose turn it
// is and blocks until control comes back to w: one switch.
//
// The goroutine woken runs concurrently with this one until this one blocks,
// so nothing here may touch simulation state after the send; in particular
// "do I wait at all?" is decided before it.
func (s *Sim) handOver(w *worker) {
	s.current = nil // callbacks run as nobody: a blocking call from one panics in checkCurrent
	next := s.advance(w)
	if next == w {
		return
	}
	next.resume <- struct{}{}
	<-w.resume
}

// advance pops events — callbacks run inline, stale wakes are dropped — up
// to the first one that resumes a process, marks that process running and
// returns its worker. When the run must stop instead (the deadline, an empty
// queue) it returns the home worker.
//
// A callback that panics under the goroutine inside Run unwinds out of Run,
// stack and all, unless it panics with an Abort. Under a process goroutine
// (w is not home) it must not unwind into the process function that happens
// to be parked further up that stack: the panic stops here, and travels home
// as the run's failure, as an Abort does from home.
func (s *Sim) advance(w *worker) (next *worker) {
	defer func() {
		if r := recover(); r != nil {
			if _, abort := r.(Abort); !abort && w == &s.home {
				panic(r)
			}
			s.failure = failure{value: r}
			next = &s.home
		}
	}()
	for len(s.events) > 0 {
		if s.deadline >= 0 && s.events[0].at > s.deadline {
			break
		}
		e := s.events.pop()
		s.now = e.at
		if e.fn != nil {
			e.fn()
			continue
		}
		if e.arg != nil {
			e.arg(e.gen)
			continue
		}
		p := e.p
		if p.state == stateDone || p.gen != e.gen {
			continue // stale wake
		}
		p.state = stateRunning
		s.current = p
		return p.w
	}
	return &s.home
}

// releaseIdle ends the goroutines of the idle workers: a run that drained
// its queue leaves behind only the goroutines of processes still parked.
func (s *Sim) releaseIdle() {
	for _, w := range s.free {
		w.resume <- struct{}{} // w.p is nil, which ends worker.loop
	}
	s.free = nil
}

// ready wakes a parked process at the current time (FIFO among same-time
// wakes).
func (s *Sim) ready(p *proc) {
	if p.state != stateParked {
		panic(fmt.Sprintf("vtime: waking process %q which is not parked", p.name))
	}
	p.state = stateScheduled
	s.schedule(event{at: s.now, p: p, gen: p.gen})
}

// Processes returns the number of live (not yet finished) processes.
func (s *Sim) Processes() int { return len(s.live) }

// ProcessNames returns the names of the live processes in the order they were
// spawned, the order that breaks ties between processes due at one instant
// (diagnostics).
func (s *Sim) ProcessNames() []string {
	ps := make([]*proc, 0, len(s.live))
	for _, p := range s.live {
		ps = append(ps, p)
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].id < ps[j].id })
	names := make([]string, len(ps))
	for i, p := range ps {
		names[i] = p.name
	}
	return names
}
