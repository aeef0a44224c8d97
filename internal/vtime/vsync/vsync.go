// Package vsync provides synchronization primitives for vtime processes:
// mutexes, condition variables, semaphores, typed channels and wait groups.
//
// They mirror the thread primitives the original Madeleine gateway code uses
// (Marcel threads), but block in virtual time. All operations must be called
// from the currently running simulation process, which is passed explicitly;
// misuse panics immediately.
package vsync

import (
	"madgo/internal/vtime"
)

// waitRec is one parked process in a primitive's queue, with whatever the
// primitive keeps per waiter (a semaphore's permit count, a channel's value
// in transit). It embeds the Waker the process parks on, so a record must
// keep its address while queued: queues hold pointers.
type waitRec[T any] struct {
	w vtime.Waker
	v T
}

// waitList is the FIFO of parked processes behind every primitive in this
// package. Records are recycled: the waiter puts its record back once it has
// resumed and read what the waker left in it, so in steady state blocking
// allocates nothing.
type waitList[T any] struct {
	q    []*waitRec[T]
	free []*waitRec[T]
}

// enqueue arms a record for p and appends it; the caller then parks on
// rec.w and, once resumed, hands the record back with release.
func (l *waitList[T]) enqueue(p *vtime.Proc, reason, subject string, v T) *waitRec[T] {
	var r *waitRec[T]
	if n := len(l.free); n > 0 {
		r, l.free = l.free[n-1], l.free[:n-1]
	} else {
		r = new(waitRec[T])
	}
	p.InitBlocker(&r.w, reason, subject)
	r.v = v
	l.q = append(l.q, r)
	return r
}

// dequeue removes and returns the longest-waiting record, or nil. The
// waker's side never releases it: the record belongs to its waiter until
// that process has resumed.
func (l *waitList[T]) dequeue() *waitRec[T] {
	if len(l.q) == 0 {
		return nil
	}
	r := l.q[0]
	n := copy(l.q, l.q[1:])
	l.q[n] = nil
	l.q = l.q[:n]
	return r
}

// release recycles a record whose waiter has resumed.
func (l *waitList[T]) release(r *waitRec[T]) {
	var zero T
	r.v = zero
	l.free = append(l.free, r)
}

func (l *waitList[T]) len() int { return len(l.q) }

// Mutex is a FIFO mutual-exclusion lock for simulation processes. The zero
// value is an unlocked mutex.
type Mutex struct {
	owner   *vtime.Proc
	waiters waitList[struct{}]
}

// Lock acquires the mutex, blocking p until it is available. The lock is not
// reentrant; relocking by the owner panics (it would self-deadlock anyway,
// so fail fast).
func (m *Mutex) Lock(p *vtime.Proc) {
	if m.owner == p {
		panic("vsync: recursive Mutex.Lock")
	}
	if m.owner == nil {
		m.owner = p
		return
	}
	r := m.waiters.enqueue(p, "mutex", "", struct{}{})
	r.w.Wait()
	m.waiters.release(r)
	if m.owner != p {
		panic("vsync: mutex handoff corrupted")
	}
}

// TryLock acquires the mutex without blocking and reports whether it
// succeeded.
func (m *Mutex) TryLock(p *vtime.Proc) bool {
	if m.owner == nil {
		m.owner = p
		return true
	}
	return false
}

// Unlock releases the mutex, handing it to the longest-waiting process.
func (m *Mutex) Unlock(p *vtime.Proc) {
	if m.owner != p {
		panic("vsync: Unlock by non-owner")
	}
	r := m.waiters.dequeue()
	if r == nil {
		m.owner = nil
		return
	}
	m.owner = r.w.Proc()
	r.w.Wake()
}

// Locked reports whether the mutex is currently held.
func (m *Mutex) Locked() bool { return m.owner != nil }

// Cond is a condition variable bound to a Mutex, with the usual
// Wait/Signal/Broadcast semantics. Unlike sync.Cond there are no spurious
// wakeups, but callers should still re-check their predicate in a loop: a
// signalled process reacquires the lock after other processes may have run.
type Cond struct {
	L       *Mutex
	waiters waitList[struct{}]
}

// NewCond returns a condition variable using l.
func NewCond(l *Mutex) *Cond { return &Cond{L: l} }

// Wait atomically unlocks the mutex, parks p until Signal or Broadcast, and
// relocks before returning.
func (c *Cond) Wait(p *vtime.Proc) {
	r := c.waiters.enqueue(p, "cond wait", "", struct{}{})
	c.L.Unlock(p)
	r.w.Wait()
	c.waiters.release(r)
	c.L.Lock(p)
}

// Signal wakes the longest-waiting process, if any.
func (c *Cond) Signal() {
	if r := c.waiters.dequeue(); r != nil {
		r.w.Wake()
	}
}

// Broadcast wakes every waiting process in FIFO order.
func (c *Cond) Broadcast() {
	for r := c.waiters.dequeue(); r != nil; r = c.waiters.dequeue() {
		r.w.Wake()
	}
}

// Sem is a counting semaphore. The zero value has zero permits.
type Sem struct {
	permits int
	waiters waitList[int] // each waiter's permit count
}

// NewSem returns a semaphore holding n permits.
func NewSem(n int) *Sem { return &Sem{permits: n} }

// Acquire takes n permits, blocking until they are available. Waiters are
// served strictly FIFO, so a large acquire is not starved by small ones.
func (s *Sem) Acquire(p *vtime.Proc, n int) {
	if n < 0 {
		panic("vsync: Acquire with negative count")
	}
	if s.waiters.len() == 0 && s.permits >= n {
		s.permits -= n
		return
	}
	r := s.waiters.enqueue(p, "semaphore", "", n)
	r.w.Wait()
	s.waiters.release(r)
}

// TryAcquire takes n permits without blocking and reports success.
func (s *Sem) TryAcquire(n int) bool {
	if s.waiters.len() == 0 && s.permits >= n {
		s.permits -= n
		return true
	}
	return false
}

// Release returns n permits and serves queued waiters in order.
func (s *Sem) Release(n int) {
	if n < 0 {
		panic("vsync: Release with negative count")
	}
	s.permits += n
	for s.waiters.len() > 0 && s.permits >= s.waiters.q[0].v {
		r := s.waiters.dequeue()
		s.permits -= r.v
		r.w.Wake()
	}
}

// Available returns the number of free permits.
func (s *Sem) Available() int { return s.permits }

// WaitGroup waits for a collection of processes to finish, mirroring
// sync.WaitGroup.
type WaitGroup struct {
	count   int
	waiters waitList[struct{}]
}

// Add adds delta to the counter. A negative total panics.
func (wg *WaitGroup) Add(delta int) {
	wg.count += delta
	if wg.count < 0 {
		panic("vsync: negative WaitGroup counter")
	}
	if wg.count == 0 {
		for r := wg.waiters.dequeue(); r != nil; r = wg.waiters.dequeue() {
			r.w.Wake()
		}
	}
}

// Done decrements the counter by one.
func (wg *WaitGroup) Done() { wg.Add(-1) }

// Wait blocks p until the counter reaches zero.
func (wg *WaitGroup) Wait(p *vtime.Proc) {
	if wg.count == 0 {
		return
	}
	r := wg.waiters.enqueue(p, "waitgroup", "", struct{}{})
	r.w.Wait()
	wg.waiters.release(r)
}
