package vsync

import (
	"math"

	"madgo/internal/vtime"
)

// Chan is a typed FIFO channel for simulation processes, analogous to a Go
// channel with a fixed capacity. Capacity 0 gives rendezvous semantics: a
// send completes only when a receiver takes the value.
//
// The gateway forwarding engine and the channel polling loops are built on
// Chan: packet mailboxes, free-buffer rings, and request queues.
type Chan[T any] struct {
	name    string
	cap     int
	buf     []T
	senders waitList[T]           // blocked senders and the values they carry
	recvers waitList[recvSlot[T]] // blocked receivers and where their values land
	closed  bool
}

// recvSlot is where a sender (or Close) leaves a blocked receiver's result.
type recvSlot[T any] struct {
	v  T
	ok bool
}

// Unbounded is the capacity of a channel whose Send never blocks: its buffer
// grows as far as it must.
const Unbounded = math.MaxInt

// NewChan creates a channel with the given buffer capacity. The name is used
// in panics and deadlock diagnostics.
func NewChan[T any](name string, capacity int) *Chan[T] {
	c := new(Chan[T])
	c.Init(name, capacity, nil)
	return c
}

// Init readies a channel embedded by value in the object that owns it, as
// NewChan would. Its buffer starts in buf's array (buf must be empty), so a
// channel that seldom holds more than cap(buf) values allocates no buffer.
func (c *Chan[T]) Init(name string, capacity int, buf []T) {
	if capacity < 0 {
		panic("vsync: negative channel capacity")
	}
	*c = Chan[T]{name: name, cap: capacity, buf: buf}
}

// Send enqueues v, blocking while the channel is full. Sending on a closed
// channel panics, as with Go channels.
func (c *Chan[T]) Send(p *vtime.Proc, v T) {
	if c.closed {
		panic("vsync: send on closed channel " + c.name)
	}
	// Direct handoff to a waiting receiver.
	if r := c.recvers.dequeue(); r != nil {
		r.v = recvSlot[T]{v: v, ok: true}
		r.w.Wake()
		return
	}
	if len(c.buf) < c.cap {
		c.buf = append(c.buf, v)
		return
	}
	s := c.senders.enqueue(p, "send", c.name, v)
	s.w.Wait()
	c.senders.release(s)
	if c.closed {
		panic("vsync: channel " + c.name + " closed while sending")
	}
}

// TrySend enqueues v without blocking and reports success.
func (c *Chan[T]) TrySend(v T) bool {
	if c.closed {
		panic("vsync: send on closed channel " + c.name)
	}
	if r := c.recvers.dequeue(); r != nil {
		r.v = recvSlot[T]{v: v, ok: true}
		r.w.Wake()
		return true
	}
	if len(c.buf) < c.cap {
		c.buf = append(c.buf, v)
		return true
	}
	return false
}

// Recv dequeues a value, blocking while the channel is empty. The second
// result is false when the channel is closed and drained.
func (c *Chan[T]) Recv(p *vtime.Proc) (T, bool) {
	var zero T
	if len(c.buf) > 0 {
		return c.shift(), true
	}
	// Rendezvous with a blocked sender (capacity 0, or cap>0 with all
	// senders queued behind a full buffer that was just drained).
	if s := c.senders.dequeue(); s != nil {
		s.w.Wake()
		return s.v, true
	}
	if c.closed {
		return zero, false
	}
	r := c.recvers.enqueue(p, "recv", c.name, recvSlot[T]{})
	r.w.Wait()
	got := r.v
	c.recvers.release(r)
	return got.v, got.ok
}

// TryRecv dequeues without blocking; ok is false when nothing was available
// (which does not distinguish empty from closed — use Closed for that).
func (c *Chan[T]) TryRecv() (T, bool) {
	var zero T
	if len(c.buf) > 0 {
		return c.shift(), true
	}
	if s := c.senders.dequeue(); s != nil {
		s.w.Wake()
		return s.v, true
	}
	return zero, false
}

// shift takes the buffer's head, clears the slot the move vacates so it
// keeps nothing reachable, and admits a blocked sender to the room made.
func (c *Chan[T]) shift() T {
	var zero T
	v := c.buf[0]
	n := copy(c.buf, c.buf[1:])
	c.buf[n] = zero
	c.buf = c.buf[:n]
	c.admitSender()
	return v
}

// admitSender moves the longest-blocked sender's value into freed buffer
// space.
func (c *Chan[T]) admitSender() {
	if c.senders.len() > 0 && len(c.buf) < c.cap {
		s := c.senders.dequeue()
		c.buf = append(c.buf, s.v)
		s.w.Wake()
	}
}

// Close marks the channel closed. Blocked receivers are released with
// ok=false; blocked senders panic (their values would be lost silently
// otherwise).
func (c *Chan[T]) Close() {
	if c.closed {
		panic("vsync: double close of channel " + c.name)
	}
	c.closed = true
	for r := c.recvers.dequeue(); r != nil; r = c.recvers.dequeue() {
		r.w.Wake() // its slot still says ok=false
	}
	for s := c.senders.dequeue(); s != nil; s = c.senders.dequeue() {
		s.w.Wake() // sender panics on resume
	}
}

// Closed reports whether Close has been called.
func (c *Chan[T]) Closed() bool { return c.closed }

// Len returns the number of buffered values.
func (c *Chan[T]) Len() int { return len(c.buf) }

// Name returns the channel's diagnostic name.
func (c *Chan[T]) Name() string { return c.name }
