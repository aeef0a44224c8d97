package flow

import "madgo/internal/vtime"

// DRR is a deficit-round-robin scheduler over flows whose item costs are
// only known after service — the gateway situation: a relayed message's
// byte count is discovered while forwarding it, not when its arrival is
// queued. Each flow keeps a FIFO queue and a signed deficit counter in cost
// units (bytes). A visit replenishes the flow's deficit by the quantum
// (capped at one quantum of savings, so an idle flow cannot hoard a burst);
// the flow is served when its deficit is non-negative, and Charge()
// afterwards debits the actual cost. A flow that just relayed an elephant
// goes deep into debt and is skipped until enough rounds repay it, while
// mouse flows are served every round — long-run byte rates equalize across
// backlogged flows regardless of per-message size, which FIFO token grabs
// never do.
//
// A visit may serve several items (PopFrom) until the flow's deficit runs
// out. When it ends earlier only because the flow's queue ran dry — a sender
// that announces its next item a moment after the previous one was served —
// the caller suspends it (Suspend) instead of forfeiting the rest of the
// quantum, and the flow's next item resumes the visit (Resume) ahead of the
// ring, with no fresh quantum. The suspension lapses when the ring comes
// back to the flow, so a round still serves a flow at most one quantum plus
// one item and an idle flow banks nothing.
//
// A DRR has one consumer, a simulation process that takes its items with
// Next and parks there while every queue is empty; Push wakes it. Pop, PopFrom
// and Resume never park.
//
// The scheduler is deterministic: flows are visited in admission order from
// a slice, never by map iteration. It is not safe for concurrent use; in
// this codebase it only ever runs under the single-threaded simulation
// scheduler.
type DRR[T any] struct {
	quantum int64
	flows   map[string]*drrFlow[T]
	ring    []string // admission-ordered visit sequence
	cur     int
	queued  int   // total items across all flows
	rounds  int64 // completed passes over the ring
	// suspended lists the flows whose visit is suspended, oldest first.
	suspended []string
	// parked: the consumer waits in Next, on wake.
	parked bool
	wake   vtime.Waker
}

type drrFlow[T any] struct {
	q       []T
	head    int // index of the queue head; q[:head] is dead space to recycle
	deficit int64
	// suspended: the flow's last visit ran its queue dry with deficit left,
	// and the ring has not come back to it since.
	suspended bool
}

// NewDRR returns a scheduler with the given replenishment quantum in cost
// units. A non-positive quantum is pinned to 1 (pure round-robin over
// items).
func NewDRR[T any](quantum int64) *DRR[T] {
	if quantum < 1 {
		quantum = 1
	}
	return &DRR[T]{quantum: quantum, flows: make(map[string]*drrFlow[T])}
}

func (d *DRR[T]) flow(key string) *drrFlow[T] {
	f, ok := d.flows[key]
	if !ok {
		f = &drrFlow[T]{}
		d.flows[key] = f
		d.ring = append(d.ring, key)
	}
	return f
}

// Push appends an item to the named flow's queue, admitting the flow on
// first use, and wakes the consumer parked in Next.
func (d *DRR[T]) Push(key string, item T) {
	f := d.flow(key)
	if f.head > 0 && f.head == len(f.q) {
		f.q = f.q[:0]
		f.head = 0
	}
	f.q = append(f.q, item)
	d.queued++
	if d.parked {
		d.parked = false
		d.wake.Wake()
	}
}

// Next is the consumer's take: it parks p while every queue is empty, then
// continues the oldest suspended visit whose next item match accepts
// (Resume), or else returns the next item under the DRR policy (Pop).
func (d *DRR[T]) Next(p *vtime.Proc, match func(T) bool) (key string, item T) {
	for d.queued == 0 {
		p.InitBlocker(&d.wake, "drr", "")
		d.parked = true
		d.wake.Wait()
	}
	key, item, ok := d.Resume(match)
	if !ok {
		key, item, _ = d.Pop()
	}
	return key, item
}

// Pop returns the next item under the DRR policy along with its flow key,
// or ok=false when every queue is empty. The caller settles the item's
// actual cost with Charge once it is known.
func (d *DRR[T]) Pop() (key string, item T, ok bool) {
	var zero T
	if d.queued == 0 {
		return "", zero, false
	}
	// Bounded: each pass either serves an item or strictly raises the
	// most indebted non-empty flow toward zero, and debts are bounded by
	// the largest single charge.
	for {
		key = d.ring[d.cur]
		f := d.flows[key]
		d.cur++
		if d.cur == len(d.ring) {
			d.cur = 0
			d.rounds++
		}
		if f.suspended {
			d.lapse(key, f)
		}
		if f.head == len(f.q) {
			// Idle flows pay down debt at the same rate active ones
			// earn quantum, but never bank a surplus: a flow cannot
			// profit from going quiet.
			if f.deficit < 0 {
				f.deficit += d.quantum
				if f.deficit > 0 {
					f.deficit = 0
				}
			}
			continue
		}
		f.deficit += d.quantum
		if f.deficit > d.quantum {
			f.deficit = d.quantum
		}
		if f.deficit < 0 {
			continue
		}
		return key, d.take(f), true
	}
}

// take pops the head of a non-empty flow.
func (d *DRR[T]) take(f *drrFlow[T]) T {
	var zero T
	item := f.q[f.head]
	f.q[f.head] = zero // release the reference for GC
	f.head++
	d.queued--
	return item
}

// PopFrom pops the head item of one specific flow if the queue is
// non-empty and match accepts it — the relay daemons use it to extend a
// just-scheduled flow's service into a windowed burst without giving other
// flows' deficits a say mid-burst. The cost still goes through Charge.
func (d *DRR[T]) PopFrom(key string, match func(T) bool) (item T, ok bool) {
	var zero T
	f, exists := d.flows[key]
	if !exists || f.head == len(f.q) {
		return zero, false
	}
	if match != nil && !match(f.q[f.head]) {
		return zero, false
	}
	return d.take(f), true
}

// Suspend ends the visit to the named flow the way a dry queue should: if
// the queue is empty and the deficit not yet spent, the visit is suspended
// and Resume will continue it when the flow's next item has arrived. A visit
// that ended for another reason — deficit spent, a head item the caller does
// not extend visits with — is just over.
func (d *DRR[T]) Suspend(key string) {
	if f, ok := d.flows[key]; ok && !f.suspended && f.head == len(f.q) && f.deficit >= 0 {
		f.suspended = true
		d.suspended = append(d.suspended, key)
	}
}

// Resume continues the oldest suspended visit whose flow has an item again:
// it pops the flow's head item, with no fresh quantum, and the caller goes on
// as after Pop. A flow whose head item match rejects is not resumed, and its
// suspension ends. ok is false when no suspended flow has anything queued.
func (d *DRR[T]) Resume(match func(T) bool) (key string, item T, ok bool) {
	for i := 0; i < len(d.suspended); {
		key = d.suspended[i]
		f := d.flows[key]
		if f.head == len(f.q) {
			i++
			continue
		}
		d.lapse(key, f) // the next suspension is now the i-th
		if match == nil || match(f.q[f.head]) {
			return key, d.take(f), true
		}
	}
	var zero T
	return "", zero, false
}

// lapse ends a suspension.
func (d *DRR[T]) lapse(key string, f *drrFlow[T]) {
	f.suspended = false
	for i, k := range d.suspended {
		if k == key {
			d.suspended = append(d.suspended[:i], d.suspended[i+1:]...)
			return
		}
	}
}

// Charge debits the actual cost of a served item against its flow.
func (d *DRR[T]) Charge(key string, cost int64) {
	if f, ok := d.flows[key]; ok {
		f.deficit -= cost
	}
}

// Len returns the total number of queued items.
func (d *DRR[T]) Len() int { return d.queued }

// Flows returns how many flows currently have queued items.
func (d *DRR[T]) Flows() int {
	n := 0
	for _, f := range d.flows {
		if f.head < len(f.q) {
			n++
		}
	}
	return n
}

// Rounds returns how many full passes over the admitted flows the
// scheduler has completed.
func (d *DRR[T]) Rounds() int64 { return d.rounds }

// Deficit returns the named flow's current deficit (0 for unknown flows) —
// a test hook.
func (d *DRR[T]) Deficit(key string) int64 {
	if f, ok := d.flows[key]; ok {
		return f.deficit
	}
	return 0
}
