// Package fluid models data transfers as fluid flows over shared,
// capacity-limited resources (PCI buses, network wires, NIC engines).
//
// A transfer is a flow of N bytes routed through an ordered set of
// resources; its instantaneous rate is the result of a max-min fair
// allocation subject to per-resource capacities, per-flow demand caps (the
// speed the initiating engine could reach on an idle machine) and
// per-resource arbitration policies (e.g. "PIO transactions progress at half
// speed while a DMA transaction is active", the PCI behaviour measured in
// §3.4 of the paper).
//
// Rates are piecewise constant: they change only when a flow starts or
// finishes, so an entire bandwidth sweep costs a handful of events per
// packet rather than per byte. Progress is integrated lazily at each change.
package fluid

import (
	"fmt"
	"math"

	"madgo/internal/obs"
	"madgo/internal/vtime"
)

// Class tags a flow with the kind of bus/link transaction it performs.
// Resources interpret classes in their arbitration policies; the fluid
// engine itself treats them as opaque.
type Class uint8

// Transaction classes used by the hardware models.
const (
	ClassDMA  Class = iota // card-initiated DMA (Myrinet LANai, SCI ingress)
	ClassPIO               // processor PIO (SCI egress writes)
	ClassWire              // time on a network cable
	ClassCPU               // host memory copies
)

func (c Class) String() string {
	switch c {
	case ClassDMA:
		return "DMA"
	case ClassPIO:
		return "PIO"
	case ClassWire:
		return "wire"
	case ClassCPU:
		return "CPU"
	default:
		return fmt.Sprintf("class(%d)", uint8(c))
	}
}

// Hop is one step of a flow's route: a resource plus the transaction class
// the flow presents to that resource. The same transfer can be PIO on the
// sender's PCI bus yet a card-initiated DMA write on the receiver's bus —
// exactly the SCI situation in the paper — so the class is per hop, not per
// flow.
type Hop struct {
	R     *Resource
	Class Class
}

// Presence is a flow as seen by one resource: the flow plus the class of its
// hop there.
type Presence struct {
	Flow  *Flow
	Class Class
}

// AdjustFunc is a resource arbitration policy: given one flow's presence and
// every presence currently active on the resource (including self), it
// returns a multiplier applied to the flow's demand. Multipliers from all
// resources on a flow's route compose multiplicatively.
type AdjustFunc func(self Presence, active []Presence) float64

// Resource is a shared capacity: a bus, a wire, a NIC engine.
type Resource struct {
	name     string
	capacity float64 // bytes/second
	adjust   AdjustFunc

	flows  []Presence // active flows through this resource; starts in first
	served float64    // total bytes moved through this resource (diagnostics)
	first  [2]Presence

	// Water-filling scratch of computeRates: the capacity not yet frozen
	// and the flows still sharing it, valid while epoch is the engine's
	// current allocation round. A resource belongs to one engine.
	capLeft float64
	count   int
	epoch   uint64
}

// Name returns the resource name.
func (r *Resource) Name() string { return r.name }

// Capacity returns the resource capacity in bytes per second.
func (r *Resource) Capacity() float64 { return r.capacity }

// BytesServed returns the total number of bytes moved through the resource
// since creation; tests use it for conservation checks and benchmarks for
// utilization reports.
func (r *Resource) BytesServed() float64 { return r.served }

// ActiveFlows returns the number of flows currently routed through the
// resource.
func (r *Resource) ActiveFlows() int { return len(r.flows) }

// Flow is one in-progress transfer.
type Flow struct {
	id        uint64
	name      string
	class     Class   // class of the first hop, for diagnostics
	demand    float64 // nominal engine rate, bytes/s
	effective float64 // demand times the arbitration multipliers, this allocation round
	remaining float64 // bytes left
	total     float64
	route     []Hop
	rate      float64 // current allocated rate
	updated   vtime.Time
	started   vtime.Time
	waker     vtime.Waker // the process blocked in TransferOK parks here
	blocking  bool        // waker is armed and not yet woken
	onDone    func()
	canceled  bool
}

// Name returns the flow's diagnostic name.
func (f *Flow) Name() string { return f.name }

// Class returns the transaction class of the flow's first hop.
func (f *Flow) Class() Class { return f.class }

// Rate returns the currently allocated rate in bytes/s.
func (f *Flow) Rate() float64 { return f.rate }

// Remaining returns the bytes not yet transferred.
func (f *Flow) Remaining() float64 { return f.remaining }

// Canceled reports whether the flow was torn down by CancelOn before its
// last byte moved (a link-down or node-crash window cut it).
func (f *Flow) Canceled() bool { return f.canceled }

// Engine owns a set of resources and the flows over them.
type Engine struct {
	sim      *vtime.Sim
	nextID   uint64
	flows    []*Flow // live flows, in creation (id) order
	timerGen uint64
	onTimer  func(gen uint64) // timerFired, bound once

	// Scratch reused by every allocation round, so that in steady state a
	// transfer allocates nothing: retired flows awaiting their wake-up, the
	// water-filling work lists, the round counter stamping Resource
	// scratch, and the Flow records of finished blocking transfers.
	done     []*Flow
	unfrozen []*Flow
	limits   []float64
	epoch    uint64
	free     []*Flow

	// The flow lifecycle metrics, the per-flow ones by the class of the
	// flow's first hop. The gauge and the histograms are nil, recording
	// nothing, until BindMetrics.
	active   *obs.Gauge
	canceled obs.Counter
	class    [ClassCPU + 1]struct {
		started, completed, bytes obs.Counter
		seconds                   *obs.Histogram
	}
}

// BindMetrics binds the engine's metrics in m.
func (e *Engine) BindMetrics(m *obs.Registry) {
	e.active = m.BindGauge("madgo_active_flows", nil)
	m.BindCounter(&e.canceled, "madgo_flows_canceled_total", nil)
	for c := range e.class {
		labels, cm := obs.Labels{"class": Class(c).String()}, &e.class[c]
		m.BindCounter(&cm.started, "madgo_flows_started_total", labels)
		m.BindCounter(&cm.completed, "madgo_flows_completed_total", labels)
		m.BindCounter(&cm.bytes, "madgo_flow_bytes_total", labels)
		cm.seconds = m.BindHistogram("madgo_flow_seconds", labels)
	}
}

// NewEngine creates a fluid engine bound to the simulation clock.
func NewEngine(sim *vtime.Sim) *Engine {
	e := &Engine{sim: sim}
	e.onTimer = e.timerFired
	return e
}

// NewResource registers a resource with the given capacity in bytes/s.
// adjust may be nil for plain max-min sharing.
func (e *Engine) NewResource(name string, capacity float64, adjust AdjustFunc) *Resource {
	r := new(Resource)
	e.InitResource(r, name, capacity, adjust)
	return r
}

// InitResource is NewResource into a record its caller allocated, one of a
// batch say. The record must not move afterwards: its list of flows starts
// inside it, which is room for what a wire carries at a time, and a bus's
// grows past it on demand.
func (e *Engine) InitResource(r *Resource, name string, capacity float64, adjust AdjustFunc) {
	if capacity <= 0 {
		panic("fluid: resource with nonpositive capacity: " + name)
	}
	*r = Resource{name: name, capacity: capacity, adjust: adjust}
	r.flows = r.first[:0]
}

// Spec describes a transfer. Route hops carry their own transaction class;
// the helper Path builds a route where every hop shares Spec.Class.
type Spec struct {
	Name   string
	Class  Class   // default class for Path-built routes; diagnostic otherwise
	Demand float64 // engine's nominal rate, bytes/s; must be > 0
	Bytes  int64   // must be > 0
	Route  []Hop
}

// Path builds a route in which every hop presents class c.
func Path(c Class, rs ...*Resource) []Hop {
	hops := make([]Hop, len(rs))
	for i, r := range rs {
		hops[i] = Hop{R: r, Class: c}
	}
	return hops
}

// Transfer moves Spec.Bytes through the route, blocking the calling process
// until the last byte has been delivered. It returns the elapsed virtual
// time.
//
// Zero-byte transfers complete immediately without touching the allocator.
func (e *Engine) Transfer(p *vtime.Proc, spec Spec) vtime.Duration {
	d, _ := e.TransferOK(p, spec)
	return d
}

// TransferOK is Transfer but additionally reports whether the flow ran to
// completion: ok is false when a fault window cancelled it mid-transfer (see
// CancelOn), in which case the bytes must be considered lost.
func (e *Engine) TransferOK(p *vtime.Proc, spec Spec) (vtime.Duration, bool) {
	if spec.Bytes == 0 {
		return 0, true
	}
	f := e.start(spec)
	f.blocking = true
	p.InitBlocker(&f.waker, "flow", spec.Name)
	f.waker.Wait()
	d, ok := vtime.Since(e.sim.Now(), f.started), !f.canceled
	// The flow left the engine's lists before its waiter was woken and
	// nobody else ever saw it: its record serves a later transfer. Flows
	// handed out by Start stay with their caller and never come back here.
	e.free = append(e.free, f)
	return d, ok
}

// Start begins a transfer without blocking; onDone (may be nil) runs in
// scheduler context when the last byte arrives. Most drivers use Transfer;
// Start exists for NIC models that overlap a bus phase with a wire phase
// explicitly.
func (e *Engine) Start(spec Spec, onDone func()) *Flow {
	if spec.Bytes == 0 {
		if onDone != nil {
			e.sim.After(0, onDone)
		}
		return nil
	}
	f := e.start(spec)
	f.onDone = onDone
	return f
}

func (e *Engine) start(spec Spec) *Flow {
	if spec.Bytes < 0 {
		panic("fluid: negative transfer size")
	}
	if spec.Demand <= 0 {
		panic("fluid: transfer with nonpositive demand: " + spec.Name)
	}
	if len(spec.Route) == 0 {
		panic("fluid: transfer with empty route: " + spec.Name)
	}
	e.nextID++
	var f *Flow
	if n := len(e.free); n > 0 {
		f, e.free = e.free[n-1], e.free[:n-1]
	} else {
		f = new(Flow)
	}
	*f = Flow{
		id:        e.nextID,
		name:      spec.Name,
		class:     spec.Class,
		demand:    spec.Demand,
		remaining: float64(spec.Bytes),
		total:     float64(spec.Bytes),
		route:     spec.Route,
		updated:   e.sim.Now(),
		started:   e.sim.Now(),
	}
	e.integrate()
	e.flows = append(e.flows, f)
	for _, h := range f.route {
		h.R.flows = append(h.R.flows, Presence{Flow: f, Class: h.Class})
	}
	e.class[spec.Class].started.Add(1)
	e.reallocate()
	return f
}

// integrate advances every active flow's progress to the current instant at
// its previously allocated rate.
func (e *Engine) integrate() {
	now := e.sim.Now()
	for _, f := range e.flows {
		dt := vtime.Since(now, f.updated).Seconds()
		if dt > 0 && f.rate > 0 {
			moved := f.rate * dt
			if moved > f.remaining {
				moved = f.remaining
			}
			f.remaining -= moved
			for _, h := range f.route {
				h.R.served += moved
			}
		}
		f.updated = now
	}
}

// completionEps absorbs float rounding: a flow with fewer than this many
// bytes left is complete.
const completionEps = 1e-3

// reallocate recomputes all rates and schedules the next completion. It must
// run after integrate whenever the flow set changes.
func (e *Engine) reallocate() {
	// Retire completed flows first. The done list is taken off the engine
	// while it is in use: a completion callback may start a flow, which
	// re-enters here.
	done := e.done[:0]
	e.done = nil
	live := e.flows[:0]
	for _, f := range e.flows {
		if f.remaining <= completionEps {
			done = append(done, f)
		} else {
			live = append(live, f)
		}
	}
	e.flows = live
	for _, f := range done {
		for _, h := range f.route {
			h.R.flows = removeFlow(h.R.flows, f)
		}
	}

	e.computeRates()
	e.scheduleNextCompletion()
	e.active.Set(float64(len(e.flows)))

	// Wake finishers after the new schedule is in place.
	for _, f := range done {
		f.remaining = 0
		f.rate = 0
		cm := &e.class[f.class]
		cm.completed.Add(1)
		cm.bytes.Add(int64(f.total))
		cm.seconds.ObserveDuration(vtime.Since(e.sim.Now(), f.started))
		e.finish(f)
	}
	clear(done)
	e.done = done[:0]
}

// finish releases whoever waits for f: the process blocked in TransferOK or
// the completion callback given to Start.
func (e *Engine) finish(f *Flow) {
	if f.blocking {
		f.blocking = false
		f.waker.Wake()
	}
	if f.onDone != nil {
		fn := f.onDone
		f.onDone = nil
		fn()
	}
}

func removeFlow(flows []Presence, f *Flow) []Presence {
	for i, g := range flows {
		if g.Flow == f {
			return append(flows[:i], flows[i+1:]...)
		}
	}
	return flows
}

// computeRates runs priority-adjusted max-min (water-filling) over the live
// flows. Deterministic: flows are processed in creation order, which is the
// order of e.flows (flows are appended as they start, and retiring or
// cancelling filters the list stably). The per-resource and per-flow work
// values live in scratch fields stamped with the round's epoch instead of
// maps built per call; every sum, product and comparison runs in the order
// it always did, so rates are bit-identical.
func (e *Engine) computeRates() {
	if len(e.flows) == 0 {
		return
	}
	flows := e.flows

	// Effective demand: nominal demand times the product of arbitration
	// multipliers along the route.
	for _, f := range flows {
		d := f.demand
		for _, h := range f.route {
			if h.R.adjust != nil {
				m := h.R.adjust(Presence{Flow: f, Class: h.Class}, h.R.flows)
				if m < 0 {
					panic("fluid: negative arbitration multiplier on " + h.R.name)
				}
				d *= m
			}
		}
		f.effective = d
	}

	e.epoch++
	for _, f := range flows {
		for _, h := range f.route {
			if h.R.epoch != e.epoch {
				h.R.epoch = e.epoch
				h.R.capLeft = h.R.capacity
				h.R.count = 0
			}
			h.R.count++
		}
	}

	work := append(e.unfrozen[:0], flows...)
	unfrozen, limits := work, e.limits
	for len(unfrozen) > 0 {
		// Per-flow limit against the current snapshot: demand or the
		// tightest fair share on the flow's route.
		limits = limits[:0]
		lmin := math.Inf(1)
		for _, f := range unfrozen {
			l := f.effective
			for _, h := range f.route {
				share := h.R.capLeft / float64(h.R.count)
				if share < l {
					l = share
				}
			}
			limits = append(limits, l)
			if l < lmin {
				lmin = l
			}
		}
		// Freeze every flow bottlenecked at the minimum; apply capacity
		// updates only after the freeze set is fixed. The survivors are
		// compacted in place, behind the read position.
		rest := unfrozen[:0]
		for i, f := range unfrozen {
			if limits[i] <= lmin*(1+1e-12) {
				f.rate = lmin
				for _, h := range f.route {
					h.R.capLeft -= lmin
					if h.R.capLeft < 0 {
						h.R.capLeft = 0
					}
					h.R.count--
				}
			} else {
				rest = append(rest, f)
			}
		}
		if len(rest) == len(unfrozen) {
			panic("fluid: water-filling made no progress")
		}
		unfrozen = rest
	}
	clear(work) // scratch must not pin flows that have left the engine
	e.unfrozen, e.limits = work[:0], limits[:0]
}

// scheduleNextCompletion arms a single timer at the earliest flow
// completion. Any later change to the flow set invalidates it via timerGen.
func (e *Engine) scheduleNextCompletion() {
	e.timerGen++
	if len(e.flows) == 0 {
		return
	}
	eta := vtime.Time(math.MaxInt64)
	for _, f := range e.flows {
		if f.rate <= 0 {
			continue // starved flow; will progress when others finish
		}
		// Ceil to a whole nanosecond so the flow is certainly done when
		// the timer fires.
		d := vtime.Duration(math.Ceil(f.remaining / f.rate * float64(vtime.Second)))
		if t := e.sim.Now().Add(d); t < eta {
			eta = t
		}
	}
	if eta == vtime.Time(math.MaxInt64) {
		panic("fluid: all flows starved — resource capacities misconfigured")
	}
	e.sim.AtArg(eta, e.onTimer, e.timerGen)
}

// timerFired is the completion timer's callback; gen is the timerGen it was
// armed under, and a timer overtaken by a later change of the flow set does
// nothing.
func (e *Engine) timerFired(gen uint64) {
	if gen != e.timerGen {
		return
	}
	e.integrate()
	e.reallocate()
}

// ActiveFlows returns the number of in-progress flows (diagnostics).
func (e *Engine) ActiveFlows() int { return len(e.flows) }

// CancelOn tears down every active flow routed through r — the fluid-level
// consequence of a link going down or a host crashing: in-flight transfers
// stop instantly, their waiters wake with the flow marked Canceled, and the
// remaining flows are re-allocated over the freed capacity. It returns the
// number of flows cancelled. Must run in scheduler context (a callback or a
// process), like every engine entry point.
func (e *Engine) CancelOn(r *Resource) int {
	var doomed []*Flow
	for _, f := range e.flows {
		for _, h := range f.route {
			if h.R == r {
				doomed = append(doomed, f)
				break
			}
		}
	}
	if len(doomed) == 0 {
		return 0
	}
	e.integrate()
	for _, f := range doomed {
		f.canceled = true
	}
	live := e.flows[:0]
	for _, f := range e.flows {
		if !f.canceled {
			live = append(live, f)
		}
	}
	e.flows = live
	for _, f := range doomed {
		for _, h := range f.route {
			h.R.flows = removeFlow(h.R.flows, f)
		}
		f.rate = 0
	}
	e.computeRates()
	e.scheduleNextCompletion()
	e.active.Set(float64(len(e.flows)))
	e.canceled.Add(int64(len(doomed)))
	for _, f := range doomed {
		e.finish(f)
	}
	return len(doomed)
}
