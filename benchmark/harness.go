package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"syscall"
	"time"

	madeleine "madgo"
	"madgo/internal/fwd"
)

// trialMode selects what a trial arms and how hard it checks.
type trialMode struct {
	fullVerify bool // compare every payload byte (warm-up and traced runs)
	traced     bool // arm metrics and tracer, record harness spans
	ringCap    int  // flight ring capacity; 0 keeps the library's default
}

// span is one harness span: a call (or pair of calls) into the library seen
// from outside, on both clocks. Spans of one message share its index; the
// pack and unpack spans of a message are children of its message span.
type span struct {
	name      string // "pack" or "unpack"
	flow, msg int
	node      string
	v0, v1    madeleine.Time
	h0, h1    time.Duration // host time since the trial's Run began
}

// trial is everything one run of a workload measured.
type trial struct {
	sys    *madeleine.System
	tracer *madeleine.Tracer // armed in traced and observed trials

	runErr    error
	attempted int
	delivered int   // arrived in per-flow order and verified
	payload   int64 // application bytes unpacked by verified deliveries
	lastAt    madeleine.Time
	latUS     []float64 // virtual µs, one per timed message
	flowMBps  []float64 // virtual goodput of every (sender, receiver) pair

	setup      time.Duration // topology text to ready-to-Run
	wall       time.Duration // around System.Run only
	cpu        time.Duration // user+sys of the process around System.Run
	mallocs    uint64
	allocBytes uint64
	copied     int64 // System.Copies() bytes

	// What the flight recorder saw: the largest number of events any node
	// recorded, and the share of all events its rings had overwritten by
	// the end of the run.
	ringNeed    int
	ringDropped float64

	spans []span
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stamp writes the message index over the first 8 bytes of a payload and
// returns what was there, for the sender to put back once EndPacking has
// returned and the library no longer reads the buffer.
func stamp(b []byte, index int) (saved [8]byte) {
	copy(saved[:], b[:8])
	binary.LittleEndian.PutUint64(b[:8], uint64(index))
	return saved
}

// verify checks a received message against message index i of flow f: the
// stamped index, and either every remaining byte or the last 64.
func verify(got []byte, f *flowSpec, i int, full bool) bool {
	if len(got) != f.sizes[i] || binary.LittleEndian.Uint64(got[:8]) != uint64(i) {
		return false
	}
	want := f.window(f.pat, i)
	from := 8
	if !full && len(got) > 8+64 {
		from = len(got) - 64
	}
	return bytes.Equal(got[from:], want[from:])
}

// runTrial builds a fresh system from the workload's generated input, spawns
// its load, runs it and measures the run on both clocks.
func runTrial(w *workload, v *variant, mode trialMode) *trial {
	t := &trial{attempted: w.messages(v)}
	opts := w.opts()
	if mode.traced || w.observed {
		t.tracer = madeleine.NewTracer()
		opts = append(opts, madeleine.WithMetrics(madeleine.NewMetrics()), madeleine.WithTracer(t.tracer))
	}
	if mode.ringCap > 0 {
		opts = append(opts, madeleine.WithFlightRingCap(mode.ringCap))
	}

	// The harness's own per-message arrays are not part of the set-up.
	t.latUS = make([]float64, 0, t.attempted)
	if mode.traced {
		t.spans = make([]span, 0, 2*t.attempted)
	}
	sentAt := make([][]madeleine.Time, len(v.flows))
	for fi := range v.flows {
		sentAt[fi] = make([]madeleine.Time, len(v.flows[fi].sizes))
	}

	runtime.GC()
	setup0 := time.Now()
	sys, err := madeleine.NewSystem(v.topo, opts...)
	if err != nil {
		t.runErr = err
		return t
	}
	t.sys = sys
	var run0 time.Time
	record := func(name string, flow, msg int, node string, v0 madeleine.Time, h0 time.Duration, p *madeleine.Proc) {
		t.spans = append(t.spans, span{name, flow, msg, node, v0, p.Now(), h0, time.Since(run0)})
	}
	hostNow := func() time.Duration {
		if !mode.traced {
			return 0
		}
		return time.Since(run0)
	}

	// One receiver per node that unpacks: it knows, per sending rank, which
	// flow the message belongs to and which index comes next, which is the
	// per-flow order check.
	type rxFlow struct {
		flow int
		next int            // next expected message index
		last madeleine.Time // virtual time of the pair's last delivery
		n    int64          // payload bytes delivered
	}
	type receiver struct {
		node   string
		expect int
		inline bool // drained by the node's own sender between sends (ping-pong)
		byRank map[madeleine.Rank]*rxFlow
		pairs  []*rxFlow
		buf    []byte
	}
	var receivers []*receiver
	byNode := map[string]*receiver{}
	addPair := func(node, from string, fi int) *receiver {
		r := byNode[node]
		if r == nil {
			r = &receiver{node: node, byRank: map[madeleine.Rank]*rxFlow{}}
			byNode[node] = r
			receivers = append(receivers, r)
		}
		f := &v.flows[fi]
		rf := &rxFlow{flow: fi}
		r.byRank[sys.Rank(from)] = rf
		r.pairs = append(r.pairs, rf)
		r.expect += len(f.sizes)
		if need := len(f.pat) - patSlack; need > len(r.buf) {
			r.buf = w.rxBuffer(node, need)
		}
		return r
	}
	for fi := range v.flows {
		f := &v.flows[fi]
		for _, dst := range f.dsts {
			addPair(dst, f.src, fi)
		}
		if w.pingpong {
			addPair(f.src, f.dsts[0], fi).inline = true
		}
	}

	// deliver unpacks one message at r and checks it. ok is false when the
	// message was out of order or its bytes were wrong.
	deliver := func(p *madeleine.Proc, ep *fwd.Endpoint, r *receiver) (fi, i int, ok bool) {
		h0, v0 := hostNow(), p.Now()
		u := ep.BeginUnpacking(p)
		rf := r.byRank[u.From()]
		if rf == nil || rf.next >= len(v.flows[rf.flow].sizes) {
			panic(fmt.Sprintf("benchmark: %s received an unexpected message from rank %d", r.node, u.From()))
		}
		f := &v.flows[rf.flow]
		fi, i = rf.flow, rf.next
		got := r.buf[:f.sizes[i]]
		u.Unpack(p, got, madeleine.SendCheaper, madeleine.ReceiveCheaper)
		u.EndUnpacking(p)
		if mode.traced {
			record("unpack", fi, i, r.node, v0, h0, p)
		}
		rf.next++
		if !verify(got, f, i, mode.fullVerify) {
			return fi, i, false
		}
		rf.last = p.Now()
		rf.n += int64(len(got))
		t.delivered++
		t.payload += int64(len(got))
		if p.Now() > t.lastAt {
			t.lastAt = p.Now()
		}
		return fi, i, true
	}

	for fi := range v.flows {
		fi, f := fi, &v.flows[fi]
		sys.Spawn("send:"+f.src, func(p *madeleine.Proc) {
			ep := sys.At(f.src)
			for i := range f.sizes {
				data := f.window(f.tx, i)
				h0 := hostNow()
				sentAt[fi][i] = p.Now()
				var px *madeleine.Packing
				if len(f.dsts) == 1 {
					px = ep.BeginPacking(p, f.dsts[0])
				} else {
					px = ep.BeginMulticast(p, f.dsts...)
				}
				saved := stamp(data, i)
				px.Pack(p, data, madeleine.SendCheaper, madeleine.ReceiveCheaper)
				px.EndPacking(p)
				copy(data[:8], saved[:])
				if mode.traced {
					record("pack", fi, i, f.src, sentAt[fi][i], h0, p)
				}
				if w.pingpong {
					// The round trip ends when the echo is unpacked here.
					if _, _, ok := deliver(p, ep, byNode[f.src]); ok {
						t.latUS = append(t.latUS, p.Now().Sub(sentAt[fi][i]).Microseconds())
					}
				}
			}
		})
	}
	for _, r := range receivers {
		if r.inline {
			continue
		}
		r := r
		sys.Spawn("recv:"+r.node, func(p *madeleine.Proc) {
			ep := sys.At(r.node)
			for n := 0; n < r.expect; n++ {
				fi, i, ok := deliver(p, ep, r)
				switch {
				case !ok:
				case w.pingpong:
					f := &v.flows[fi]
					px := ep.BeginPacking(p, f.src)
					px.Pack(p, r.buf[:f.sizes[i]], madeleine.SendCheaper, madeleine.ReceiveCheaper)
					px.EndPacking(p)
				default:
					t.latUS = append(t.latUS, p.Now().Sub(sentAt[fi][i]).Microseconds())
				}
			}
		})
	}
	t.setup = time.Since(setup0)

	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	run0 = time.Now()
	t.runErr = runGuarded(sys)
	t.wall = time.Since(run0)
	t.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&m1)
	t.mallocs = m1.Mallocs - m0.Mallocs
	t.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	_, t.copied = sys.Copies()
	var events, dropped uint64
	for _, node := range sys.Flight().Nodes() {
		ring := sys.Flight().Ring(node)
		n := uint64(ring.Len()) + ring.Dropped()
		events, dropped = events+n, dropped+ring.Dropped()
		if int(n) > t.ringNeed {
			t.ringNeed = int(n)
		}
	}
	t.ringDropped = ratio(float64(dropped), float64(events))

	for _, r := range receivers {
		for _, rf := range r.pairs {
			if rf.last > 0 {
				t.flowMBps = append(t.flowMBps, float64(rf.n)/madeleine.Duration(rf.last).Seconds()/1e6)
			} else {
				t.flowMBps = append(t.flowMBps, 0)
			}
		}
	}
	return t
}

// release drops the trial's system once its counters have been read, so that
// a dozen finished simulations do not stay reachable from the results.
func (t *trial) release() { t.sys, t.tracer = nil, nil }

// runGuarded turns a panic raised inside a simulated process (the library's
// answer to a protocol error) into the run's error, so a broken delivery
// counts as failed messages instead of killing the benchmark.
func runGuarded(sys *madeleine.System) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic in System.Run: %v", r)
		}
	}()
	return sys.Run()
}

// rxBuffer returns the receive buffer of a node, allocated once per workload
// so that zeroing a megabyte is not charged to every trial's set-up.
func (w *workload) rxBuffer(node string, size int) []byte {
	if w.rx == nil {
		w.rx = map[string][]byte{}
	}
	if len(w.rx[node]) < size {
		w.rx[node] = make([]byte, size)
	}
	return w.rx[node]
}
