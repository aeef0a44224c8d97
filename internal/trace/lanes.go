package trace

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
	"sort"
	"strconv"

	"madgo/internal/fault"
	"madgo/internal/flight"
	"madgo/internal/hw"
	"madgo/internal/obs"
	"madgo/internal/vtime"
)

// Of derives the lanes of a run from what its platform recorded:
//   - "<gw>:recv:<net>" and "<gw>:send:<net>", a gateway's relay pipeline:
//     the recv, send, swap and stall events its threads tag on its ring;
//   - "stripe:<src>><dst>", one "rail<N>" span for each rail of a striped message;
//   - "rel:<node>", the reliable engine's recovery marks: resend, rexmit,
//     failover, e2e and dup read from the provenance hops (so only with a
//     metrics registry), corrupt-drop from the node's ring;
//   - "fault:<net>", the injector's drop and corrupt marks and the flap
//     windows, and "fault:<node>", the crash windows, each window once it
//     has started.
//
// Spans come in the order they were recorded, by the instant of recording;
// a window is recorded when it opens. The error is a *Truncated when a
// flight ring overwrote events: the Log then misses the start of the run.
func Of(pl *hw.Platform) (Log, error) {
	type recorded struct {
		at vtime.Time
		s  Span
	}
	var out []recorded
	if pl.Faults != nil {
		for _, w := range pl.Faults.Windows() {
			if w.At > pl.Sim.Now() {
				continue
			}
			s := Span{Actor: "fault:" + w.Net, Op: "flap", T0: w.At, T1: w.At.Add(w.For)}
			if w.Kind == fault.Crash {
				s.Actor, s.Op = "fault:"+w.Node, "crash"
			}
			out = append(out, recorded{w.At, s})
		}
	}
	for _, e := range pl.Flight.Events() {
		s := Span{Op: e.Kind.String(), Bytes: int(e.Bytes), T0: e.At.Add(-e.Dur), T1: e.At}
		switch {
		case e.Kind == flight.KindRail:
			s.Actor, s.Op = "stripe:"+e.Node+">"+e.Net, "rail"+strconv.Itoa(int(e.Tag))
		case e.Kind == flight.KindDrop || e.Kind == flight.KindCorrupt:
			s.Actor = "fault:" + e.Net
		case e.Kind == flight.KindCorruptDrop:
			s.Actor = "rel:" + e.Node
		case e.Tag == flight.TagRecv:
			s.Actor = e.Node + ":recv:" + e.Net
		case e.Tag == flight.TagSend:
			s.Actor = e.Node + ":send:" + e.Net
			if e.Kind == flight.KindReplicate {
				s.Op = "send"
			}
		default:
			continue
		}
		out = append(out, recorded{e.At, s})
	}
	for _, h := range pl.Metrics.Hops() {
		switch h.Op {
		case "resend", "rexmit", "failover", "e2e", "dup":
			out = append(out, recorded{h.At, Span{Actor: "rel:" + h.Node, Op: h.Op, Bytes: h.Bytes, T0: h.At, T1: h.At}})
		}
	}
	slices.SortStableFunc(out, func(a, b recorded) int { return cmp.Compare(a.at, b.at) })
	l := make(Log, len(out))
	for i, r := range out {
		l[i] = r.s
	}
	return l, truncation(pl.Flight)
}

// Truncated is Of's error when a flight ring overwrote events before they
// were read: the lanes miss what that ring recorded before Since and are
// complete only from Since on.
type Truncated struct {
	Dropped uint64     // events overwritten, over every ring
	Since   vtime.Time // the first instant from which every ring holds all it recorded
}

func (e *Truncated) Error() string {
	return fmt.Sprintf("trace: the flight rings overwrote %d events, so the lanes are complete only from %v; raise the ring capacity", e.Dropped, e.Since)
}

// truncation returns a *Truncated when a ring of rec overwrote events. A
// ring records in time order, so what it overwrote ended no later than the
// oldest event it holds.
func truncation(rec *flight.Recorder) error {
	t := &Truncated{Dropped: rec.Dropped()}
	for _, node := range rec.Nodes() {
		if r := rec.Ring(node); r.Dropped() > 0 {
			t.Since = max(t.Since, r.Snapshot()[0].At+1)
		}
	}
	if t.Dropped == 0 {
		return nil
	}
	return t
}

// Replay renders every flight event as a span of its node's "flight:<node>"
// lane, so the Chrome exporter draws the raw rings next to the lanes.
func Replay(events []flight.Event) Log {
	out := make(Log, 0, len(events))
	for _, e := range events {
		t0 := e.At
		if e.Dur > 0 && vtime.Time(e.Dur) <= e.At {
			t0 = e.At.Add(-e.Dur)
		}
		out = append(out, Span{Actor: "flight:" + e.Node, Op: e.Kind.String(), Bytes: int(e.Bytes), T0: t0, T1: e.At})
	}
	return out
}

// Lanes decomposes every actor of l over [t0, t1) into busy, stall and idle
// time (obs.Lane). Interval coverage is computed on the merged union of
// spans, so overlapping or duplicate spans are not double-counted. Lanes are
// returned sorted by actor name; an empty window yields nil.
func (l Log) Lanes(t0, t1 vtime.Time) []obs.Lane {
	if t1 <= t0 {
		return nil
	}
	window := t1.Sub(t0)
	var lanes []obs.Lane
	for _, actor := range l.Actors() {
		var busy, stall []ival
		n := 0
		opCount := make(map[string]int)
		for _, s := range l.ByActor(actor) {
			iv, ok := clip(s, t0, t1)
			if !ok {
				continue
			}
			n++
			opCount[s.Op]++
			if s.Op == "swap" || s.Op == "stall" {
				stall = append(stall, iv)
			} else {
				busy = append(busy, iv)
			}
		}
		if n == 0 {
			continue
		}
		ln := obs.Lane{Actor: actor, Window: window, Busy: coverage(busy), Stall: coverage(stall), Spans: n}
		ln.Idle = max(window-ln.Busy-ln.Stall, 0)
		ln.Utilization = float64(ln.Busy) / float64(window)
		// The steady period drops the first and last interval: the
		// pipeline's fill and drain.
		if periods := l.Periods(actor, dominantOp(opCount)); len(periods) > 2 {
			periods = periods[1 : len(periods)-1]
			var sum vtime.Duration
			for _, p := range periods {
				sum += p
			}
			ln.SteadyPeriod = sum / vtime.Duration(len(periods))
		}
		lanes = append(lanes, ln)
	}
	return lanes
}

// ival is one clipped half-open interval.
type ival struct{ t0, t1 vtime.Time }

// clip restricts a span to [t0, t1); ok is false when it falls entirely
// outside.
func clip(s Span, t0, t1 vtime.Time) (ival, bool) {
	iv := ival{max(s.T0, t0), min(s.T1, t1)}
	return iv, iv.t0 <= iv.t1 && s.T1 >= t0 && s.T0 < t1
}

// coverage returns the total length of the union of the intervals.
func coverage(ivs []ival) vtime.Duration {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].t0 < ivs[j].t0 })
	var total vtime.Duration
	cur := ivs[0]
	for _, iv := range ivs[1:] {
		if iv.t0 <= cur.t1 {
			cur.t1 = max(cur.t1, iv.t1)
			continue
		}
		total += cur.t1.Sub(cur.t0)
		cur = iv
	}
	return total + cur.t1.Sub(cur.t0)
}

// dominantOp picks the op with the most spans, preferring useful work over
// swaps and stalls and breaking ties alphabetically for determinism.
func dominantOp(counts map[string]int) string {
	best, bestN := "", -1
	for _, op := range slices.Sorted(maps.Keys(counts)) {
		if n := counts[op]; n > bestN && (len(counts) == 1 || op != "swap" && op != "stall") {
			best, bestN = op, n
		}
	}
	return best
}
