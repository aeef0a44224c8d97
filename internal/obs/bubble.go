package obs

import (
	"fmt"
	"io"
	"sort"

	"madgo/internal/trace"
	"madgo/internal/vtime"
)

// Lane is the busy/stall/idle decomposition of one actor's activity over an
// analysis window — the pipeline-bubble accounting of §3.3.1. Busy covers
// useful work (recv/send/...), Stall covers time lost to the pipeline
// machinery itself: buffer switches ("swap" spans) and a receive thread's
// waits for its egress side, a free staging slot or room in a sender's queue
// ("stall" spans), Idle is the remainder. SteadyPeriod is the mean start-to-start interval of
// the lane's dominant op with the fill and drain iterations dropped — the
// steady-state pipeline period.
type Lane struct {
	Actor        string
	Window       vtime.Duration
	Busy         vtime.Duration
	Stall        vtime.Duration
	Idle         vtime.Duration
	Utilization  float64 // Busy / Window
	SteadyPeriod vtime.Duration
	Spans        int
}

// AnalyzeLanes decomposes every actor recorded by tr over [t0, t1). Interval
// coverage is computed on the merged union of spans, so overlapping or
// duplicate spans are not double-counted. Lanes are returned sorted by actor
// name; an empty window yields nil.
func AnalyzeLanes(tr *trace.Tracer, t0, t1 vtime.Time) []Lane {
	if tr == nil || t1 <= t0 {
		return nil
	}
	window := t1.Sub(t0)
	var lanes []Lane
	for _, actor := range tr.Actors() {
		spans := tr.ByActor(actor)
		var busy, stall []ival
		n := 0
		opCount := make(map[string]int)
		for _, s := range spans {
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
		l := Lane{
			Actor:  actor,
			Window: window,
			Busy:   coverage(busy),
			Stall:  coverage(stall),
			Spans:  n,
		}
		l.Idle = window - l.Busy - l.Stall
		if l.Idle < 0 {
			l.Idle = 0
		}
		l.Utilization = float64(l.Busy) / float64(window)
		l.SteadyPeriod = steadyPeriod(tr, actor, dominantOp(opCount))
		lanes = append(lanes, l)
	}
	return lanes
}

// WriteLaneReport renders the lane decomposition as a text table.
func WriteLaneReport(w io.Writer, lanes []Lane) {
	if len(lanes) == 0 {
		fmt.Fprintln(w, "no lanes recorded")
		return
	}
	fmt.Fprintf(w, "%-18s %12s %12s %12s %6s %12s %6s\n",
		"lane", "busy", "stall", "idle", "util", "period", "spans")
	for _, l := range lanes {
		period := "-"
		if l.SteadyPeriod > 0 {
			period = l.SteadyPeriod.String()
		}
		fmt.Fprintf(w, "%-18s %12v %12v %12v %5.1f%% %12s %6d\n",
			l.Actor, l.Busy, l.Stall, l.Idle, l.Utilization*100, period, l.Spans)
	}
}

// ival is one clipped half-open interval.
type ival struct{ t0, t1 vtime.Time }

// clip restricts a span to [t0, t1); ok is false when it falls entirely
// outside.
func clip(s trace.Span, t0, t1 vtime.Time) (ival, bool) {
	a, b := s.T0, s.T1
	if a < t0 {
		a = t0
	}
	if b > t1 {
		b = t1
	}
	if b < a {
		return ival{}, false
	}
	if s.T1 < t0 || s.T0 >= t1 {
		return ival{}, false
	}
	return ival{a, b}, true
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
			if iv.t1 > cur.t1 {
				cur.t1 = iv.t1
			}
			continue
		}
		total += cur.t1.Sub(cur.t0)
		cur = iv
	}
	total += cur.t1.Sub(cur.t0)
	return total
}

// dominantOp picks the op with the most spans, preferring useful work over
// swaps and stalls and breaking ties alphabetically for determinism.
func dominantOp(counts map[string]int) string {
	best, bestN := "", -1
	ops := make([]string, 0, len(counts))
	for op := range counts {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	for _, op := range ops {
		n := counts[op]
		if (op == "swap" || op == "stall") && len(counts) > 1 {
			continue
		}
		if n > bestN {
			best, bestN = op, n
		}
	}
	return best
}

// steadyPeriod averages the start-to-start intervals of the dominant op with
// the first and last dropped (pipeline fill and drain).
func steadyPeriod(tr *trace.Tracer, actor, op string) vtime.Duration {
	if op == "" {
		return 0
	}
	periods := tr.Periods(actor, op)
	if len(periods) <= 2 {
		return 0
	}
	periods = periods[1 : len(periods)-1]
	var sum vtime.Duration
	for _, p := range periods {
		sum += p
	}
	return sum / vtime.Duration(len(periods))
}
