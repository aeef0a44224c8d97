// Package trace derives timestamped spans from what a run recorded once —
// the reproduction's analogue of the paper's rdtsc instrumentation of the
// gateway's low-level code (§3.4.1). Nothing records to it: Of builds the
// pipeline lanes from the platform's flight events, provenance hops and
// fault plan, and the renderers below rebuild the Figure 5 / Figure 8
// timelines and the pipeline-period accounting of §3.3.1 from them.
package trace

import (
	"bytes"
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"

	"madgo/internal/obs"
	"madgo/internal/vtime"
)

// Span is one recorded interval, e.g. a receive on "gw:recv:sci0".
type Span = obs.Span

// Log is a run's spans in the order they were recorded.
type Log []Span

// ByActor returns the spans of one actor, in time order.
func (l Log) ByActor(actor string) []Span {
	var out []Span
	for _, s := range l {
		if s.Actor == actor {
			out = append(out, s)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].T0 < out[j].T0 })
	return out
}

// Actors returns the distinct actor names, sorted.
func (l Log) Actors() []string {
	seen := make(map[string]bool)
	for _, s := range l {
		seen[s.Actor] = true
	}
	return slices.Sorted(maps.Keys(seen))
}

// Periods returns the start-to-start intervals between consecutive spans of
// one actor and operation — the pipeline period of §3.3.1 when applied to
// the gateway receive steps.
func (l Log) Periods(actor, op string) []vtime.Duration {
	var out []vtime.Duration
	spans := slices.DeleteFunc(l.ByActor(actor), func(s Span) bool { return s.Op != op })
	for i := 1; i < len(spans); i++ {
		out = append(out, spans[i].T0.Sub(spans[i-1].T0))
	}
	return out
}

// SteadyMean returns the average length of the actor's spans with the given
// op, and their count, after dropping the first `warmup` and last `cooldown`
// spans — the pipeline's fill and drain phases.
func (l Log) SteadyMean(actor, op string, warmup, cooldown int) (vtime.Duration, int) {
	spans := slices.DeleteFunc(l.ByActor(actor), func(s Span) bool { return s.Op != op })
	if len(spans) <= warmup+cooldown {
		return 0, 0
	}
	spans = spans[warmup : len(spans)-cooldown]
	var sum vtime.Duration
	for _, s := range spans {
		sum += s.Duration()
	}
	return sum / vtime.Duration(len(spans)), len(spans)
}

// marks are the timeline marks of the well-known ops, one op each; a stripe
// lane's "rail<i>" is drawn with its digit, and any other op with its first
// letter (opMark).
var marks = map[string]byte{
	"recv": 'r', "send": 's', "stall": 'w', "swap": 'x', "header": 'h', "rexmit": 'R', "failover": 'F',
	"resend": 'M', "crash": 'C', "flap": '~', "drop": 'd', "corrupt": 'c', "corrupt-drop": 'K',
	"e2e": 'e', "dup": 'D',
}

func opMark(op string) byte {
	if m, ok := marks[op]; ok {
		return m
	}
	if i, ok := strings.CutPrefix(op, "rail"); ok && len(i) == 1 {
		return i[0]
	}
	if len(op) > 0 {
		return op[0]
	}
	return '?'
}

// Timeline renders an ASCII Gantt chart of all actors between t0 and t1,
// with the given number of character columns — the textual Figure 5 /
// Figure 8. Each actor gets a lane; busy intervals are drawn with the op's
// mark (see opMark). A legend derived from the ops actually present in the
// window is printed under the chart.
func (l Log) Timeline(t0, t1 vtime.Time, cols int) string {
	if cols <= 0 || t1 <= t0 {
		return ""
	}
	actors := l.Actors()
	if len(actors) == 0 {
		return ""
	}
	width := 0
	for _, a := range actors {
		width = max(width, len(a))
	}
	total := t1.Sub(t0)
	rendered := make(map[string]byte)
	var sb strings.Builder
	fmt.Fprintf(&sb, "%*s  |%v .. %v, one column = %v|\n", width, "", t0, t1, total/vtime.Duration(cols))
	for _, a := range actors {
		lane := bytes.Repeat([]byte{'.'}, cols)
		for _, s := range l.ByActor(a) {
			if s.T1 <= t0 || s.T0 >= t1 {
				continue
			}
			mark := opMark(s.Op)
			rendered[s.Op] = mark
			c0 := max(int(int64(s.T0-t0)*int64(cols)/int64(total)), 0)
			c1 := min(int(int64(s.T1-t0)*int64(cols)/int64(total)), cols-1)
			for c := c0; c <= c1; c++ {
				lane[c] = mark
			}
		}
		fmt.Fprintf(&sb, "%*s  %s\n", width, a, lane)
	}
	if len(rendered) > 0 {
		ops := slices.Sorted(maps.Keys(rendered))
		parts := make([]string, len(ops))
		for i, op := range ops {
			parts[i] = fmt.Sprintf("%c = %s", rendered[op], op)
		}
		fmt.Fprintf(&sb, "%*s  legend: %s\n", width, "", strings.Join(parts, ", "))
	}
	return sb.String()
}
