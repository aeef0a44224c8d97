package obs

import (
	"fmt"
	"io"

	"madgo/internal/vtime"
)

// Span is one interval of one actor's lane, what the Chrome exporter reads.
// Package trace derives a run's spans and analyzes and renders them; the
// type lives here, below the packages trace derives them from.
type Span struct {
	Actor string // e.g. "gw:recv:sci0", "gw:send:myri0"
	Op    string // "recv", "send", "swap", "header", ...
	Bytes int
	T0    vtime.Time
	T1    vtime.Time
}

// Duration returns the span length.
func (s Span) Duration() vtime.Duration { return s.T1.Sub(s.T0) }

func (s Span) String() string {
	return fmt.Sprintf("%-18s %-6s %8dB  %12v .. %-12v (%v)", s.Actor, s.Op, s.Bytes, s.T0, s.T1, s.Duration())
}

// Lane is the busy/stall/idle decomposition of one actor's activity over an
// analysis window — the pipeline-bubble accounting of §3.3.1. Busy covers
// useful work (recv/send/...), Stall covers time lost to the pipeline
// machinery itself: buffer switches ("swap" spans) and a receive thread's
// waits for its egress side, a free staging slot or room in a sender's queue
// ("stall" spans), Idle is the remainder. SteadyPeriod is the mean start-to-start interval of
// the lane's dominant op with the fill and drain iterations dropped — the
// steady-state pipeline period. trace.Log.Lanes computes it.
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
