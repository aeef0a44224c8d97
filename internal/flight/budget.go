// Critical-path latency attribution: walk a message's provenance hops
// (obs.Registry) plus its flight-recorder events and charge the
// end-to-end latency to named stages — pack, queue-wait, wire,
// buffer-swap, relay-stall, retransmit+backoff, stripe-reassembly,
// ack-wait — the way the MPICH2/InfiniBand latency breakdowns attribute
// protocol cost stage by stage.

package flight

import (
	"fmt"
	"io"
	"sort"
	"text/tabwriter"

	"madgo/internal/obs"
	"madgo/internal/vtime"
)

// Stage names one slice of a message's latency budget.
type Stage int

const (
	StagePack       Stage = iota // host packing: header build, staging copies
	StageQueueWait               // sat in a relay queue awaiting service
	StageWire                    // payload transmission and reception time
	StageSwap                    // gateway buffer swaps (§3.4.1 fixed overhead)
	StageStall                   // relay threads blocked on free buffers
	StageRexmit                  // expired ack waits and resend backoffs
	StageReassembly              // stripe rail-completion spread at the sink
	StageAckWait                 // successful end-to-end acknowledgement wait
	StageAggWait                 // sat in an aggregation coalescer before its flush
	NumStages
)

var stageNames = [NumStages]string{
	"pack", "queue-wait", "wire", "buffer-swap", "relay-stall",
	"retransmit+backoff", "stripe-reassembly", "ack-wait", "agg-wait",
}

func (s Stage) String() string {
	if s >= 0 && s < NumStages {
		return stageNames[s]
	}
	return fmt.Sprintf("stage(%d)", int(s))
}

// stageOf maps an event kind to the budget stage it charges. KindWire,
// KindProbe, KindEpoch and KindAggFlush return ok=false: wire events
// duplicate the per-message send/recv accounting at link granularity (they
// feed the PIO/DMA diagnosis instead), probes/epochs are not message work,
// and a flush marker is instantaneous (the per-sub waiting time is what
// KindAggWait charges).
func stageOf(k Kind) (Stage, bool) {
	switch k {
	case KindPack:
		return StagePack, true
	case KindQueueWait:
		return StageQueueWait, true
	case KindSend, KindRecv, KindReplicate:
		return StageWire, true
	case KindSwap:
		return StageSwap, true
	case KindStall:
		return StageStall, true
	case KindRexmit, KindBackoff:
		return StageRexmit, true
	case KindReassembly:
		return StageReassembly, true
	case KindAckWait:
		return StageAckWait, true
	case KindAggWait:
		return StageAggWait, true
	}
	return 0, false
}

// Budget is one message's latency attribution. Stage durations are summed
// per-event work, so on a pipelined path they may exceed Total — the
// excess is reported as Overlap rather than hidden; Other is the part of
// Total no recorded event accounts for.
type Budget struct {
	Msg     uint64
	Start   vtime.Time
	End     vtime.Time
	Total   vtime.Duration
	Stages  [NumStages]vtime.Duration
	Other   vtime.Duration
	Overlap vtime.Duration
	Events  int
}

// Attributed returns the summed per-stage work.
func (b Budget) Attributed() vtime.Duration {
	var t vtime.Duration
	for _, d := range b.Stages {
		t += d
	}
	return t
}

// Fraction returns a stage's share of the total end-to-end latency
// (0 when the budget is empty).
func (b Budget) Fraction(s Stage) float64 {
	if b.Total <= 0 {
		return 0
	}
	return b.Stages[s].Seconds() / b.Total.Seconds()
}

// IndexByMessage groups message-attributed events (Msg != 0) by ID.
func IndexByMessage(events []Event) map[uint64][]Event {
	out := make(map[uint64][]Event)
	for _, e := range events {
		if e.Msg != 0 {
			out[e.Msg] = append(out[e.Msg], e)
		}
	}
	return out
}

// AnalyzeMessage builds one message's latency budget from its provenance
// hops (obs.Registry.MessageTrace) and its flight events (pre-filtered to
// this message, e.g. via IndexByMessage). Either input may be empty; the
// end-to-end window is the min/max over both.
func AnalyzeMessage(id uint64, hops []obs.Hop, events []Event) Budget {
	b := Budget{Msg: id, Start: -1, End: -1}
	widen := func(t0, t1 vtime.Time) {
		if b.Start < 0 || t0 < b.Start {
			b.Start = t0
		}
		if t1 > b.End {
			b.End = t1
		}
	}
	for _, h := range hops {
		widen(h.At, h.At)
	}
	for _, e := range events {
		t0 := e.At
		if e.Dur > 0 && vtime.Time(e.Dur) <= e.At {
			t0 = e.At.Add(-e.Dur)
		}
		widen(t0, e.At)
		if s, ok := stageOf(e.Kind); ok {
			b.Stages[s] += e.Dur
			b.Events++
		}
	}
	if b.Start < 0 {
		b.Start, b.End = 0, 0
	}
	b.Total = b.End.Sub(b.Start)
	if att := b.Attributed(); att > b.Total {
		b.Overlap = att - b.Total
	} else {
		b.Other = b.Total - att
	}
	return b
}

// AggregateBudget sums a set of per-message budgets.
type AggregateBudget struct {
	Messages int
	Total    vtime.Duration
	Stages   [NumStages]vtime.Duration
	Other    vtime.Duration
	Overlap  vtime.Duration
}

// Aggregate folds per-message budgets into one. Messages whose window
// collapsed to zero still count toward Messages but contribute no time.
func Aggregate(bs []Budget) AggregateBudget {
	var a AggregateBudget
	for _, b := range bs {
		a.Messages++
		a.Total += b.Total
		a.Other += b.Other
		a.Overlap += b.Overlap
		for s := Stage(0); s < NumStages; s++ {
			a.Stages[s] += b.Stages[s]
		}
	}
	return a
}

// Fraction returns a stage's share of the aggregate end-to-end latency.
func (a AggregateBudget) Fraction(s Stage) float64 {
	if a.Total <= 0 {
		return 0
	}
	return a.Stages[s].Seconds() / a.Total.Seconds()
}

// WriteBudgets renders per-message budgets (sorted by message ID) followed
// by the aggregate as an aligned text table — the madtrace -budget panel.
func WriteBudgets(w io.Writer, bs []Budget) {
	sorted := append([]Budget(nil), bs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Msg < sorted[j].Msg })
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprint(tw, "msg\ttotal")
	for s := Stage(0); s < NumStages; s++ {
		fmt.Fprintf(tw, "\t%s", s)
	}
	fmt.Fprint(tw, "\tother\toverlap\n")
	row := func(label string, total vtime.Duration, stages [NumStages]vtime.Duration, other, overlap vtime.Duration) {
		fmt.Fprintf(tw, "%s\t%v", label, total)
		for s := Stage(0); s < NumStages; s++ {
			fmt.Fprintf(tw, "\t%v", stages[s])
		}
		fmt.Fprintf(tw, "\t%v\t%v\n", other, overlap)
	}
	for _, b := range sorted {
		row(fmt.Sprintf("%d", b.Msg), b.Total, b.Stages, b.Other, b.Overlap)
	}
	a := Aggregate(bs)
	row("all", a.Total, a.Stages, a.Other, a.Overlap)
	tw.Flush()
}
