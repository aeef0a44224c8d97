package bench

import (
	"fmt"

	"madgo/internal/assembly"
	"madgo/internal/flight"
	"madgo/internal/fwd"
	"madgo/internal/obs"
)

func init() {
	register(&Experiment{
		ID:    "o2",
		Title: "flight-recorder overhead and the §3.4.1 swap-bound verdict",
		Description: "Repeats the p1 stream (Myrinet→SCI, 128 KB packets) with the " +
			"flight recorder armed and disarmed at pipeline depths 1 and 8. The recorder " +
			"must not perturb the simulation (identical virtual goodput — the <5% budget " +
			"holds with margin zero), and its critical-path analyzer must call the depth-1 " +
			"run swap-overhead-bound and clear the depth-8 run, reproducing the paper's " +
			"diagnosis from recorded events alone.",
		Run: runO2,
	})
}

// flightRun is one instrumented stream: virtual goodput and (when the
// recorder was armed) the critical-path diagnosis derived from its events.
// What simulating it costs on the host clock is the two-clock ledger's to
// report (benchmark/): the archive holds virtual-time results only, so that
// it regenerates byte-identical (make bench-verify).
type flightRun struct {
	MBps   float64
	Events int
	Diag   flight.Diagnosis
}

// runFlightStream streams one n-byte message Myrinet→SCI through the paper
// testbed at the given pipeline depth and packet size, with the flight
// recorder armed or not; the assembly has the recorder in place before the
// first instrumented layer runs.
func runFlightStream(depth, pkt, n int, record bool) flightRun {
	m := obs.New()
	var rec *flight.Recorder
	if record {
		rec = flight.NewRecorder(0)
	}
	cfg := fwd.DefaultConfig()
	cfg.MTU = pkt
	cfg.PipelineDepth = depth
	bed := newBed(assembly.Spec{Topo: paperHS(), Config: cfg, Metrics: m, Flight: rec})
	_, ends := bed.Stream("b1", "a1", n, 1)
	out := flightRun{MBps: mbps(n, makespan(ends))}
	if record {
		events := rec.Events()
		out.Events = len(events)
		byMsg := flight.IndexByMessage(events)
		var budgets []flight.Budget
		for _, id := range m.Messages() {
			budgets = append(budgets, flight.AnalyzeMessage(id, m.MessageTrace(id), byMsg[id]))
		}
		out.Diag = flight.Diagnose(budgets, events, bed.VC.DiagnosisSignals())
	}
	return out
}

func runO2(o Options) *Result {
	msg := 2048 * kb
	if o.Quick {
		msg = 512 * kb
	}
	const pkt = 128 * kb

	r := &Result{
		ID:     "o2",
		Title:  fmt.Sprintf("flight-recorder overhead, %d KB messages, 128 KB packets, Myrinet→SCI", msg/kb),
		Header: []string{"depth", "MB/s recorder off", "MB/s recorder on", "goodput ratio", "events", "swap-bound?"},
	}
	for _, depth := range []int{1, 8} {
		off := runFlightStream(depth, pkt, msg, false)
		on := runFlightStream(depth, pkt, msg, true)
		ratio := on.MBps / off.MBps
		verdict := "no"
		if on.Diag.Has(flight.CodeSwapBound) {
			verdict = "yes"
		}
		r.Table = append(r.Table, []string{
			fmt.Sprintf("%d", depth),
			fmt.Sprintf("%.1f", off.MBps),
			fmt.Sprintf("%.1f", on.MBps),
			fmt.Sprintf("%.3f", ratio),
			fmt.Sprintf("%d", on.Events),
			verdict,
		})
		if ratio < 0.95 {
			r.Notes = append(r.Notes, fmt.Sprintf(
				"WARNING: depth %d goodput with the recorder on is %.3fx the disarmed run; the budget is 0.95", depth, ratio))
		}
	}
	r.Notes = append(r.Notes,
		"the recorder writes fixed-size events into preallocated per-node rings (zero allocations, no virtual-time cost), so armed and disarmed goodput are identical by construction and the <5% budget holds with margin zero;",
		"the depth-1 verdict is the paper's §3.4.1 pathology: the receive thread waits out a full send+swap cycle per packet, so mean stall ≈ mean send + mean swap and the analyzer calls the run swap-overhead-bound;",
		"at depth 8 the ring absorbs the swap bubbles, stall time decouples from the send+swap cycle, and the verdict clears")
	return r
}
