package bench

import (
	"fmt"

	"madgo/internal/fault"
	"madgo/internal/fwd"
	"madgo/internal/health"
	"madgo/internal/vtime"
)

func init() {
	register(&Experiment{
		ID:          "r2",
		Title:       "Self-healing recovery: rail killed and re-admitted under K=2 striping",
		Description: "Continuous 128 KB stream over the dual-rail topology with the health monitor armed; the SCI rail is flapped dead mid-stream, traffic degrades to the surviving rail, and after probation re-admits the rail goodput must re-converge to >= 90% of the pre-fault level.",
		Run:         runR2,
	})
}

// recoveryOutcome is what the r2 experiment measures, exposed as a struct so
// TestR2SelfHealingGate asserts on numbers instead of parsing table cells.
type recoveryOutcome struct {
	PreMBs       float64        // goodput before the flap window
	FaultMBs     float64        // goodput while the rail is down or on probation
	PostMBs      float64        // goodput after re-admission
	Ratio        float64        // PostMBs / PreMBs, the recovery ratio
	Readmissions int64          // rails restored to the stripe set
	Epoch        uint64         // final routing epoch (starts at 1)
	Probes       int64          // health probes performed
	TimeToHeal   vtime.Duration // flap end -> re-admission transition
	Pre, Fault   int            // messages per phase
	Post         int
	Stripe       fwd.StripeStats
}

// runRecovery streams count back-to-back n-byte messages a->b over the
// dual-rail topology (DMA SCI + Myrinet) with reliable delivery, K=2
// striping and the health monitor armed, while the SCI rail flaps dead for
// [flapAt, flapAt+flapDur). Per-message start/end stamps segment the run
// into pre-fault, faulted and recovered phases around the re-admission
// transition the monitor logs.
func runRecovery(count, n int, flapAt vtime.Time, flapDur vtime.Duration) recoveryOutcome {
	cfg := fwd.DefaultConfig()
	cfg.Reliable = true
	cfg.StripeK = 2
	bed := dualRailBed(cfg, fault.NewPlan(42).Flap("sci0", flapAt, flapDur))
	mon := bed.VC.Health()
	starts, ends := bed.Stream("a", "b", n, count)

	out := recoveryOutcome{
		Readmissions: mon.Readmissions(),
		Epoch:        mon.Epoch(),
		Probes:       mon.Probes(),
		Stripe:       bed.VC.StripeStats(),
	}
	// The healing instant is the last probation -> up transition; everything
	// from the flap start until then is the faulted phase.
	healedAt := vtime.Time(-1)
	for _, tr := range mon.Transitions() {
		if tr.From == health.Probation && tr.To == health.Up {
			healedAt = tr.At
		}
	}
	if healedAt >= 0 {
		out.TimeToHeal = healedAt.Sub(flapAt.Add(flapDur))
	}
	phase := func(lo, hi vtime.Time) (int, float64) {
		var bytes int64
		first, last := vtime.Time(-1), vtime.Time(-1)
		msgs := 0
		for i := range ends {
			if starts[i] < lo || (hi >= 0 && ends[i] > hi) {
				continue
			}
			if first < 0 || starts[i] < first {
				first = starts[i]
			}
			if ends[i] > last {
				last = ends[i]
			}
			bytes += int64(n)
			msgs++
		}
		if msgs == 0 || last <= first {
			return msgs, 0
		}
		return msgs, mbps(int(bytes), last.Sub(first))
	}
	out.Pre, out.PreMBs = phase(0, flapAt)
	out.Fault, out.FaultMBs = phase(flapAt, healedAt)
	out.Post, out.PostMBs = phase(healedAt, -1)
	if healedAt < 0 {
		out.Fault, out.FaultMBs = phase(flapAt, -1)
		out.Post, out.PostMBs = 0, 0
	}
	if out.PreMBs > 0 {
		out.Ratio = out.PostMBs / out.PreMBs
	}
	return out
}

func runR2(o Options) *Result {
	count := 150
	if o.Quick {
		count = 100
	}
	const n = 128 * kb
	flapAt := vtime.Time(50 * vtime.Millisecond)
	flapDur := 100 * vtime.Millisecond
	out := runRecovery(count, n, flapAt, flapDur)

	r := &Result{
		ID:     "r2",
		Title:  fmt.Sprintf("self-healing recovery, %d x %d KB a→b, SCI rail flapped [%v, %v)", count, n/kb, vtime.Duration(flapAt), vtime.Duration(flapAt)+flapDur),
		Header: []string{"phase", "messages", "goodput MB/s"},
		Table: [][]string{
			{"pre-fault (K=2)", fmt.Sprintf("%d", out.Pre), fmt.Sprintf("%.1f", out.PreMBs)},
			{"faulted (single rail)", fmt.Sprintf("%d", out.Fault), fmt.Sprintf("%.1f", out.FaultMBs)},
			{"recovered (K=2 again)", fmt.Sprintf("%d", out.Post), fmt.Sprintf("%.1f", out.PostMBs)},
		},
	}
	r.Notes = append(r.Notes,
		fmt.Sprintf("recovery ratio %.2f (gate: >= 0.90), time to re-admission %v after the flap window closed",
			out.Ratio, out.TimeToHeal),
		fmt.Sprintf("%d readmissions, final routing epoch %d, %d health probes, %d rail failovers",
			out.Readmissions, out.Epoch, out.Probes, out.Stripe.RailFailovers))
	switch {
	case out.Pre == 0 || out.Fault == 0 || out.Post == 0:
		r.Notes = append(r.Notes, fmt.Sprintf(
			"WARNING: a phase saw no complete message (pre %d, fault %d, post %d)", out.Pre, out.Fault, out.Post))
	case out.Readmissions == 0:
		r.Notes = append(r.Notes, "WARNING: the flapped rail was never re-admitted")
	case out.Ratio < 0.9:
		r.Notes = append(r.Notes, fmt.Sprintf(
			"WARNING: recovered goodput is only %.2fx the pre-fault level", out.Ratio))
	}
	return r
}
