package bench

import (
	"fmt"

	"madgo/internal/assembly"
	"madgo/internal/fault"
	"madgo/internal/fwd"
	"madgo/internal/vtime"
)

func init() {
	register(&Experiment{
		ID:          "r1",
		Title:       "Reliable-delivery goodput under packet loss",
		Description: "8 MB SCI→Myrinet transfer (1 MB quick) through the gateway with reliable delivery, swept over injected drop probabilities; goodput degrades gracefully and the zero-loss row needs zero recovery.",
		Run:         runR1,
	})
}

// reliableStream builds the restricted paper testbed in reliable mode with
// the given fault plan armed, streams n bytes src→dst, and returns the
// one-way duration plus the recovery and acknowledgement statistics.
func reliableStream(src, dst string, n int, plan *fault.Plan) (vtime.Duration, fwd.DeliveryStats, fwd.AckStats) {
	cfg := fwd.DefaultConfig()
	cfg.Reliable = true
	bed := newBed(assembly.Spec{Topo: paperHS(), Config: cfg, Faults: plan})
	_, ends := bed.Stream(src, dst, n, 1)
	return makespan(ends), bed.VC.DeliveryStats(), bed.VC.AckStats()
}

func runR1(o Options) *Result {
	n := 8192 * kb
	if o.Quick {
		n = 1024 * kb
	}
	rates := []float64{0, 0.01, 0.02, 0.05, 0.10}
	r := &Result{
		ID: "r1", Title: fmt.Sprintf("reliable goodput under loss, %d KB messages, a1→b1", n/kb),
		Header: []string{"drop prob", "goodput MB/s", "retransmits", "checksum drops", "duplicates"},
	}
	s := Series{Name: "goodput"}
	for _, rate := range rates {
		var plan *fault.Plan
		if rate > 0 {
			plan = fault.NewPlan(42).Drop("*", rate)
		}
		d, ds, _ := reliableStream("a1", "b1", n, plan)
		s.Points = append(s.Points, Point{X: rate, Y: mbps(n, d)})
		r.Table = append(r.Table, []string{
			fmt.Sprintf("%.2f", rate),
			fmt.Sprintf("%.1f", mbps(n, d)),
			fmt.Sprintf("%d", ds.Retransmits),
			fmt.Sprintf("%d", ds.ChecksumDrops),
			fmt.Sprintf("%d", ds.Duplicates),
		})
		if rate == 0 && ds != (fwd.DeliveryStats{}) {
			r.Notes = append(r.Notes, fmt.Sprintf(
				"WARNING: fault-free run performed recovery work: %+v", ds))
		}
	}
	r.Series = append(r.Series, s)
	r.XLabel, r.YLabel = "drop probability", "MB/s"
	r.Notes = append(r.Notes,
		"reliability adds a 28-byte header+CRC per packet and hop-by-hop acks; the zero-loss row is the protocol's overhead against fig6")
	return r
}
