package bench

import (
	"fmt"

	"madgo/internal/fwd"
	"madgo/internal/obs"
	"madgo/internal/trace"
)

func init() {
	register(&Experiment{
		ID:          "p1",
		Title:       "gateway pipeline depth sweep",
		Description: "Streams a fixed message Myrinet→SCI through the gateway for every ring depth 1/2/4/8 × packet size 8–128 KB: goodput per configuration, plus the receive lane's stall fraction at 128 KB packets from the obs lane analyzer — the §3.4 buffer-switch bubbles a deeper ring absorbs.",
		Run:         runP1,
	})
}

// runP1 sweeps the pipeline ring depth. The Myrinet→SCI direction is the
// interesting one: the SCI-side send costs vary under the gateway's PCI
// contention (DMA outranks PIO), so a deeper ring absorbs send-side jitter
// that double buffering passes straight to the receive thread as stalls.
func runP1(o Options) *Result {
	msg := 2048 * kb
	if o.Quick {
		msg = 512 * kb
	}
	const src, dst = "b1", "a1"
	const stallPkt = 128 * kb
	depths := []int{1, 2, 4, 8}

	r := &Result{
		ID:     "p1",
		Title:  fmt.Sprintf("pipeline depth sweep, %d KB messages, Myrinet→SCI", msg/kb),
		XLabel: "packet bytes",
		YLabel: "MB/s",
		Header: []string{"depth", fmt.Sprintf("MB/s @ %d KB packets", stallPkt/kb), "recv stall fraction", "recv stalls"},
	}
	for _, depth := range depths {
		s := Series{Name: fmt.Sprintf("depth %d", depth)}
		for _, pkt := range packetSizes(o) {
			tr := trace.New()
			cfg := fwd.DefaultConfig()
			cfg.MTU = pkt
			cfg.PipelineDepth = depth
			cfg.Tracer = tr
			tb := NewTestbed(cfg)
			_, ends := tb.Stream(src, dst, msg, 1)
			goodput := mbps(msg, makespan(ends))
			s.Points = append(s.Points, Point{X: float64(pkt), Y: goodput})
			if pkt == stallPkt {
				frac := 0.0
				for _, l := range obs.AnalyzeLanes(tr, 0, ends[0]) {
					if l.Actor == "gw:recv:myri0" {
						frac = float64(l.Stall) / float64(l.Window)
					}
				}
				gw := tb.VC.Gateway("gw")
				r.Table = append(r.Table, []string{
					fmt.Sprintf("%d", depth),
					fmt.Sprintf("%.1f", goodput),
					fmt.Sprintf("%.3f", frac),
					fmt.Sprintf("%d", gw.Stalls()),
				})
			}
		}
		r.Series = append(r.Series, s)
	}
	r.Notes = append(r.Notes,
		"each point streams one message through a fresh testbed; goodput is message bytes over one-way completion time;",
		"the stall fraction is the gateway receive lane's share of the run spent waiting for a free staging buffer plus buffer-switch overhead (obs.AnalyzeLanes over the \"stall\" and \"swap\" spans);",
		"depth 1 disables pipelining (ablation A3's no-pipe point), depth 2 is the paper's double buffering, deeper rings absorb the SCI-side send jitter the gateway's PCI DMA-over-PIO contention introduces")
	return r
}
