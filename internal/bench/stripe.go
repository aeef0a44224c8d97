package bench

import (
	"fmt"

	"madgo/internal/assembly"
	"madgo/internal/drivers/sisci"
	"madgo/internal/fault"
	"madgo/internal/fwd"
	"madgo/internal/mad"
	"madgo/internal/topo"
	"madgo/internal/vtime"
)

func init() {
	register(&Experiment{
		ID:          "s1",
		Title:       "Multi-rail striping goodput, K=1 vs K=2",
		Description: "8-128 KB transfers over the dual-rail topology (Myrinet/BIP + DMA-engine SCI between the same node pair), swept over stripe width K; K=2 goodput must approach the sum of the rails rather than the max.",
		Run:         runS1,
	})
}

// dualRailTopo joins one node pair with both high-speed networks: two
// direct, fully link-disjoint rails.
func dualRailTopo() *topo.Topology {
	tp, err := topo.NewBuilder().
		Network("myri0", "myrinet").
		Network("sci0", "sci").
		Node("a", "myri0", "sci0").
		Node("b", "myri0", "sci0").
		Build()
	if err != nil {
		panic(err)
	}
	return tp
}

// dualRailBed assembles the dual-rail topology with the SCI rail on the
// board's DMA engine — the paper's §3.4.1 workaround — because a PIO SCI
// send is demoted 0.5x while the Myrinet rail's DMA holds the shared PCI
// bus, which caps concurrent two-rail transmission well below the sum of
// the rails.
func dualRailBed(cfg fwd.Config, faults *fault.Plan) *Bed {
	return newBed(assembly.Spec{
		Topo: dualRailTopo(), Config: cfg, Faults: faults,
		Drivers: map[string]mad.Driver{"sci": sisci.NewDMA()},
	})
}

// stripedStream streams n bytes a→b over the dual-rail bed with stripe
// width k and returns the one-way duration plus the striping counters.
func stripedStream(k, n int) (vtime.Duration, fwd.StripeStats) {
	cfg := fwd.DefaultConfig()
	cfg.StripeK = k
	bed := dualRailBed(cfg, nil)
	_, ends := bed.Stream("a", "b", n, 1)
	return makespan(ends), bed.VC.StripeStats()
}

func runS1(o Options) *Result {
	sizes := []int{8 * kb, 16 * kb, 32 * kb, 64 * kb, 128 * kb}
	if o.Quick {
		sizes = []int{16 * kb, 64 * kb, 128 * kb}
	}
	maxK := o.Rails
	if maxK < 2 {
		maxK = 2
	}
	r := &Result{
		ID: "s1", Title: "striped goodput over the dual-rail testbed (DMA SCI + Myrinet), a→b",
		XLabel: "message bytes", YLabel: "MB/s",
	}
	goodput := map[int]map[int]float64{} // k → size → MB/s
	for k := 1; k <= maxK; k++ {
		s := Series{Name: fmt.Sprintf("K=%d", k)}
		goodput[k] = map[int]float64{}
		for _, n := range sizes {
			d, st := stripedStream(k, n)
			g := mbps(n, d)
			goodput[k][n] = g
			s.Points = append(s.Points, Point{X: float64(n), Y: g})
			if k == 1 && st.Messages != 0 {
				r.Notes = append(r.Notes, fmt.Sprintf(
					"WARNING: K=1 striped %d messages at %d bytes", st.Messages, n))
			}
			if k >= 2 && n >= 64*kb && st.Messages == 0 {
				r.Notes = append(r.Notes, fmt.Sprintf(
					"WARNING: K=%d did not stripe the %d-byte message", k, n))
			}
		}
		r.Series = append(r.Series, s)
	}
	big := sizes[len(sizes)-1]
	r.Notes = append(r.Notes, fmt.Sprintf(
		"K=2 speedup at %d KB: %.2fx over single-rail (gate: >= 1.5x at 64-128 KB; "+
			"sub-threshold sizes stay single-rail by design)",
		big/kb, goodput[2][big]/goodput[1][big]))
	return r
}
