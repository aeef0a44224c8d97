package bench

import (
	"encoding/json"
	"fmt"
	"io"

	"madgo/internal/assembly"
	"madgo/internal/fwd"
	"madgo/internal/hw"
	"madgo/internal/obs"
)

func init() {
	register(&Experiment{
		ID:          "o1",
		Title:       "buffer-switch overhead from the swap histogram",
		Description: "Streams one message through the gateway with the metrics registry armed and reads the §3.4.1 per-switch software overhead (≈40 µs) off the madgo_gateway_swap_seconds quantiles, instead of inferring it from period arithmetic as t2 does.",
		Run:         runO1,
	})
}

func runO1(o Options) *Result {
	n := 4096 * kb
	if o.Quick {
		n = 512 * kb
	}
	// The paper testbed in streaming mode with a metrics registry armed.
	m := obs.New()
	cfg := fwd.DefaultConfig()
	cfg.MTU = 8 * kb
	newBed(assembly.Spec{Topo: paperHS(), Config: cfg, Metrics: m}).Stream("a1", "b1", n, 1)

	gw := obs.Labels{"gateway": "gw"}
	const name = "madgo_gateway_swap_seconds"
	count := m.HistogramCount(name, gw)
	p50, _ := m.Quantile(name, gw, 0.5)
	p99, _ := m.Quantile(name, gw, 0.99)
	model := hw.DefaultCPU().SwapOverhead

	us := func(s float64) string { return fmt.Sprintf("%.1fµs", s*1e6) }
	r := &Result{
		ID:     "o1",
		Title:  "buffer-switch overhead, 8 KB packets, SCI→Myrinet",
		Header: []string{"quantity", "value"},
		Table: [][]string{
			{"buffer switches observed", fmt.Sprintf("%d", count)},
			{"swap overhead p50", us(p50)},
			{"swap overhead p99", us(p99)},
			{"CPU model SwapOverhead", fmt.Sprintf("%v", model)},
		},
	}
	r.Notes = append(r.Notes,
		"the histogram is measured at the gateway's pipeline threads, one observation per buffer switch;",
		"a constant per-switch cost makes every quantile agree with the §3.4.1 estimate of ≈40 µs")
	return r
}

// WriteJSON renders a result as one JSON document — the machine-readable
// form `make bench` archives (BENCH_o1.json) so the perf trajectory
// accumulates across commits.
func WriteJSON(w io.Writer, r *Result) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
