// Command madstat runs one transfer over a cluster-of-clusters topology with
// the full observability layer armed and dumps what it recorded: a
// Prometheus-style metrics snapshot, the per-lane pipeline-bubble report,
// per-message provenance traces, and optionally a Chrome trace_event JSON
// file loadable in Perfetto (ui.perfetto.dev) or chrome://tracing.
//
// Usage:
//
//	madstat                          # paper testbed, a1 -> b1, metrics snapshot
//	madstat -lanes -trace all        # add the lane report and all hop traces
//	madstat -loss 0.1 -seed 7        # reliable delivery under 10% packet loss
//	madstat -chrome run.json         # write a Perfetto-loadable trace file
//	madstat -config cluster.topo -from x -to y -bytes 1048576
//	madstat -rails 2                 # multi-rail striping with per-rail breakdown
//	madstat -reliable                # reliable delivery without faults: adds the link-health panel
//	madstat -diagnose -depth 1       # name the run's pathologies (here: swap-bound)
//	madstat -diagnose -flap sci0 -count 100   # the r2 flap scenario
//	madstat -json                    # one JSON document: metrics+health+diagnosis
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"

	madeleine "madgo"
	"madgo/cmd/internal/cli"
)

func main() {
	var (
		shared = cli.Register(flag.CommandLine, true, "crash the gateway 'gw' at this virtual time (0 = never)")
		from   = flag.String("from", "a1", "source node")
		to     = flag.String("to", "b1", "destination node")
		bytes  = flag.Int("bytes", 256*1024, "message size")
		count  = flag.Int("count", 1, "number of back-to-back messages to stream")
		mtu    = flag.Int("mtu", 32*1024, "forwarding packet size")
		depth  = flag.Int("depth", 2, "gateway pipeline depth (1 disables pipelining)")
		rails  = flag.Int("rails", 1, "stripe large messages across up to this many link-disjoint routes")

		flapNet = flag.String("flap", "", "flap this network mid-run (switches on reliable delivery)")
		flapAt  = flag.Duration("flapat", 0, "virtual time the -flap outage starts (default 50ms)")
		flapFor = flag.Duration("flapfor", 0, "virtual duration of the -flap outage (default 100ms)")

		reliable = flag.Bool("reliable", false, "use reliable delivery even without faults (prints the link-health panel)")
		flowOn   = flag.Bool("flow", false, "arm credit-based gateway flow control and print its panel")
		window   = flag.Int("window", 0, "credit window per (gateway, sender) pair (implies -flow)")

		lanes    = flag.Bool("lanes", false, "print the pipeline-bubble lane report")
		msgs     = flag.String("trace", "", `print message provenance: "all" or a message ID`)
		chrome   = flag.String("chrome", "", "write Chrome trace_event JSON to this file")
		noProm   = flag.Bool("noprom", false, "suppress the Prometheus snapshot")
		diagnose = flag.Bool("diagnose", false, "run the critical-path analyzer and print its findings")
		jsonOut  = flag.Bool("json", false, "emit one JSON document (metrics, stripe, health, diagnosis, flight dumps) instead of text")
	)
	flag.Parse()

	tr := madeleine.NewTracer()
	m := madeleine.NewMetrics()
	opts := []madeleine.Option{
		madeleine.WithMTU(*mtu), madeleine.WithPipelineDepth(*depth),
		madeleine.WithTracer(tr), madeleine.WithMetrics(m),
	}
	if *rails > 1 {
		opts = append(opts, madeleine.WithStriping(*rails))
	}
	if *reliable {
		opts = append(opts, madeleine.WithReliableDelivery())
	}
	if *flowOn || *window > 0 {
		opts = append(opts, madeleine.WithFlowControl())
		if *window > 0 {
			opts = append(opts, madeleine.WithCreditWindow(*window))
		}
	}
	if plan := shared.FaultPlan(*flapNet != ""); plan != nil {
		if *flapNet != "" {
			at, dur := *flapAt, *flapFor
			if at == 0 {
				at = 50_000_000 // 50 ms
			}
			if dur == 0 {
				dur = 100_000_000 // 100 ms
			}
			plan.Flap(*flapNet, madeleine.Time(at.Nanoseconds()), madeleine.Duration(dur.Nanoseconds()))
		}
		opts = append(opts, madeleine.WithFaults(plan))
	}

	sys, err := shared.NewSystem(opts...)
	if err != nil {
		fatal(err)
	}

	sizes := make([]int, max(*count, 0))
	for i := range sizes {
		sizes[i] = *bytes
	}
	if _, _, err := cli.Stream(sys, *from, *to, sizes); err != nil {
		fatal(err)
	}

	if *jsonOut {
		emitJSON(sys, m)
		return
	}

	if !*noProm {
		sys.WritePrometheus(os.Stdout)
	}
	if st := sys.Stats().Stripe; st.Messages > 0 {
		fmt.Printf("\nstriping: %d messages, %d rebalances, %d rail failovers\n",
			st.Messages, st.Rebalances, st.RailFailovers)
		var total int64
		for _, b := range st.RailBytes {
			total += b
		}
		idx := make([]int, 0, len(st.RailBytes))
		for i := range st.RailBytes {
			idx = append(idx, i)
		}
		sort.Ints(idx)
		for _, i := range idx {
			b := st.RailBytes[i]
			fmt.Printf("  rail %d: %d bytes (%.1f%%)\n", i, b, 100*float64(b)/float64(total))
		}
	}
	if fs := sys.Stats().Flow; fs.Accounts > 0 || fs.SchedRounds > 0 {
		fmt.Printf("\nflow control: %d credit accounts, %d granted, %d spent, %d stalls (%v stalled), %d sched rounds, %d backpressure\n",
			fs.Accounts, fs.CreditsGranted, fs.CreditsSpent, fs.Stalls, fs.StallTime,
			fs.SchedRounds, fs.Backpressure)
		if accts := sys.FlowAccounts(); len(accts) > 0 {
			fmt.Printf("%-22s %10s %10s %8s %12s\n", "account (gw <- sender)", "granted", "spent", "stalls", "stalled")
			for _, a := range accts {
				fmt.Printf("%-22s %10d %10d %8d %12v\n",
					a.Gateway+" <- "+a.Sender, a.Granted, a.Spent, a.Stalls, a.StallTime)
			}
		}
	}
	if h := sys.Health(); h != nil {
		snap := h.Snapshot()
		sort.Slice(snap, func(i, j int) bool {
			a, b := snap[i].Link, snap[j].Link
			if a.From != b.From {
				return a.From < b.From
			}
			if a.To != b.To {
				return a.To < b.To
			}
			return a.Network < b.Network
		})
		fmt.Printf("\nlink health: epoch %d, %d probes, %d readmissions\n",
			h.Epoch(), h.Probes(), h.Readmissions())
		fmt.Printf("%-18s %-10s %-9s %6s %12s %12s\n", "link", "network", "state", "score", "rtt", "since")
		for _, lh := range snap {
			rtt := "-"
			if lh.RTT > 0 {
				rtt = lh.RTT.String()
			}
			fmt.Printf("%-18s %-10s %-9s %6.2f %12s %12v\n",
				lh.Link.From+"->"+lh.Link.To, lh.Link.Network, lh.State.String(),
				lh.Score, rtt, madeleine.Duration(lh.Since))
		}
		if ts := h.Transitions(); len(ts) > 0 {
			fmt.Println("transitions:")
			for _, tr := range ts {
				fmt.Printf("  %12v  %s->%s via %s: %s -> %s (epoch %d)\n",
					madeleine.Duration(tr.At), tr.Link.From, tr.Link.To, tr.Link.Network,
					tr.From, tr.To, tr.Epoch)
			}
		}
	}
	if *diagnose {
		fmt.Println()
		sys.Diagnose().Write(os.Stdout)
	}
	if *lanes {
		fmt.Printf("\npipeline lanes over [0, %v):\n", madeleine.Duration(sys.Now()))
		madeleine.WriteLaneReport(os.Stdout, sys.Lanes(0, sys.Now()))
	}
	if *msgs != "" {
		ids := sys.Metrics().Messages()
		if *msgs != "all" {
			id, err := strconv.ParseUint(*msgs, 10, 64)
			if err != nil {
				fatal(fmt.Errorf("bad -trace %q (want \"all\" or a message ID)", *msgs))
			}
			ids = []uint64{id}
		}
		for _, id := range ids {
			hops := sys.MessageTrace(id)
			fmt.Printf("\nmessage %d (%d events):\n", id, len(hops))
			for _, h := range hops {
				fmt.Println("  " + h.String())
			}
		}
	}
	if *chrome != "" {
		f, err := os.Create(*chrome)
		if err != nil {
			fatal(err)
		}
		if err := sys.WriteChromeTrace(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "madstat: wrote %s (load it at ui.perfetto.dev)\n", *chrome)
	}
}

// emitJSON prints the run's full observability state as one document:
// every metric series, the unified per-subsystem stats snapshot, the health
// panel, the critical-path diagnosis, and any automatic flight dumps.
func emitJSON(sys *madeleine.System, m *madeleine.Metrics) {
	type linkDoc struct {
		From    string  `json:"from"`
		To      string  `json:"to"`
		Network string  `json:"network"`
		State   string  `json:"state"`
		Score   float64 `json:"score"`
		RTTNS   int64   `json:"rtt_ns"`
	}
	type healthDoc struct {
		Epoch        uint64    `json:"epoch"`
		Probes       int64     `json:"probes"`
		Readmissions int64     `json:"readmissions"`
		Links        []linkDoc `json:"links"`
	}
	st := sys.Stats()
	out := struct {
		Metrics   []madeleine.MetricSample     `json:"metrics"`
		Stats     madeleine.Stats              `json:"stats"`
		Accounts  []madeleine.FlowAccountStats `json:"flow_accounts,omitempty"`
		Health    *healthDoc                   `json:"health,omitempty"`
		Diagnosis madeleine.Diagnosis          `json:"diagnosis"`
		Dumps     []madeleine.FlightDump       `json:"flight_dumps,omitempty"`
	}{
		Metrics:   m.Samples(),
		Stats:     st,
		Accounts:  sys.FlowAccounts(),
		Diagnosis: sys.Diagnose(),
		Dumps:     sys.Flight().Dumps(),
	}
	if out.Metrics == nil {
		out.Metrics = []madeleine.MetricSample{}
	}
	if out.Diagnosis.Findings == nil {
		out.Diagnosis.Findings = []madeleine.Finding{}
	}
	if h := sys.Health(); h != nil {
		hd := &healthDoc{Epoch: h.Epoch(), Probes: h.Probes(), Readmissions: h.Readmissions()}
		snap := h.Snapshot()
		sort.Slice(snap, func(i, j int) bool {
			a, b := snap[i].Link, snap[j].Link
			if a.From != b.From {
				return a.From < b.From
			}
			if a.To != b.To {
				return a.To < b.To
			}
			return a.Network < b.Network
		})
		for _, lh := range snap {
			hd.Links = append(hd.Links, linkDoc{
				From: lh.Link.From, To: lh.Link.To, Network: lh.Link.Network,
				State: lh.State.String(), Score: lh.Score, RTTNS: int64(lh.RTT),
			})
		}
		out.Health = hd
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "madstat:", err)
	os.Exit(1)
}
