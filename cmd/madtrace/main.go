// Command madtrace streams one message through the paper testbed's gateway
// and dumps the pipeline timeline — the textual Figures 5 and 8.
//
// Usage:
//
//	madtrace                      # SCI -> Myrinet (Figure 5)
//	madtrace -dir m2s             # Myrinet -> SCI (Figure 8)
//	madtrace -mtu 16384 -bytes 262144 -spans
//	madtrace -depth 4             # deeper gateway pipeline ring
//	madtrace -loss 0.05 -seed 42  # reliable delivery under 5% packet loss
//	madtrace -crash 2ms           # the gateway dies mid-transfer
//	madtrace -json                # machine-readable run summary on stdout
//	madtrace -chrome run.json     # Perfetto-loadable trace_event file
//	madtrace -budget              # per-message latency budgets + diagnosis
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	madeleine "madgo"
	"madgo/cmd/internal/cli"
	"madgo/internal/trace"
)

func main() {
	var (
		dir   = flag.String("dir", "s2m", `direction: "s2m" (SCI->Myrinet, Fig. 5) or "m2s" (Myrinet->SCI, Fig. 8)`)
		mtu   = flag.Int("mtu", 32*1024, "forwarding packet size")
		depth = flag.Int("depth", 2, "gateway pipeline depth (1 disables pipelining)")
		bytes = flag.Int("bytes", 256*1024, "message size")
		cols  = flag.Int("cols", 100, "timeline width in columns")
		spans = flag.Bool("spans", false, "also list raw spans")

		jsonOut   = flag.Bool("json", false, "emit a machine-readable JSON run summary instead of the timeline")
		chromeOut = flag.String("chrome", "", "write Chrome trace_event JSON (Perfetto-loadable) to this file")
		budget    = flag.Bool("budget", false, "print per-message latency budgets and the critical-path diagnosis")

		shared = cli.Register(flag.CommandLine, false, "crash the gateway at this virtual time (0 = never)")
	)
	flag.Parse()

	var src, dst string
	switch *dir {
	case "s2m":
		src, dst = "a1", "b1"
	case "m2s":
		src, dst = "b1", "a1"
	default:
		fmt.Fprintf(os.Stderr, "madtrace: bad -dir %q\n", *dir)
		os.Exit(2)
	}

	m := madeleine.NewMetrics()
	opts := []madeleine.Option{
		madeleine.WithMTU(*mtu), madeleine.WithPipelineDepth(*depth),
		madeleine.WithMetrics(m), cli.WithRingsFor(1, *bytes, *mtu),
	}
	if plan := shared.FaultPlan(false); plan != nil {
		opts = append(opts, madeleine.WithFaults(plan))
	}
	sys, err := shared.NewSystem(opts...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "madtrace:", err)
		os.Exit(1)
	}

	n := *bytes
	_, ends, err := cli.Stream(sys, src, dst, []int{n})
	if err != nil {
		fmt.Fprintln(os.Stderr, "madtrace:", err)
		os.Exit(1)
	}
	done := ends[0]

	if *chromeOut != "" {
		f, err := os.Create(*chromeOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "madtrace:", err)
			os.Exit(1)
		}
		if err := sys.WriteChromeTrace(f); err != nil {
			fmt.Fprintln(os.Stderr, "madtrace:", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "madtrace:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "madtrace: wrote %s (load it at ui.perfetto.dev)\n", *chromeOut)
	}

	if *jsonOut {
		emitJSON(sys, m, src, dst, n, *mtu, done)
		return
	}

	fmt.Printf("%s -> %s, %d bytes in %d-byte packets, one-way %v (%.1f MB/s)\n\n",
		src, dst, n, *mtu, madeleine.Duration(done),
		float64(n)/(float64(done)/1e9)/1e6)
	lanes, err := trace.Of(sys.Session.Platform)
	if err != nil {
		fmt.Fprintln(os.Stderr, "madtrace:", err)
		os.Exit(1)
	}
	fmt.Println(lanes.Timeline(0, done, *cols))
	if ds := sys.Stats().Delivery; ds != (madeleine.DeliveryStats{}) {
		fmt.Printf("recovery: %d retransmits, %d message resends, %d failovers, %d checksum drops, %d duplicates\n",
			ds.Retransmits, ds.MessageResends, ds.Failovers, ds.ChecksumDrops, ds.Duplicates)
	}
	if *budget {
		fmt.Println("\nlatency budgets (per message, with aggregate):")
		madeleine.WriteBudgetReport(os.Stdout, sys.Budgets())
		fmt.Println()
		sys.Diagnose().Write(os.Stdout)
	}
	if *spans {
		fmt.Println()
		for _, s := range lanes {
			fmt.Println(s)
		}
	}
}

// emitJSON prints the run as one JSON document: transfer summary, recovery
// counters and the provenance of every traced message.
func emitJSON(sys *madeleine.System, m *madeleine.Metrics, src, dst string, n, mtu int, done madeleine.Time) {
	type hop struct {
		At     int64  `json:"at_ns"`
		Node   string `json:"node"`
		Op     string `json:"op"`
		Detail string `json:"detail"`
		Bytes  int    `json:"bytes"`
	}
	type msg struct {
		ID   uint64 `json:"id"`
		Hops []hop  `json:"hops"`
	}
	out := struct {
		Src       string                  `json:"src"`
		Dst       string                  `json:"dst"`
		Bytes     int                     `json:"bytes"`
		MTU       int                     `json:"mtu"`
		OneWayNS  int64                   `json:"one_way_ns"`
		MBps      float64                 `json:"mb_per_s"`
		Delivery  madeleine.DeliveryStats `json:"delivery"`
		Messages  []msg                   `json:"messages"`
		LaneCount int                     `json:"lanes"`
	}{
		Src: src, Dst: dst, Bytes: n, MTU: mtu,
		OneWayNS: int64(done),
		MBps:     float64(n) / (float64(done) / 1e9) / 1e6,
		Delivery: sys.Stats().Delivery,
		Messages: []msg{},
	}
	for _, id := range m.Messages() {
		mm := msg{ID: id}
		for _, h := range sys.MessageTrace(id) {
			mm.Hops = append(mm.Hops, hop{
				At: int64(h.At), Node: h.Node, Op: h.Op, Detail: h.Detail, Bytes: h.Bytes,
			})
		}
		out.Messages = append(out.Messages, mm)
	}
	out.LaneCount = len(sys.Lanes(0, done))
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fmt.Fprintln(os.Stderr, "madtrace:", err)
		os.Exit(1)
	}
}
