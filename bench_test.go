// Benchmarks regenerating every table and figure of the paper's evaluation.
//
// Each benchmark runs one registered experiment on the simulated testbed
// and reports the headline metric of that experiment as a custom benchmark
// metric (MB/s where applicable). The full numeric series are printed once
// per benchmark so `go test -bench . -benchmem | tee bench_output.txt`
// captures the reproduction data; EXPERIMENTS.md contains the reference
// copy with commentary.
//
// By default the paper-scale sweeps run (message sizes up to 8 MB, five
// packet sizes); -short trims them.
package madeleine_test

import (
	"fmt"
	"os"
	"sync"
	"testing"

	"madgo/internal/bench"
)

var printOnce sync.Map

// runExperiment executes the experiment b.N times (results are
// deterministic, so iterations measure harness cost only), prints its table
// once, and reports its headline metric. What the simulation kernel itself
// costs the host — a process wake, a spawn, a callback event, a channel
// hand-off — is measured by the benchmarks of internal/vtime and
// internal/vtime/vsync.
func runExperiment(b *testing.B, id string, metric func(*bench.Result) (float64, string)) {
	b.Helper()
	e, ok := bench.Lookup(id)
	if !ok {
		b.Fatalf("no experiment %s", id)
	}
	opts := bench.Options{Quick: testing.Short()}
	var r *bench.Result
	for i := 0; i < b.N; i++ {
		r = e.Run(opts)
	}
	if _, printed := printOnce.LoadOrStore(id, true); !printed {
		fmt.Println()
		bench.WriteTable(os.Stdout, r)
	}
	if metric != nil {
		v, unit := metric(r)
		b.ReportMetric(v, unit)
	}
}

// maxAt returns the highest bandwidth of a series at the largest measured
// message size.
func lastY(r *bench.Result, series string) float64 {
	for _, s := range r.Series {
		if s.Name == series && len(s.Points) > 0 {
			return s.Points[len(s.Points)-1].Y
		}
	}
	return 0
}

// BenchmarkT1RawNetworks regenerates the §3.2.2 in-text table: raw one-way
// bandwidth of each network and the SCI/Myrinet crossover near 16 KB.
func BenchmarkT1RawNetworks(b *testing.B) {
	runExperiment(b, "t1", func(r *bench.Result) (float64, string) {
		return lastY(r, "myrinet"), "myrinet-MB/s"
	})
}

// BenchmarkFig6SCIToMyrinet regenerates Figure 6: SCI→Myrinet forwarding
// bandwidth vs message size for packet sizes 8–128 KB.
func BenchmarkFig6SCIToMyrinet(b *testing.B) {
	runExperiment(b, "fig6", func(r *bench.Result) (float64, string) {
		return r.MaxY(""), "peak-MB/s"
	})
}

// BenchmarkFig7MyrinetToSCI regenerates Figure 7: the PCI-contended
// direction.
func BenchmarkFig7MyrinetToSCI(b *testing.B) {
	runExperiment(b, "fig7", func(r *bench.Result) (float64, string) {
		return r.MaxY(""), "peak-MB/s"
	})
}

// BenchmarkT2PipelinePeriod regenerates the §3.3.1 pipeline-period
// accounting at 8 KB packets.
func BenchmarkT2PipelinePeriod(b *testing.B) {
	runExperiment(b, "t2", nil)
}

// BenchmarkT3PCIStretch regenerates the §3.4.1 rdtsc instrumentation of the
// SCI send step under concurrent Myrinet DMA.
func BenchmarkT3PCIStretch(b *testing.B) {
	runExperiment(b, "t3", nil)
}

// BenchmarkFig5PipelineTimeline regenerates the Figure 5 timeline
// (SCI→Myrinet pipeline overlap).
func BenchmarkFig5PipelineTimeline(b *testing.B) {
	runExperiment(b, "fig5", nil)
}

// BenchmarkFig8PCIConflictTimeline regenerates the Figure 8 timeline
// (Myrinet→SCI with elongated send steps).
func BenchmarkFig8PCIConflictTimeline(b *testing.B) {
	runExperiment(b, "fig8", nil)
}

// BenchmarkHeadline regenerates the abstract's headline: peak inter-cluster
// bandwidth against the 66 MB/s PCI ceiling.
func BenchmarkHeadline(b *testing.B) {
	runExperiment(b, "headline", nil)
}

// BenchmarkA1AppLevelForwarding is the §2.2.1 ablation: the integrated
// forwarding against Nexus-style store-and-forward and PACX-style TCP
// relaying.
func BenchmarkA1AppLevelForwarding(b *testing.B) {
	runExperiment(b, "a1", func(r *bench.Result) (float64, string) {
		return lastY(r, "madeleine-gtm"), "gtm-MB/s"
	})
}

// BenchmarkA2MTUSweep is the packet-size sweep around the §3.2.2 analysis.
func BenchmarkA2MTUSweep(b *testing.B) {
	runExperiment(b, "a2", nil)
}

// BenchmarkA3PipelineAblation toggles double buffering and the zero-copy
// election.
func BenchmarkA3PipelineAblation(b *testing.B) {
	runExperiment(b, "a3", nil)
}

// BenchmarkA4InflowRegulation sweeps the gateway ingress throttle proposed
// in the paper's conclusion.
func BenchmarkA4InflowRegulation(b *testing.B) {
	runExperiment(b, "a4", nil)
}

// BenchmarkA5StaticBufferZeroCopy exercises the §2.3 election on an SBP
// egress network.
func BenchmarkA5StaticBufferZeroCopy(b *testing.B) {
	runExperiment(b, "a5", nil)
}

// BenchmarkA7ScatterGather toggles the gather-DMA aggregation of the BIP
// buffer-management module (§2.1.1).
func BenchmarkA7ScatterGather(b *testing.B) {
	runExperiment(b, "a7", nil)
}

// BenchmarkA6SCIDMAWorkaround implements and measures the paper's §3.4.1
// proposal: SCI sends via the board's DMA engine to escape the PCI
// priority conflict.
func BenchmarkA6SCIDMAWorkaround(b *testing.B) {
	runExperiment(b, "a6", func(r *bench.Result) (float64, string) {
		return lastY(r, "sci-dma (workaround)"), "dma-MB/s"
	})
}
