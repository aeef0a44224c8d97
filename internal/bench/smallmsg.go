package bench

import (
	"fmt"

	"madgo/internal/assembly"
	"madgo/internal/fwd"
	"madgo/internal/topo"
	"madgo/internal/vtime"
)

func init() {
	register(&Experiment{
		ID:    "m1",
		Title: "Eager small-message path: compact framing + cross-message aggregation",
		Description: "Forwarded message-rate sweep from 64 B to 4 KB (plus 64/128 KB parity points) " +
			"through one gateway, seed GTM framing vs the eager path. " +
			"The seed spends F+2 wire transfers per message, so mice pay three per-transfer " +
			"overheads for one fragment; the eager path's coalescer packs whole bursts into " +
			"single MTU-sized frames, and a message too large for one takes the compact framing, " +
			"which piggybacks header and terminator.",
		Run: runM1,
	})
}

// m1Sizes is the sweep: mice (the eager path's target) plus two elephant
// parity points that must not regress — they bypass the coalescer.
var (
	m1Small = []int{64, 128, 256, 512, 1 * kb, 2 * kb, 4 * kb}
	m1Large = []int{64 * kb, 128 * kb}
)

// m1Gate is the speedup over the seed framing the eager+aggregation
// configuration owes at one mouse size: 15x at 64 B, 3x up to 512 B, 2x at
// 1 KB, nothing above. The 64 B cell holds what a sub-message stopped costing
// the sink and the frame (DESIGN.md §27: 23.2x archived, 18.5x quick, against
// 12.6x and 11.6x with a poll and a 20-byte entry each). The others are ratios
// whose denominator rose 1.7x when the gateway began to overlap one message's
// receive with the send of the one before (DESIGN.md §23). A quick run's
// 64-message streams hold the same gate as the archived 256-message ones: an
// aggregated stream carries no constant that does not scale with its length
// (DESIGN.md §24; EXPERIMENTS.md M1 has both stream lengths).
func m1Gate(size int) float64 {
	switch {
	case size <= 64:
		return 15
	case size <= 512:
		return 3
	case size <= 1*kb:
		return 2
	}
	return 0
}

// m1Topo is the forwarding path the framing change targets: one sender, one
// gateway bridging the paper's two high-speed networks, one sink. Every
// transfer crosses the gateway, so per-transfer software overhead dominates
// small-message rate.
func m1Topo() *topo.Topology {
	tp, err := topo.NewBuilder().
		Network("edge", "sci").
		Network("core", "myrinet").
		Node("a", "edge").
		Node("gw", "edge", "core").
		Node("b", "core").
		Build()
	if err != nil {
		panic(err)
	}
	return tp
}

// m1Out is one (config, size) cell: goodput and message rate over a
// back-to-back stream.
type m1Out struct {
	MBps    float64
	MsgsSec float64
}

// runM1Stream drives count back-to-back messages of the given size through
// the gateway and measures goodput and message rate at the sink over the
// whole stream (the makespan ends when the sink has the last message, so
// aggregation cannot hide latency in the measurement).
func runM1Stream(cfg fwd.Config, size, count int) m1Out {
	_, ends := newBed(assembly.Spec{Topo: m1Topo(), Config: cfg}).Stream("a", "b", size, count)
	d := makespan(ends)
	return m1Out{
		MBps:    mbps(size*count, d),
		MsgsSec: float64(count) / (float64(d) / float64(vtime.Second)),
	}
}

// m1Count picks the stream length for one message size: enough messages to
// amortize startup for mice, fewer for the elephant parity points.
func m1Count(size int, quick bool) int {
	count := 256
	if size >= 16*kb {
		count = 16
	}
	if quick {
		count /= 4
	}
	return count
}

// m1Configs returns the two series: the seed framing and the eager path,
// whose coalescer the agg columns name.
func m1Configs() (seed, agg fwd.Config) {
	seed = fwd.DefaultConfig()
	agg = fwd.DefaultConfig()
	agg.Eager = true
	return seed, agg
}

func runM1(o Options) *Result {
	seedCfg, aggCfg := m1Configs()
	sizes := append(append([]int{}, m1Small...), m1Large...)
	r := &Result{
		ID:     "m1",
		Title:  "Small-message goodput through one gateway: seed framing vs eager+aggregation",
		Header: []string{"bytes", "seed MB/s", "agg MB/s", "seed msg/s", "agg msg/s", "agg/seed"},
	}
	mouse, worstSmall, worstKB, worstLarge := 0.0, 0.0, 0.0, 0.0
	short := false // some size missed its speedup gate
	below := func(worst *float64, ratio float64) {
		if *worst == 0 || ratio < *worst {
			*worst = ratio
		}
	}
	for _, size := range sizes {
		count := m1Count(size, o.Quick)
		seed := runM1Stream(seedCfg, size, count)
		agg := runM1Stream(aggCfg, size, count)
		ratio := agg.MBps / seed.MBps
		r.Table = append(r.Table, []string{
			fmt.Sprintf("%d", size),
			fmt.Sprintf("%.2f", seed.MBps),
			fmt.Sprintf("%.2f", agg.MBps),
			fmt.Sprintf("%.0f", seed.MsgsSec),
			fmt.Sprintf("%.0f", agg.MsgsSec),
			fmt.Sprintf("%.2fx", ratio),
		})
		switch {
		case size <= 64:
			mouse = ratio
		case size <= 512:
			below(&worstSmall, ratio)
		case size == 1*kb:
			worstKB = ratio
		case size >= 64*kb:
			below(&worstLarge, ratio)
		}
		short = short || ratio < m1Gate(size)
	}
	r.Notes = append(r.Notes,
		fmt.Sprintf("eager+agg vs seed: 64B speedup %.2fx (gate: >= %gx), worst 128-512B speedup %.2fx (gate: >= %gx), 1KB speedup %.2fx (gate: >= %gx), worst >=64KB parity %.3fx (gate: >= 0.98x)",
			mouse, m1Gate(64), worstSmall, m1Gate(512), worstKB, m1Gate(1*kb), worstLarge))
	if short {
		r.Notes = append(r.Notes, fmt.Sprintf("WARNING: small-message speedup %.2fx (64B), %.2fx (128-512B) or %.2fx (1KB) below its gate", mouse, worstSmall, worstKB))
	}
	if worstLarge < 0.98 {
		r.Notes = append(r.Notes, fmt.Sprintf("WARNING: large-message parity %.3fx below the 0.98x gate", worstLarge))
	}
	return r
}
