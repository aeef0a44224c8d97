package bench

import (
	"fmt"

	"madgo/internal/assembly"
	"madgo/internal/drivers/bip"
	"madgo/internal/drivers/sisci"
	"madgo/internal/fwd"
	"madgo/internal/mad"
	"madgo/internal/topo"
	"madgo/internal/trace"
	"madgo/internal/vtime"
)

// KB and MB sizes used throughout the sweeps.
const kb = 1024

func msgSizes(o Options) []int {
	if o.Quick {
		return []int{16 * kb, 64 * kb, 256 * kb, 1024 * kb}
	}
	sizes := []int{}
	for n := 4 * kb; n <= 8*1024*kb; n *= 2 {
		sizes = append(sizes, n)
	}
	return sizes
}

func packetSizes(o Options) []int {
	if o.Quick {
		return []int{8 * kb, 32 * kb, 128 * kb}
	}
	return []int{8 * kb, 16 * kb, 32 * kb, 64 * kb, 128 * kb}
}

func mbps(bytes int, d vtime.Duration) float64 {
	return float64(bytes) / d.Seconds() / 1e6
}

func init() {
	register(&Experiment{
		ID:          "t1",
		Title:       "Raw network performance and the SCI/Myrinet crossover (§3.2.2)",
		Description: "Direct (no gateway) one-way bandwidth per network; SCI wins small messages, Myrinet large, both ≈40 MB/s at the 16 KB crossover that motivates the packet-size choice.",
		Run:         runT1,
	})
	register(&Experiment{
		ID:          "fig6",
		Title:       "SCI→Myrinet forwarding bandwidth vs message size (Figure 6)",
		Description: "One-way inter-cluster ping a1→b1 through the gateway, one curve per packet size 8–128 KB.",
		Run:         func(o Options) *Result { return runFig(o, "fig6", "a1", "b1") },
	})
	register(&Experiment{
		ID:          "fig7",
		Title:       "Myrinet→SCI forwarding bandwidth vs message size (Figure 7)",
		Description: "Same sweep in the direction where the gateway's DMA receives outrank its PIO sends on the PCI bus.",
		Run:         func(o Options) *Result { return runFig(o, "fig7", "b1", "a1") },
	})
	register(&Experiment{
		ID:          "t2",
		Title:       "Pipeline-period accounting at 8 KB packets (§3.3.1)",
		Description: "Steady-state gateway step times: the observed period exceeds the longer step by the per-switch software overhead (≈40 µs).",
		Run:         runT2,
	})
	register(&Experiment{
		ID:          "t3",
		Title:       "PCI-contention stretch of the SCI send step (§3.4.1)",
		Description: "rdtsc-style instrumentation: a 16 KB SCI send on the gateway stretches well beyond its nominal duration while Myrinet DMA receives are in flight.",
		Run:         runT3,
	})
	register(&Experiment{
		ID:          "fig5",
		Title:       "Gateway pipeline timeline, SCI→Myrinet (Figure 5)",
		Description: "ASCII rendering of the double-buffer pipeline: receive of packet k+1 overlaps the send of packet k.",
		Run:         func(o Options) *Result { return runTimeline(o, "fig5", "a1", "b1") },
	})
	register(&Experiment{
		ID:          "fig8",
		Title:       "Gateway pipeline timeline, Myrinet→SCI (Figure 8)",
		Description: "The pathological direction: PCI conflicts elongate the send steps and the pipeline degenerates.",
		Run:         func(o Options) *Result { return runTimeline(o, "fig8", "b1", "a1") },
	})
	register(&Experiment{
		ID:          "headline",
		Title:       "Headline: peak inter-cluster bandwidth vs the PCI ceiling (§1, T4)",
		Description: "Best SCI→Myrinet configuration against the 66 MB/s theoretical one-way maximum of a 33 MHz/32-bit PCI bus.",
		Run:         runHeadline,
	})
	register(&Experiment{
		ID:          "a1",
		Title:       "Ablation: integrated forwarding vs application-level relays (§2.2.1)",
		Description: "GTM pipeline vs Nexus-style store-and-forward on the fast networks vs PACX-style TCP inter-cluster relaying.",
		Run:         runA1,
	})
	register(&Experiment{
		ID:          "a2",
		Title:       "Ablation: packet-size (MTU) sweep (§3.2.2)",
		Description: "Asymptotic forwarding bandwidth as a function of the GTM packet size, both directions.",
		Run:         runA2,
	})
	register(&Experiment{
		ID:          "a3",
		Title:       "Ablation: pipelining and zero-copy (§2.2.2, §2.3)",
		Description: "Single-buffer (no pipelining) and copy-always gateways against the full mechanism.",
		Run:         runA3,
	})
	register(&Experiment{
		ID:          "a4",
		Title:       "Ablation: gateway inflow regulation (§4 future work)",
		Description: "Throttling the gateway's receive loop in the Myrinet→SCI direction; packet spacing alone does not recover the PIO bandwidth lost to DMA priority.",
		Run:         runA4,
	})
	register(&Experiment{
		ID:          "a6",
		Title:       "Future work implemented: SCI DMA-engine sends on the gateway (§3.4.1/§4)",
		Description: "The paper's proposed workaround for the PCI conflict: send over SCI with the board's DMA engine instead of PIO, trading raw engine speed for immunity to DMA-over-PIO demotion.",
		Run:         runA6,
	})
	register(&Experiment{
		ID:          "a7",
		Title:       "Ablation: scatter/gather aggregation (§2.1.1)",
		Description: "Grouping small blocks with gather-DMA descriptors vs host-copy aggregation, on a message of many small blocks over Myrinet.",
		Run:         runA7,
	})
	register(&Experiment{
		ID:          "a5",
		Title:       "Ablation: static-buffer (SBP) egress zero-copy election (§2.3)",
		Description: "Receiving into the egress driver's static buffers vs forcing copies, with gateway copy accounting.",
		Run:         runA5,
	})
}

func runT1(o Options) *Result {
	sizes := []int{64, 256, 1 * kb, 4 * kb, 16 * kb, 64 * kb, 256 * kb, 1024 * kb, 4096 * kb}
	if o.Quick {
		sizes = []int{256, 4 * kb, 16 * kb, 256 * kb, 1024 * kb}
	}
	r := &Result{
		ID: "t1", Title: "raw one-way bandwidth per network",
		XLabel: "message", YLabel: "MB/s",
	}
	for _, proto := range []string{"sci", "myrinet", "ethernet"} {
		times := NewRawPair(proto).OneWaySeries(sizes)
		s := Series{Name: proto}
		for i, n := range sizes {
			s.Points = append(s.Points, Point{X: float64(n), Y: mbps(n, times[i])})
		}
		r.Series = append(r.Series, s)
	}
	// The crossover note.
	cross := NewRawPair("sci").OneWaySeries([]int{16 * kb})
	crossM := NewRawPair("myrinet").OneWaySeries([]int{16 * kb})
	r.Notes = append(r.Notes, fmt.Sprintf(
		"at 16 KB: SCI %.1f MB/s (one-way %v), Myrinet %.1f MB/s (one-way %v) — the §3.2.2 crossover",
		mbps(16*kb, cross[0]), cross[0], mbps(16*kb, crossM[0]), crossM[0]))
	return r
}

func runFig(o Options, id, src, dst string) *Result {
	r := &Result{
		ID: id, Title: fmt.Sprintf("forwarding bandwidth %s→%s", src, dst),
		XLabel: "message", YLabel: "MB/s",
	}
	for _, pkt := range packetSizes(o) {
		cfg := fwd.DefaultConfig()
		cfg.MTU = pkt
		tb := NewTestbed(cfg)
		sizes := []int{}
		for _, n := range msgSizes(o) {
			if n >= pkt {
				sizes = append(sizes, n)
			}
		}
		res := tb.PingSeries(src, dst, sizes)
		s := Series{Name: fmt.Sprintf("paquet=%dKB", pkt/kb)}
		for _, m := range res {
			s.Points = append(s.Points, Point{X: float64(m.Bytes), Y: m.MBps()})
		}
		r.Series = append(r.Series, s)
	}
	return r
}

func runT2(o Options) *Result {
	tr := trace.New()
	cfg := fwd.DefaultConfig()
	cfg.MTU = 8 * kb
	cfg.Tracer = tr
	tb := NewTestbed(cfg)
	n := 4096 * kb
	if o.Quick {
		n = 1024 * kb
	}
	tb.Stream("a1", "b1", n, 1)

	recvMean, _ := tr.SteadyMean("gw:recv:sci0", "recv", 4, 4)
	sendMean, _ := tr.SteadyMean("gw:send:myri0", "send", 4, 4)
	periods := tr.Periods("gw:recv:sci0", "recv")
	var period vtime.Duration
	if len(periods) > 8 {
		for _, p := range periods[4 : len(periods)-4] {
			period += p
		}
		period /= vtime.Duration(len(periods) - 8)
	}
	longer := recvMean
	if sendMean > longer {
		longer = sendMean
	}
	overhead := period - longer
	r := &Result{
		ID: "t2", Title: "pipeline period accounting, 8 KB packets, SCI→Myrinet",
		Header: []string{"quantity", "value"},
		Table: [][]string{
			{"steady receive step (SCI)", recvMean.String()},
			{"steady send step (Myrinet)", sendMean.String()},
			{"observed pipeline period", period.String()},
			{"period - max(step)", overhead.String()},
			{"resulting bandwidth", fmt.Sprintf("%.1f MB/s", mbps(8*kb, period))},
		},
	}
	r.Notes = append(r.Notes,
		"the residual matches the per-switch software overhead the paper estimates at ≈40 µs")
	return r
}

func runT3(o Options) *Result {
	n := 4096 * kb
	if o.Quick {
		n = 1024 * kb
	}
	// Stretched: the real gateway, Myrinet→SCI.
	tr := trace.New()
	cfg := fwd.DefaultConfig()
	cfg.MTU = 16 * kb
	cfg.Tracer = tr
	NewTestbed(cfg).Stream("b1", "a1", n, 1)
	stretched, _ := tr.SteadyMean("gw:recv:myri0", "recv", 4, 4)
	stretchedSend, _ := tr.SteadyMean("gw:send:sci0", "send", 4, 4)

	// Nominal: the same SCI send with no concurrent Myrinet DMA —
	// SCI→Myrinet direction, read the SCI *receive* at the gateway and a
	// raw SCI transfer for the uncontended send.
	raw := NewRawPair("sci").OneWaySeries([]int{16 * kb})
	r := &Result{
		ID: "t3", Title: "SCI send step under concurrent Myrinet DMA, 16 KB packets",
		Header: []string{"quantity", "value"},
		Table: [][]string{
			{"nominal 16 KB SCI transfer (uncontended)", raw[0].String()},
			{"gateway SCI send step under DMA", stretchedSend.String()},
			{"gateway Myrinet receive step (for reference)", stretched.String()},
			{"stretch factor", fmt.Sprintf("%.2f×", float64(stretchedSend)/float64(raw[0]))},
		},
	}
	r.Notes = append(r.Notes,
		"DMA PCI transactions initiated by the Myrinet card outrank the processor's PIO transactions: the send is roughly halved while a receive is in flight (§3.4.1)")
	return r
}

func runTimeline(o Options, id, src, dst string) *Result {
	tr := trace.New()
	cfg := fwd.DefaultConfig()
	cfg.MTU = 32 * kb
	cfg.Tracer = tr
	_, ends := NewTestbed(cfg).Stream(src, dst, 256*kb, 1)
	r := &Result{ID: id, Title: fmt.Sprintf("gateway pipeline timeline %s→%s (256 KB message, 32 KB packets)", src, dst)}
	r.Notes = append(r.Notes, "\n"+tr.Timeline(0, ends[0], 100))
	for _, s := range tr.Spans() {
		r.Notes = append(r.Notes, s.String())
	}
	return r
}

func runHeadline(o Options) *Result {
	cfg := fwd.DefaultConfig()
	cfg.MTU = 128 * kb
	tb := NewTestbed(cfg)
	n := 8192 * kb
	if o.Quick {
		n = 2048 * kb
	}
	res := tb.PingSeries("a1", "b1", []int{n})
	peak := res[0].MBps()
	// The honest yardstick: what a DIRECT link on the same model delivers.
	direct := NewRawPair("myrinet").OneWaySeries([]int{n})
	directBW := mbps(n, direct[0])
	r := &Result{
		ID: "headline", Title: "peak inter-cluster bandwidth",
		Header: []string{"quantity", "value"},
		Table: [][]string{
			{"message size", fmt.Sprintf("%d KB", n/kb)},
			{"packet size", "128 KB"},
			{"observed SCI→Myrinet bandwidth", fmt.Sprintf("%.1f MB/s", peak)},
			{"direct Myrinet bandwidth (no gateway)", fmt.Sprintf("%.1f MB/s", directBW)},
			{"forwarding efficiency vs direct", fmt.Sprintf("%.0f%%", 100*peak/directBW)},
			{"theoretical 33 MHz/32-bit PCI one-way maximum", "66 MB/s"},
			{"fraction of the ceiling", fmt.Sprintf("%.0f%%", 100*peak/66)},
		},
	}
	r.Notes = append(r.Notes,
		"\"the observed inter-cluster bandwidth is close to the one that can be delivered by the hardware\" — the abstract's claim, quantified")
	return r
}

func runA1(o Options) *Result {
	sizes := msgSizes(o)
	r := &Result{
		ID: "a1", Title: "integrated forwarding vs application-level relays, a1→b1",
		XLabel: "message", YLabel: "MB/s",
	}
	// Integrated GTM pipeline.
	tb := NewTestbed(fwd.DefaultConfig())
	gtm := Series{Name: "madeleine-gtm"}
	for _, m := range tb.PingSeries("a1", "b1", sizes) {
		gtm.Points = append(gtm.Points, Point{X: float64(m.Bytes), Y: m.MBps()})
	}
	r.Series = append(r.Series, gtm)
	// Nexus-style app-level store-and-forward.
	for _, mode := range []struct {
		name string
		pacx bool
	}{{"app-level", false}, {"pacx-tcp", true}} {
		bb := NewBaselineBed(mode.pacx)
		times := bb.OneWaySeries("a1", "b1", sizes)
		s := Series{Name: mode.name}
		for i, n := range sizes {
			s.Points = append(s.Points, Point{X: float64(n), Y: mbps(n, times[i])})
		}
		r.Series = append(r.Series, s)
	}
	return r
}

func runA2(o Options) *Result {
	n := 2048 * kb
	mtus := []int{2 * kb, 4 * kb, 8 * kb, 16 * kb, 32 * kb, 64 * kb, 128 * kb, 256 * kb}
	if o.Quick {
		n = 512 * kb
		mtus = []int{4 * kb, 16 * kb, 64 * kb, 256 * kb}
	}
	r := &Result{
		ID: "a2", Title: fmt.Sprintf("packet-size sweep at %d KB messages", n/kb),
		XLabel: "paquet", YLabel: "MB/s",
	}
	for _, dir := range []struct {
		name     string
		src, dst string
	}{{"sci→myrinet", "a1", "b1"}, {"myrinet→sci", "b1", "a1"}} {
		s := Series{Name: dir.name}
		for _, mtu := range mtus {
			cfg := fwd.DefaultConfig()
			cfg.MTU = mtu
			tb := NewTestbed(cfg)
			res := tb.PingSeries(dir.src, dir.dst, []int{n})
			s.Points = append(s.Points, Point{X: float64(mtu), Y: res[0].MBps()})
		}
		r.Series = append(r.Series, s)
	}
	return r
}

func runA3(o Options) *Result {
	n := 2048 * kb
	if o.Quick {
		n = 512 * kb
	}
	measure := func(cfg fwd.Config) float64 {
		tb := NewTestbed(cfg)
		res := tb.PingSeries("a1", "b1", []int{n})
		return res[0].MBps()
	}
	base := fwd.DefaultConfig()
	noPipe := base
	noPipe.PipelineDepth = 1
	deep := base
	deep.PipelineDepth = 4
	noZC := base
	noZC.ZeroCopy = false
	r := &Result{
		ID: "a3", Title: fmt.Sprintf("pipeline/zero-copy ablation, %d KB messages, 32 KB packets, SCI→Myrinet", n/kb),
		Header: []string{"configuration", "MB/s"},
		Table: [][]string{
			{"full mechanism (2 buffers, zero-copy)", fmt.Sprintf("%.1f", measure(base))},
			{"no pipelining (1 buffer)", fmt.Sprintf("%.1f", measure(noPipe))},
			{"deeper pipeline (4 buffers)", fmt.Sprintf("%.1f", measure(deep))},
			{"copy-always gateway", fmt.Sprintf("%.1f", measure(noZC))},
		},
	}
	return r
}

func runA4(o Options) *Result {
	n := 2048 * kb
	if o.Quick {
		n = 512 * kb
	}
	r := &Result{
		ID: "a4", Title: fmt.Sprintf("gateway inflow regulation, Myrinet→SCI, %d KB messages", n/kb),
		Header: []string{"inflow limit", "MB/s"},
	}
	limits := []float64{0, 45e6, 40e6, 35e6, 30e6, 25e6, 20e6}
	if o.Quick {
		limits = []float64{0, 35e6, 20e6}
	}
	for _, lim := range limits {
		cfg := fwd.DefaultConfig()
		cfg.InflowLimit = lim
		tb := NewTestbed(cfg)
		res := tb.PingSeries("b1", "a1", []int{n})
		label := "off"
		if lim > 0 {
			label = fmt.Sprintf("%.0f MB/s", lim/1e6)
		}
		r.Table = append(r.Table, []string{label, fmt.Sprintf("%.1f", res[0].MBps())})
	}
	r.Notes = append(r.Notes,
		"spacing packets does not recover the PIO bandwidth: the interference is per-transaction DMA priority, not aggregate load — the regulation the paper calls for must act at the bus level")
	return r
}

func runA6(o Options) *Result {
	sizes := msgSizes(o)
	r := &Result{
		ID: "a6", Title: "Myrinet→SCI forwarding: PIO vs DMA-engine SCI sends, 32 KB packets",
		XLabel: "message", YLabel: "MB/s",
	}
	for _, mode := range []struct {
		name string
		drv  mad.Driver
	}{
		{"sci-pio (default)", nil},
		{"sci-dma (workaround)", sisci.NewDMA()},
	} {
		var override map[string]mad.Driver
		if mode.drv != nil {
			override = map[string]mad.Driver{"sci": mode.drv}
		}
		tb := NewTestbedDrivers(fwd.DefaultConfig(), override)
		s := Series{Name: mode.name}
		for _, m := range tb.PingSeries("b1", "a1", sizes) {
			s.Points = append(s.Points, Point{X: float64(m.Bytes), Y: m.MBps()})
		}
		r.Series = append(r.Series, s)
	}
	r.Notes = append(r.Notes,
		"in isolation the DMA engine is the slower SCI send path (t1 anchors: 35 vs 44 MB/s), but on a gateway it escapes the DMA-over-PIO demotion — the trade the paper proposes to investigate")
	return r
}

// capsDriver overrides a driver's capabilities (used to switch the
// scatter/gather BMM off).
type capsDriver struct {
	mad.Driver
	caps mad.Caps
}

func (d capsDriver) Caps() mad.Caps { return d.caps }

func runA7(o Options) *Result {
	blocks := 512
	blockSize := 512
	if o.Quick {
		blocks = 128
	}
	measure := func(sg bool) (vtime.Duration, int64) {
		base := bip.New()
		caps := base.Caps()
		caps.ScatterGather = sg
		rp := newRawPair("myrinet", capsDriver{Driver: base, caps: caps})
		return rp.oneWay([]int{blockSize}, blocks)[0], rp.A.Host.BytesCopied()
	}
	sgTime, sgCopied := measure(true)
	cpTime, cpCopied := measure(false)
	total := blocks * blockSize
	r := &Result{
		ID: "a7", Title: fmt.Sprintf("scatter/gather aggregation, %d × %d B blocks over Myrinet", blocks, blockSize),
		Header: []string{"configuration", "one-way", "MB/s", "sender bytes copied"},
		Table: [][]string{
			{"gather-DMA descriptors", sgTime.String(), fmt.Sprintf("%.1f", mbps(total, sgTime)), fmt.Sprintf("%d", sgCopied)},
			{"host-copy aggregation", cpTime.String(), fmt.Sprintf("%.1f", mbps(total, cpTime)), fmt.Sprintf("%d", cpCopied)},
		},
	}
	r.Notes = append(r.Notes,
		"both coalesce identically on the wire; gather descriptors free the sending CPU — §2.1.1's reason for per-TM buffer-management modules")
	return r
}

// topoSBP is the a5 topology: a Myrinet cluster bridged to an SBP
// (static-buffer) network.
func topoSBP() *topo.Topology {
	tp, err := topo.NewBuilder().
		Network("myri0", "myrinet").
		Network("sbp0", "sbp").
		Node("a", "myri0").
		Node("g", "myri0", "sbp0").
		Node("b", "sbp0").
		Build()
	if err != nil {
		panic(err)
	}
	return tp
}

func runA5(o Options) *Result {
	n := 1024 * kb
	if o.Quick {
		n = 256 * kb
	}
	measure := func(zeroCopy bool) (float64, int64) {
		cfg := fwd.DefaultConfig()
		cfg.ZeroCopy = zeroCopy
		w := newBed(assembly.Spec{Topo: topoSBP(), Config: cfg})
		_, ends := w.Stream("a", "b", n, 1)
		return mbps(n, makespan(ends)), w.Sess.NodeByName("g").Host.BytesCopied()
	}
	zcBW, zcCopies := measure(true)
	cpBW, cpCopies := measure(false)
	r := &Result{
		ID: "a5", Title: fmt.Sprintf("SBP (static-buffer) egress, %d KB messages, Myrinet ingress", n/kb),
		Header: []string{"configuration", "MB/s", "gateway bytes copied"},
		Table: [][]string{
			{"zero-copy election (recv into egress static buffers)", fmt.Sprintf("%.1f", zcBW), fmt.Sprintf("%d", zcCopies)},
			{"copy-always", fmt.Sprintf("%.1f", cpBW), fmt.Sprintf("%d", cpCopies)},
		},
	}
	r.Notes = append(r.Notes, "the election avoids the staging copy entirely; only a static→static bridge would keep one unavoidable copy (§2.3)")
	return r
}
