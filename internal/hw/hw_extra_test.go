package hw

import (
	"testing"

	"madgo/internal/fluid"
	"madgo/internal/obs"
	"madgo/internal/vtime"
)

func TestNegativeMemcpyPanics(t *testing.T) {
	pl := NewPlatform(vtime.New())
	h := pl.NewHost("x", DefaultCPU(), DefaultPCI())
	pl.Sim.Spawn("p", func(p *vtime.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("expected panic")
			}
		}()
		h.Memcpy(p, -1)
	})
	if err := pl.Sim.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestZeroByteMemcpyIsFreeButCounted(t *testing.T) {
	pl := NewPlatform(vtime.New())
	h := pl.NewHost("x", DefaultCPU(), DefaultPCI())
	pl.Sim.Spawn("p", func(p *vtime.Proc) {
		t0 := p.Now()
		h.Memcpy(p, 0)
		if p.Now() != t0 {
			t.Error("zero-byte memcpy took time")
		}
	})
	if err := pl.Sim.Run(); err != nil {
		t.Fatal(err)
	}
	if h.Copies() != 1 || h.BytesCopied() != 0 {
		t.Errorf("counters = %d/%d", h.Copies(), h.BytesCopied())
	}
}

func TestSCIDMAModel(t *testing.T) {
	pio, dma := SCI(), SCIDMA()
	if dma.SendBusClass != fluid.ClassDMA {
		t.Error("DMA mode must present DMA transactions")
	}
	if dma.SendEngineRate >= pio.SendEngineRate {
		t.Error("the D310 DMA engine is slower than write-combined PIO")
	}
	if dma.SendOverhead <= pio.SendOverhead {
		t.Error("DMA descriptor setup costs more than a PIO store")
	}
	if dma.WCChunk != 0 || dma.SmallWriteRate != 0 {
		t.Error("write combining does not apply to the DMA engine")
	}
	// Receive side is unchanged: remote writes still land as DMA.
	if dma.RecvBusClass != pio.RecvBusClass || dma.RecvEngineRate != pio.RecvEngineRate {
		t.Error("DMA mode must not alter the receive path")
	}
}

func TestPCIPolicyLeavesDMAAlone(t *testing.T) {
	// Two concurrent DMA flows share fairly — the policy demotes only
	// PIO (fig6's full-duplex case is capacity-, not priority-, bound).
	sim := vtime.New()
	pl := NewPlatform(sim)
	h := pl.NewHost("gw", DefaultCPU(), DefaultPCI())
	var d1, d2 vtime.Duration
	sim.Spawn("a", func(p *vtime.Proc) {
		d1 = pl.Engine.Transfer(p, fluid.Spec{
			Name: "in", Demand: 45 * MB, Bytes: 45e6, Route: fluid.Path(fluid.ClassDMA, h.Bus)})
	})
	sim.Spawn("b", func(p *vtime.Proc) {
		d2 = pl.Engine.Transfer(p, fluid.Spec{
			Name: "out", Demand: 45 * MB, Bytes: 45e6, Route: fluid.Path(fluid.ClassDMA, h.Bus)})
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	// 90 MB/s aggregate, two 45 MB/s demands: both finish in ≈1 s.
	for _, d := range []vtime.Duration{d1, d2} {
		if s := d.Seconds(); s < 0.99 || s > 1.05 {
			t.Errorf("DMA flow took %v, want ≈1s", d)
		}
	}
}

func TestWriteCombiningBoundary(t *testing.T) {
	sci := SCI()
	if sci.EffectiveSendRate(sci.WCChunk-1) != sci.SmallWriteRate {
		t.Error("sub-chunk writes must use the slow rate")
	}
	if sci.EffectiveSendRate(sci.WCChunk) != sci.SendEngineRate {
		t.Error("chunk-sized writes must combine")
	}
}

// TestSetMetricsAttachesWhatWasInstrumented: a registry may be armed before or
// after the objects that count, and another armed later; each is attached to
// the counters that exist — never a replacement for them — so it shows
// everything they have counted, the host's own accounting loses nothing, and
// only SetMetrics knows (DESIGN.md §19, §21).
func TestSetMetricsAttachesWhatWasInstrumented(t *testing.T) {
	pl := NewPlatform(vtime.New())
	early := pl.NewHost("early", DefaultCPU(), DefaultPCI())
	first, second := obs.New(), obs.New()
	copyOn := func(hosts ...*Host) {
		pl.Sim.Spawn("copy", func(p *vtime.Proc) {
			for _, h := range hosts {
				h.Memcpy(p, 8)
			}
		})
		if err := pl.Sim.Run(); err != nil {
			t.Fatal(err)
		}
	}
	copyOn(early) // disarmed: the host counts all the same
	pl.SetMetrics(first)
	if got := first.Counter("madgo_memcpy_total", obs.Labels{"node": "early"}); got != 1 || early.Copies() != 1 {
		t.Errorf("a registry armed after one copy shows %v, the host %d, want 1 and 1", got, early.Copies())
	}
	late := pl.NewHost("late", DefaultCPU(), DefaultPCI())
	copyOn(early, late)
	pl.SetMetrics(second)
	pl.SetMetrics(second) // arming twice attaches once
	copyOn(late)
	for _, reg := range []*obs.Registry{first, second} {
		for node, want := range map[string]float64{"early": 2, "late": 2} {
			if got := reg.Counter("madgo_memcpy_total", obs.Labels{"node": node}); got != want {
				t.Errorf("madgo_memcpy_total{node=%q} = %v, want %v", node, got, want)
			}
		}
		if got := reg.Counter("madgo_memcpy_bytes_total", obs.Labels{"node": "late"}); got != 16 {
			t.Errorf("madgo_memcpy_bytes_total{node=\"late\"} = %v, want 16", got)
		}
	}
	if early.Copies() != 2 || late.Copies() != 2 {
		t.Errorf("host counters = %d, %d, want 2, 2", early.Copies(), late.Copies())
	}
}
