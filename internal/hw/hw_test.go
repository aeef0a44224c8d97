package hw

import (
	"testing"

	"madgo/internal/fluid"
	"madgo/internal/vtime"
)

func TestHostRegistry(t *testing.T) {
	pl := NewPlatform(vtime.New())
	h := pl.NewHost("n0", DefaultCPU(), DefaultPCI())
	if pl.Host("n0") != h {
		t.Fatal("lookup returned different host")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic on duplicate host")
			}
		}()
		pl.NewHost("n0", DefaultCPU(), DefaultPCI())
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic on unknown host")
			}
		}()
		pl.Host("nope")
	}()
}

func TestMemcpyChargesTimeAndCounts(t *testing.T) {
	sim := vtime.New()
	pl := NewPlatform(sim)
	h := pl.NewHost("n0", DefaultCPU(), DefaultPCI())
	var took vtime.Duration
	copyOnce := func() {
		sim.Spawn("copier", func(p *vtime.Proc) {
			t0 := p.Now()
			h.Memcpy(p, 160_000) // 160 kB at 160 MB/s = 1 ms
			took = vtime.Since(p.Now(), t0)
		})
		if err := sim.Run(); err != nil {
			t.Fatal(err)
		}
	}
	copyOnce()
	if took != vtime.Millisecond {
		t.Errorf("memcpy took %v, want 1ms", took)
	}
	if h.Copies() != 1 || h.BytesCopied() != 160_000 {
		t.Errorf("counters = %d copies / %d bytes", h.Copies(), h.BytesCopied())
	}
	// The counters only grow; a phase is measured as a difference.
	copies, bytes := h.Copies(), h.BytesCopied()
	copyOnce()
	if h.Copies()-copies != 1 || h.BytesCopied()-bytes != 160_000 {
		t.Errorf("second phase = %d copies / %d bytes", h.Copies()-copies, h.BytesCopied()-bytes)
	}
}

func TestPCIPolicyHalvesPIOUnderDMA(t *testing.T) {
	sim := vtime.New()
	pl := NewPlatform(sim)
	h := pl.NewHost("gw", DefaultCPU(), DefaultPCI())
	var alone, under vtime.Duration
	sim.Spawn("m", func(p *vtime.Proc) {
		alone = pl.Engine.Transfer(p, fluid.Spec{
			Name: "pio-alone", Demand: 44 * MB, Bytes: 44e6,
			Route: fluid.Path(fluid.ClassPIO, h.Bus),
		})
		pl.Engine.Start(fluid.Spec{
			Name: "dma", Demand: 40 * MB, Bytes: 400e6,
			Route: fluid.Path(fluid.ClassDMA, h.Bus),
		}, nil)
		under = pl.Engine.Transfer(p, fluid.Spec{
			Name: "pio-under", Demand: 44 * MB, Bytes: 44e6,
			Route: fluid.Path(fluid.ClassPIO, h.Bus),
		})
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if alone.Seconds() < 0.99 || alone.Seconds() > 1.01 {
		t.Errorf("alone = %v, want ≈1s", alone)
	}
	if under.Seconds() < 1.99 || under.Seconds() > 2.01 {
		t.Errorf("under DMA = %v, want ≈2s (the paper's factor two)", under)
	}
}

func TestWireIsPerDirectedPair(t *testing.T) {
	pl := NewPlatform(vtime.New())
	n := pl.NewNetwork("myri0", Myrinet())
	ab := n.Wire("a", "b", "wire:myri0:a->b")
	if n.Wire("a", "b", "a name a cached wire ignores") != ab {
		t.Error("wire not cached")
	}
	if n.Wire("b", "a", "wire:myri0:b->a") == ab {
		t.Error("directions must not share a wire")
	}
	if ab.Name() != "wire:myri0:a->b" {
		t.Errorf("name = %q, want the first caller's", ab.Name())
	}
	if ab.Capacity() != Myrinet().WireRate {
		t.Errorf("capacity = %v", ab.Capacity())
	}
}

func TestEffectiveSendRateWriteCombining(t *testing.T) {
	sci := SCI()
	if r := sci.EffectiveSendRate(64); r != sci.SmallWriteRate {
		t.Errorf("64B rate = %v, want small-write rate", r)
	}
	if r := sci.EffectiveSendRate(4096); r != sci.SendEngineRate {
		t.Errorf("4KB rate = %v, want engine rate", r)
	}
	myri := Myrinet()
	if r := myri.EffectiveSendRate(64); r != myri.SendEngineRate {
		t.Errorf("myrinet has no WC floor, got %v", r)
	}
}

func TestParamsFor(t *testing.T) {
	for _, proto := range []string{"myrinet", "sci", "ethernet", "sbp"} {
		if got := ParamsFor(proto).Protocol; got != proto {
			t.Errorf("ParamsFor(%q).Protocol = %q", proto, got)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic for unknown protocol")
		}
	}()
	ParamsFor("atm")
}

func TestModelAnchors(t *testing.T) {
	// Guard the calibration the experiments depend on; EXPERIMENTS.md
	// documents these choices.
	if m := Myrinet(); m.SendBusClass != fluid.ClassDMA || m.RendezvousThreshold == 0 {
		t.Error("myrinet must be DMA with a rendezvous threshold")
	}
	if s := SCI(); s.SendBusClass != fluid.ClassPIO || s.RecvBusClass != fluid.ClassDMA {
		t.Error("sci must send PIO and land as DMA")
	}
	if !SBP().StaticBuffers {
		t.Error("sbp must be a static-buffer protocol")
	}
	if p := DefaultPCI(); p.PIOUnderDMA != 0.5 {
		t.Error("paper's measured factor is one half")
	}
	if c := DefaultCPU(); c.SwapOverhead != 40*vtime.Microsecond {
		t.Error("paper's buffer-switch overhead is ≈40µs")
	}
}
