package fluid

import (
	"fmt"
	"testing"

	"madgo/internal/vtime"
)

// TestTransferAllocsNothing pins a blocking transfer at zero allocations in
// steady state, alone and among eight on one bus arbitrated by the PCI
// policy (DMA and PIO flows alternate, so every admission and completion
// re-runs the water-filling with the arbitration multipliers in play): the
// Flow record, its Waker, the allocator's work lists and the completion
// timer's callback are all reused.
func TestTransferAllocsNothing(t *testing.T) {
	for _, flows := range []int{1, 8} {
		t.Run(fmt.Sprintf("%dflows", flows), func(t *testing.T) {
			sim := vtime.New()
			eng := NewEngine(sim)
			bus := eng.NewResource("pci", 90e6, pioUnderDMA)
			transfers := 0
			for f := 0; f < flows; f++ {
				class := ClassDMA
				if f%2 == 1 {
					class = ClassPIO
				}
				spec := Spec{Name: "t", Class: class, Demand: 60e6, Bytes: 4096, Route: Path(class, bus)}
				sim.SpawnDaemon("flow", func(p *vtime.Proc) {
					for {
						eng.Transfer(p, spec)
						transfers++
					}
				})
			}
			window := func() {
				if err := sim.RunUntil(sim.Now().Add(5 * vtime.Millisecond)); err != nil {
					t.Fatal(err)
				}
			}
			window()
			before := transfers
			if allocs := testing.AllocsPerRun(20, window); allocs != 0 {
				t.Errorf("%d transfers allocate %.1f times per window, want 0", (transfers-before)/21, allocs)
			}
			if transfers-before < 21*50 {
				t.Fatalf("only %d transfers completed in 21 windows", transfers-before)
			}
		})
	}
}
