package fwd

import "testing"

// The striping hot path must not touch the allocator: the sender computes
// per-rail spans into a caller-owned slice, and the receiver's reassembly
// places every fragment with pure overlap arithmetic against the posted
// buffer — no staging copies, no per-fragment bookkeeping allocations.

func TestComputeSpansNoAllocs(t *testing.T) {
	rates := []float64{47e6, 35e6, 10e6}
	spans := make([]int64, len(rates))
	n := testing.AllocsPerRun(200, func() {
		computeSpans(1<<20, rates, spans)
	})
	if n != 0 {
		t.Errorf("computeSpans allocates %.1f times per call, want 0", n)
	}
	if spans[0]+spans[1]+spans[2] != 1<<20 {
		t.Errorf("spans %v do not sum to the total", spans)
	}
}

func TestRailBlockOverlapNoAllocs(t *testing.T) {
	h := streamHdr{rail: 1, nrails: 2, spanStart: 40_000, spanLen: 60_000, total: 128 * 1024}
	var lo, hi int64
	n := testing.AllocsPerRun(200, func() {
		lo, hi = railBlockOverlap(h, 30_000, 90_000)
	})
	if n != 0 {
		t.Errorf("railBlockOverlap allocates %.1f times per call, want 0", n)
	}
	if lo != 40_000 || hi != 90_000 {
		t.Errorf("overlap = [%d, %d), want [40000, 90000)", lo, hi)
	}
}

// A pair's plan overwrites its previous one in place: after the pair's first
// striped message, recording a scheduling decision allocates nothing, and a
// split that moved is still counted.
func TestNoteStripePlanNoAllocs(t *testing.T) {
	vc := &VirtualChannel{stripe: &stripeState{lastFrac: make(map[[2]string][]float64)}}
	even, skewed := []int64{512, 512}, []int64{768, 256}
	vc.noteStripePlan("a", "b", even, 1024)
	n := testing.AllocsPerRun(200, func() {
		vc.noteStripePlan("a", "b", even, 1024)
	})
	if n != 0 {
		t.Errorf("noteStripePlan allocates %.1f times per call, want 0", n)
	}
	vc.noteStripePlan("a", "b", skewed, 1024)
	vc.noteStripePlan("a", "b", skewed, 1024)
	if got := vc.stripe.rebalances.Count(); got != 1 {
		t.Errorf("%d rebalances counted, want 1: even -> skewed", got)
	}
}
