package bench

import (
	"strings"
	"testing"
)

// TestC1FlowGate is the CI gate for credit-based gateway flow control
// under the many-senders incast: with 64 senders of equal byte totals but
// heterogeneous message sizes funnelling through one gateway,
//
//   - the FIFO baseline must be measurably unfair (Jain <= 0.80: a FIFO
//     relay loop is message-fair, so byte service grows with message size),
//   - the credit + DRR scheduler must equalize per-sender goodput
//     (Jain >= 0.90),
//   - and fairness must not tax throughput: aggregate goodput stays within
//     5% of the single-sender ceiling over the same route.
//
// The BENCH_c1.json archive `make bench` / `make c1-gate` produce comes
// from the identical deterministic run, so gating the numbers gates the
// archive.
func TestC1FlowGate(t *testing.T) {
	wl := c1Full()
	base := runIncast(wl, false)
	fair := runIncast(wl, true)
	ceiling := incastCeiling(wl)
	if base.Jain > 0.80 {
		t.Errorf("FIFO baseline Jain %.3f; the incast should be measurably unfair (<= 0.80)", base.Jain)
	}
	if fair.Jain < 0.90 {
		t.Errorf("flow-controlled Jain %.3f, gate is 0.90", fair.Jain)
	}
	if fair.Jain <= base.Jain {
		t.Errorf("flow control did not improve fairness: %.3f vs baseline %.3f", fair.Jain, base.Jain)
	}
	if ceiling <= 0 {
		t.Fatalf("ceiling run produced %.1f MB/s", ceiling)
	}
	if fair.AggMBps < 0.95*ceiling {
		t.Errorf("aggregate goodput %.1f MB/s is %.3fx the single-sender ceiling %.1f MB/s, gate is 0.95",
			fair.AggMBps, fair.AggMBps/ceiling, ceiling)
	}
	if fair.Stats.SchedRounds == 0 {
		t.Error("fair run completed no scheduler rounds")
	}
	if fair.Stats.CreditsGranted != fair.Stats.CreditsSpent {
		t.Errorf("credit ledger unbalanced at quiescence: granted %d, spent %d",
			fair.Stats.CreditsGranted, fair.Stats.CreditsSpent)
	}
}

// TestC1Experiment smoke-runs the registered experiment at quick settings
// and requires a WARNING-free result.
func TestC1Experiment(t *testing.T) {
	r := mustRun(t, "c1", quick)
	for _, note := range r.Notes {
		if strings.HasPrefix(note, "WARNING") {
			t.Errorf("c1 flagged: %s", note)
		}
	}
	if len(r.Table) != 3 {
		t.Errorf("c1 table has %d rows, want fifo/flow/ceiling", len(r.Table))
	}
}
