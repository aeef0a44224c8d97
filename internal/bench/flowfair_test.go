package bench

import (
	"strings"
	"testing"
)

// TestC1FlowGate is the CI gate for gateway fairness under the many-senders
// incast: 64 senders of equal byte totals but heterogeneous message sizes
// funnel through one gateway, whose relay serves them in DRR order with
// credit-based flow control off and on. On both legs
//
//   - per-sender goodput is equalized (Jain >= 0.90: a first-come relay
//     would be message-fair, so byte service would grow with message size),
//   - and fairness does not tax throughput: aggregate goodput stays within
//     5% of the single-sender ceiling over the same route.
//
// The BENCH_c1.json archive `make bench` / `make c1-gate` produce comes
// from the identical deterministic run, so gating the numbers gates the
// archive.
func TestC1FlowGate(t *testing.T) {
	wl := c1Full()
	ceiling := incastCeiling(wl)
	if ceiling <= 0 {
		t.Fatalf("ceiling run produced %.1f MB/s", ceiling)
	}
	for _, flowOn := range []bool{false, true} {
		out := runIncast(wl, flowOn)
		if out.Jain < 0.90 {
			t.Errorf("flow control %v: Jain %.3f, gate is 0.90", flowOn, out.Jain)
		}
		if out.AggMBps < 0.95*ceiling {
			t.Errorf("flow control %v: aggregate goodput %.1f MB/s is %.3fx the single-sender ceiling %.1f MB/s, gate is 0.95",
				flowOn, out.AggMBps, out.AggMBps/ceiling, ceiling)
		}
		if out.Stats.SchedRounds == 0 {
			t.Errorf("flow control %v: the gateway's scheduler completed no rounds", flowOn)
		}
		if out.Stats.CreditsGranted != out.Stats.CreditsSpent || flowOn != (out.Stats.CreditsSpent > 0) {
			t.Errorf("flow control %v: credits granted %d, spent %d", flowOn,
				out.Stats.CreditsGranted, out.Stats.CreditsSpent)
		}
	}
}

// TestGatewayIsFairWithoutCredits: the gateway relays in DRR order whether
// or not credits are armed, so c1's quick incast is fair without them. When a
// system without flow control relayed first come, first served, this leg
// read Jain 0.614; it reads 0.984, the credit leg's reading.
func TestGatewayIsFairWithoutCredits(t *testing.T) {
	if out := runIncast(c1Quick(), false); out.Jain < 0.90 {
		t.Errorf("Jain %.3f without credits, want >= 0.90", out.Jain)
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
		t.Errorf("c1 table has %d rows, want no-credits/flow/ceiling", len(r.Table))
	}
}
