package bench

import (
	"strings"
	"testing"
)

// TestM1EagerGate is the CI gate for the eager small-message path: across
// the mice sweep the eager+aggregation configuration must deliver at least
// 15x the seed framing's goodput at 64 B, 3x up to 512 B and 2x at 1 KB
// (m1Gate) — the seed pays F+2 per-transfer overheads per message where the
// aggregate frame pays a fraction of one — and no less than compact framing
// alone at any size; compact framing alone must beat the seed at every gated
// size, and the 64/128 KB parity points, which bypass the coalescer, must stay
// within 2% of the seed. The BENCH_m1.json archive `make bench` / `make
// m1-gate` produce comes from the identical deterministic run, so gating the
// numbers gates the archive.
func TestM1EagerGate(t *testing.T) {
	seedCfg, eagerCfg, aggCfg := m1Configs()
	for _, size := range m1Small {
		count := m1Count(size, false)
		eager := runM1Stream(eagerCfg, size, count)
		agg := runM1Stream(aggCfg, size, count)
		if agg.MBps < eager.MBps {
			t.Errorf("%dB: eager+agg %.2f MB/s is under compact framing alone, %.2f MB/s", size, agg.MBps, eager.MBps)
		}
		gate := m1Gate(size)
		if gate == 0 {
			continue
		}
		seed := runM1Stream(seedCfg, size, count)
		if agg.MBps < gate*seed.MBps {
			t.Errorf("%dB: eager+agg %.2f MB/s is %.2fx the seed's %.2f MB/s, gate is %gx",
				size, agg.MBps, agg.MBps/seed.MBps, seed.MBps, gate)
		}
		if eager.MBps <= seed.MBps {
			t.Errorf("%dB: compact framing alone (%.2f MB/s) did not beat the seed (%.2f MB/s)",
				size, eager.MBps, seed.MBps)
		}
	}
	for _, size := range m1Large {
		count := m1Count(size, false)
		seed := runM1Stream(seedCfg, size, count)
		agg := runM1Stream(aggCfg, size, count)
		if agg.MBps < 0.98*seed.MBps {
			t.Errorf("%dB: eager+agg %.2f MB/s is %.3fx the seed's %.2f MB/s, parity gate is 0.98x",
				size, agg.MBps, agg.MBps/seed.MBps, seed.MBps)
		}
	}
}

// TestM1Experiment smoke-runs the registered experiment at quick settings
// and requires a WARNING-free result: the 64-message streams hold the same
// m1Gate (15x at 64 B, 3x up to 512 B, 2x at 1 KB) as the archived ones, and
// the parity gate.
func TestM1Experiment(t *testing.T) {
	r := mustRun(t, "m1", quick)
	for _, note := range r.Notes {
		if strings.HasPrefix(note, "WARNING") {
			t.Errorf("m1 flagged: %s", note)
		}
	}
	if len(r.Table) != len(m1Small)+len(m1Large) {
		t.Errorf("m1 table has %d rows, want %d", len(r.Table), len(m1Small)+len(m1Large))
	}
}
