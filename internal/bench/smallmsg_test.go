package bench

import (
	"strings"
	"testing"
)

// TestM1EagerGate is the CI gate for the eager small-message path: across
// the mice sweep the eager path must deliver at least 15x the seed framing's
// goodput at 64 B, 3x up to 512 B and 2x at 1 KB (m1Gate) — the seed pays F+2
// per-transfer overheads per message where the aggregate frame pays a fraction
// of one — and the 64/128 KB parity points, which bypass the coalescer, must
// stay within 2% of the seed. The BENCH_m1.json archive `make bench` / `make
// m1-gate` produce comes from the identical deterministic run, so gating the
// numbers gates the archive.
func TestM1EagerGate(t *testing.T) {
	seedCfg, aggCfg := m1Configs()
	for _, size := range m1Small {
		gate := m1Gate(size)
		if gate == 0 {
			continue
		}
		count := m1Count(size, false)
		seed := runM1Stream(seedCfg, size, count)
		agg := runM1Stream(aggCfg, size, count)
		if agg.MBps < gate*seed.MBps {
			t.Errorf("%dB: eager+agg %.2f MB/s is %.2fx the seed's %.2f MB/s, gate is %gx",
				size, agg.MBps, agg.MBps/seed.MBps, seed.MBps, gate)
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
