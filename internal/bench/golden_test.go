package bench

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// unarchived lists the experiments no BENCH_*.json holds: the threshold
// tests of bench_test.go accept a range of outcomes for each, so a refactor
// of how the harness builds its systems and streams through them could move
// their numbers unseen.
var unarchived = []string{
	"t1", "fig6", "fig7", "t2", "t3", "fig5", "fig8", "headline",
	"a1", "a2", "a3", "a4", "a5", "a6", "a7", "r1",
}

const unarchivedGolden = "testdata/unarchived_quick.golden"

// TestUnarchivedExperimentsGolden holds every unarchived experiment's quick
// table — notes and timelines included — to the bytes the harness printed
// before it was folded onto one assembly function and one stream driver
// (DESIGN.md §26). The simulation is deterministic, so any difference is a
// behaviour change. After an intended one, rewrite the file:
//
//	MADGO_REGEN_BENCH_GOLDEN=1 go test -run TestUnarchivedExperimentsGolden ./internal/bench
func TestUnarchivedExperimentsGolden(t *testing.T) {
	var got bytes.Buffer
	for _, id := range unarchived {
		WriteTable(&got, mustRun(t, id, quick))
	}
	if os.Getenv("MADGO_REGEN_BENCH_GOLDEN") != "" {
		if err := os.WriteFile(unarchivedGolden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s (%d lines)", unarchivedGolden, bytes.Count(got.Bytes(), []byte("\n")))
		return
	}
	want, err := os.ReadFile(unarchivedGolden)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gotL, wantL := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotL) && i < len(wantL); i++ {
		if gotL[i] != wantL[i] {
			t.Fatalf("%s line %d:\n got %q\nwant %q", unarchivedGolden, i+1, gotL[i], wantL[i])
		}
	}
	t.Fatalf("%s: got %d lines, want %d", unarchivedGolden, len(gotL), len(wantL))
}
