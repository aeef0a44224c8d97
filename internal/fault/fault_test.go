package fault

import (
	"testing"

	"madgo/internal/obs"
	"madgo/internal/vtime"
)

// Two injectors armed from the same plan must agree on every verdict, with or
// without a registry listening, and Dropped and Corrupted read the counters
// behind madgo_faults_total: their sum is the sum of the series' samples,
// whenever the registry was armed.
func TestDeterministicReplay(t *testing.T) {
	ms := vtime.Millisecond
	plan := NewPlan(42).Drop("*", 0.1).Corrupt("myri0", 0.05).Flap("myri0", vtime.Time(2*ms), ms)
	a := New(plan)
	b := New(plan)
	m := obs.New()
	for i := 0; i < 10000; i++ {
		if i == 1000 {
			a.BindMetrics(m)
		}
		now := vtime.Time(i) * vtime.Time(vtime.Microsecond)
		va, pa := a.Packet("myri0", "x", "y", now, 4096)
		vb, pb := b.Packet("myri0", "x", "y", now, 4096)
		if va != vb || pa != pb {
			t.Fatalf("packet %d: verdicts diverge: (%v,%d) vs (%v,%d)", i, va, pa, vb, pb)
		}
	}
	if a.Dropped() == 0 || a.Corrupted() == 0 {
		t.Fatalf("10%%/5%% rules injected nothing over 10k packets (dropped=%d corrupted=%d)",
			a.Dropped(), a.Corrupted())
	}
	if a.Dropped() != b.Dropped() || a.Corrupted() != b.Corrupted() {
		t.Fatalf("counter mismatch between replays")
	}
	var total float64
	kinds := make(map[string]bool)
	for _, s := range m.Samples() {
		if s.Name == "madgo_faults_total" {
			total += s.Value
			kinds[s.Labels["kind"]] = true
		}
	}
	if got := a.Dropped() + a.Corrupted(); float64(got) != total || len(kinds) != 3 {
		t.Errorf("Dropped() + Corrupted() = %d, the madgo_faults_total samples of %v sum to %v", got, kinds, total)
	}
}

// Different seeds must give different fault sequences.
func TestSeedMatters(t *testing.T) {
	a := New(NewPlan(1).Drop("*", 0.5))
	b := New(NewPlan(2).Drop("*", 0.5))
	same := true
	for i := 0; i < 64; i++ {
		va, _ := a.Packet("n", "x", "y", 0, 100)
		vb, _ := b.Packet("n", "x", "y", 0, 100)
		if va != vb {
			same = false
		}
	}
	if same {
		t.Fatalf("seeds 1 and 2 produced identical 64-packet fault sequences")
	}
}

// Loss rate should track the configured probability.
func TestDropRate(t *testing.T) {
	in := New(NewPlan(7).Drop("*", 0.05))
	const n = 20000
	for i := 0; i < n; i++ {
		in.Packet("n", "x", "y", 0, 1024)
	}
	rate := float64(in.Dropped()) / n
	if rate < 0.04 || rate > 0.06 {
		t.Fatalf("5%% drop rule lost %.2f%% of packets", 100*rate)
	}
}

func TestWindows(t *testing.T) {
	ms := vtime.Millisecond
	plan := NewPlan(0).
		Crash("gw", vtime.Time(10*ms), 20*ms).
		Flap("myri0", vtime.Time(5*ms), 5*ms).
		Stall("a0", vtime.Time(0), 10*ms, 100*vtime.Microsecond).
		Crash("b0", vtime.Time(50*ms), 0) // never restarts
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
	in := New(plan)

	if in.NodeDead("gw", vtime.Time(9*ms)) {
		t.Fatal("gw dead before its crash window")
	}
	if !in.NodeDead("gw", vtime.Time(10*ms)) || !in.NodeDead("gw", vtime.Time(29*ms)) {
		t.Fatal("gw alive inside its crash window")
	}
	if in.NodeDead("gw", vtime.Time(30*ms)) {
		t.Fatal("gw did not restart after its window")
	}
	if !in.NodeDead("b0", vtime.Time(1e12)) {
		t.Fatal("For==0 crash should never restart")
	}
	if !in.LinkDown("myri0", vtime.Time(7*ms)) || in.LinkDown("myri0", vtime.Time(11*ms)) {
		t.Fatal("flap window wrong")
	}
	if in.LinkDown("sci0", vtime.Time(7*ms)) {
		t.Fatal("flap leaked onto another network")
	}
	if got := in.StallDelay("a0", vtime.Time(5*ms)); got != 100*vtime.Microsecond {
		t.Fatalf("stall delay = %v", got)
	}
	if got := in.StallDelay("a0", vtime.Time(15*ms)); got != 0 {
		t.Fatalf("stall delay after window = %v", got)
	}

	// Blackholed packets don't consume randomness: verdicts after a
	// window must match a run that never queried inside it.
	x := New(NewPlan(3).Drop("*", 0.3).Crash("gw", 0, 1))
	y := New(NewPlan(3).Drop("*", 0.3).Crash("gw", 0, 1))
	x.Packet("n", "gw", "z", 0, 10) // inside window: deterministic drop
	for i := 0; i < 32; i++ {
		vx, _ := x.Packet("n", "a", "b", vtime.Time(vtime.Second), 10)
		vy, _ := y.Packet("n", "a", "b", vtime.Time(vtime.Second), 10)
		if vx != vy {
			t.Fatal("blackhole consumed a random draw")
		}
	}

	ws := in.Windows()
	if len(ws) != 3 {
		t.Fatalf("Windows() = %d entries, want 3 (flap + 2 crashes)", len(ws))
	}
	if ws[0].Kind != Flap || ws[1].Node != "gw" || ws[2].Node != "b0" {
		t.Fatalf("Windows() order wrong: %+v", ws)
	}
}

func TestValidate(t *testing.T) {
	if err := (NewPlan(0).Drop("*", 1.5)).Validate(); err == nil {
		t.Fatal("probability 1.5 validated")
	}
	if err := (NewPlan(0).Crash("", 0, 0)).Validate(); err == nil {
		t.Fatal("crash without node validated")
	}
	if err := (NewPlan(0).Flap("*", 0, 0)).Validate(); err == nil {
		t.Fatal("wildcard flap validated")
	}
}
