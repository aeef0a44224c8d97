package flow

import (
	"testing"

	"madgo/internal/vtime"
)

// drain pops up to n items, returning the sequence of served flow keys and
// charging each item's cost (items are their own costs here).
func drain(d *DRR[int64], n int) []string {
	var keys []string
	for i := 0; i < n; i++ {
		key, cost, ok := d.Pop()
		if !ok {
			break
		}
		d.Charge(key, cost)
		keys = append(keys, key)
	}
	return keys
}

func TestDRREmptyAndSingleFlow(t *testing.T) {
	d := NewDRR[int64](100)
	if _, _, ok := d.Pop(); ok {
		t.Fatal("Pop on empty scheduler returned an item")
	}
	for i := 0; i < 5; i++ {
		d.Push("only", 100)
	}
	if d.Len() != 5 || d.Flows() != 1 {
		t.Fatalf("Len=%d Flows=%d", d.Len(), d.Flows())
	}
	if got := drain(d, 10); len(got) != 5 {
		t.Fatalf("served %d items, want 5", len(got))
	}
	if d.Len() != 0 || d.Flows() != 0 {
		t.Fatalf("after drain: Len=%d Flows=%d", d.Len(), d.Flows())
	}
}

func TestDRRRoundRobinOverEqualFlows(t *testing.T) {
	d := NewDRR[int64](10)
	for i := 0; i < 3; i++ {
		d.Push("a", 10)
		d.Push("b", 10)
		d.Push("c", 10)
	}
	got := drain(d, 9)
	want := []string{"a", "b", "c", "a", "b", "c", "a", "b", "c"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("serve order %v, want %v", got, want)
		}
	}
}

// TestDRRByteFairnessUnderMixedSizes is the property the gateway scheduler
// exists for: with one elephant flow (large items) and mouse flows (small
// items), all backlogged, long-run byte shares equalize — the elephant is
// skipped while it repays its debt instead of hogging every round.
func TestDRRByteFairnessUnderMixedSizes(t *testing.T) {
	const quantum = 16
	d := NewDRR[int64](quantum)
	// Keep every flow backlogged throughout the measurement window.
	for i := 0; i < 64; i++ {
		d.Push("elephant", 256)
		d.Push("m1", 16)
		d.Push("m2", 16)
	}
	served := map[string]int64{}
	for i := 0; i < 96; i++ {
		key, cost, ok := d.Pop()
		if !ok {
			t.Fatalf("scheduler ran dry at %d", i)
		}
		d.Charge(key, cost)
		served[key] += cost
	}
	total := served["elephant"] + served["m1"] + served["m2"]
	for f, b := range served {
		share := float64(b) / float64(total)
		if share < 0.25 || share > 0.42 {
			t.Errorf("flow %s byte share %.2f, want ~1/3 (served %v)", f, share, served)
		}
	}
	if j := Jain([]float64{float64(served["elephant"]), float64(served["m1"]), float64(served["m2"])}); j < 0.95 {
		t.Errorf("Jain over served bytes = %.3f, want >= 0.95 (%v)", j, served)
	}
}

func TestDRRNoStarvationDeepDebt(t *testing.T) {
	d := NewDRR[int64](1)
	d.Push("deep", 1)
	_, _, _ = d.Pop()
	d.Charge("deep", 1_000_000) // a monstrous charge
	d.Push("deep", 1)
	// The only backlogged flow must still be served in one Pop (the scan
	// replenishes until eligible); it must not spin forever.
	if key, _, ok := d.Pop(); !ok || key != "deep" {
		t.Fatalf("deeply indebted sole flow not served: %q %v", key, ok)
	}
}

func TestDRRIdleFlowCannotBank(t *testing.T) {
	d := NewDRR[int64](10)
	d.Push("idle", 10)
	d.Push("busy", 10)
	drain(d, 2)
	// idle goes quiet while busy cycles many times; idle's deficit must
	// be capped, not accumulate a burst allowance.
	for i := 0; i < 50; i++ {
		d.Push("busy", 10)
		drain(d, 1)
	}
	if def := d.Deficit("idle"); def > 10 {
		t.Fatalf("idle flow banked deficit %d > quantum", def)
	}
}

func TestDRRIdleDebtDecays(t *testing.T) {
	d := NewDRR[int64](10)
	d.Push("debtor", 5)
	d.Push("busy", 10)
	drain(d, 2)
	d.Charge("debtor", 100) // extra debt, then the flow goes idle
	before := d.Deficit("debtor")
	for i := 0; i < 5; i++ {
		d.Push("busy", 10)
		drain(d, 1)
	}
	after := d.Deficit("debtor")
	if after < before {
		t.Fatalf("idle debt grew: %d -> %d", before, after)
	}
	if after > 0 {
		t.Fatalf("idle debt decayed past zero: %d", after)
	}
}

func TestDRRPopFrom(t *testing.T) {
	d := NewDRR[int64](10)
	d.Push("a", 1)
	d.Push("a", 2)
	d.Push("b", 3)
	if item, ok := d.PopFrom("a", nil); !ok || item != 1 {
		t.Fatalf("PopFrom(a) = %v %v", item, ok)
	}
	if _, ok := d.PopFrom("a", func(v int64) bool { return v > 5 }); ok {
		t.Fatal("PopFrom matched an item the predicate rejected")
	}
	if item, ok := d.PopFrom("a", func(v int64) bool { return v == 2 }); !ok || item != 2 {
		t.Fatalf("PopFrom(a, match) = %v %v", item, ok)
	}
	if _, ok := d.PopFrom("a", nil); ok {
		t.Fatal("PopFrom on drained flow returned an item")
	}
	if _, ok := d.PopFrom("nosuch", nil); ok {
		t.Fatal("PopFrom on unknown flow returned an item")
	}
	if d.Len() != 1 {
		t.Fatalf("Len = %d, want 1", d.Len())
	}
}

func TestDRRQuantumFloorAndRounds(t *testing.T) {
	d := NewDRR[int64](-5) // pinned to 1
	d.Push("x", 1)
	d.Push("y", 1)
	drain(d, 2)
	if d.Rounds() < 1 {
		t.Fatalf("Rounds() = %d, want >= 1 after a full pass", d.Rounds())
	}
	if d.Deficit("nosuch") != 0 {
		t.Fatal("Deficit of unknown flow not zero")
	}
	d.Charge("nosuch", 5) // must not panic or admit the flow
	if _, ok := d.flows["nosuch"]; ok {
		t.Fatal("Charge admitted an unknown flow")
	}
}

// visit serves one scheduling decision the way a relay daemon does: a
// suspended visit first, else the ring's next flow; then the flow's further
// items while its deficit lasts, and a suspension if the queue ran dry first.
// It returns the flow and the cost served; late runs after the visit is over,
// where a closed-loop sender's next announcement lands.
func visit(d *DRR[int64], late func(key string)) (key string, served int64) {
	key, cost, ok := d.Resume(nil)
	if !ok {
		key, cost, ok = d.Pop()
	}
	for ok {
		d.Charge(key, cost)
		served += cost
		if d.Deficit(key) < 0 {
			break
		}
		if cost, ok = d.PopFrom(key, nil); !ok {
			d.Suspend(key)
		}
	}
	late(key)
	return key, served
}

// TestDRRSuspendedVisitResumes: a flow that announces one sub-quantum item
// just after each service — a closed-loop sender whose previous message the
// scheduler has only now finished — gets a quantum's worth a round like the
// backlogged elephant beside it, not one item a round: its visit is suspended
// when its queue runs dry with deficit left, and resumed, with no fresh
// quantum, by its next item. A round still serves it at most a quantum plus
// one item, and a suspension the ring has passed is gone: going quiet banks
// nothing.
func TestDRRSuspendedVisitResumes(t *testing.T) {
	const quantum, mouse, elephant = 32, 8, 256
	d := NewDRR[int64](quantum)
	for i := 0; i < 200; i++ {
		d.Push("elephant", elephant)
	}
	d.Push("mouse", mouse)
	reannounce := func(key string) {
		if key == "mouse" {
			d.Push("mouse", mouse)
		}
	}
	served := map[string]int64{}
	inRound, round := int64(0), d.Rounds()
	for d.Rounds() < 400 {
		key, n := visit(d, reannounce)
		served[key] += n
		if r := d.Rounds(); r != round {
			round, inRound = r, 0
		}
		if key == "mouse" {
			if inRound += n; inRound > quantum+mouse {
				t.Fatalf("round %d served the mouse %d, more than a quantum plus one item", round, inRound)
			}
		}
	}
	// The elephant is served an item at a time, so it runs up to one ahead.
	if diff := served["mouse"] - served["elephant"]; diff < -(elephant+quantum) || diff > elephant+quantum {
		t.Errorf("after 400 rounds the mouse was served %d and the elephant %d: not the same byte rate", served["mouse"], served["elephant"])
	}

	// The mouse goes quiet with its visit suspended and the ring passes it.
	d = NewDRR[int64](quantum)
	quiet := func(string) {}
	d.Push("mouse", mouse)
	if key, _ := visit(d, quiet); key != "mouse" || d.Deficit("mouse") != quantum-mouse {
		t.Fatalf("first visit served %s and left the mouse a deficit of %d", key, d.Deficit("mouse"))
	}
	for d.Rounds() < 3 {
		d.Push("elephant", elephant)
		visit(d, quiet)
	}
	d.Push("mouse", mouse)
	if key, _, ok := d.Resume(nil); ok {
		t.Errorf("Resume continued %s's visit after the ring had passed it", key)
	}
	if def := d.Deficit("mouse"); def > quantum {
		t.Errorf("the quiet mouse banked deficit %d > quantum", def)
	}
}

// consume spawns consumer, a DRR's one consumer, and producer, if any, in a
// fresh simulation and runs it to its end.
func consume(t *testing.T, consumer, producer func(p *vtime.Proc)) {
	t.Helper()
	sim := vtime.New()
	sim.Spawn("consumer", consumer)
	if producer != nil {
		sim.Spawn("producer", producer)
	}
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestDRRNextParksUntilPush: on an empty DRR the consumer parks in Next, and
// the Push of a producer wakes it at the same virtual instant with that item.
func TestDRRNextParksUntilPush(t *testing.T) {
	d := NewDRR[int64](100)
	var consumer *vtime.Proc
	var gotKey string
	var gotItem int64
	var at vtime.Time
	consume(t, func(p *vtime.Proc) {
		consumer = p
		gotKey, gotItem = d.Next(p, nil)
		at = p.Now()
	}, func(p *vtime.Proc) {
		p.Sleep(5 * vtime.Microsecond)
		if !consumer.Parked() || at != 0 {
			t.Error("Next returned from an empty DRR")
		}
		d.Push("a", 7)
	})
	if gotKey != "a" || gotItem != 7 {
		t.Errorf("Next = %s %d, want a 7", gotKey, gotItem)
	}
	if at != vtime.Time(5*vtime.Microsecond) {
		t.Errorf("Next returned at %v, want the Push's instant 5µs", at)
	}
	if d.Len() != 0 {
		t.Errorf("Len = %d after Next took the only item", d.Len())
	}
}

// suspendedBeforeB leaves flow a's visit suspended with a's next item queued,
// and the ring's turn at flow b, whose item Pop would serve next.
func suspendedBeforeB(aNext int64) *DRR[int64] {
	d := NewDRR[int64](100)
	d.Push("a", 10)
	d.Push("b", 20)
	key, cost, _ := d.Pop()
	d.Charge(key, cost)
	d.Suspend(key)
	d.Push("a", aNext)
	return d
}

// TestDRRNextServesSuspendedVisitFirst: Next continues a suspended visit whose
// next item match accepts ahead of the ring, and one whose item match rejects
// falls through to Pop's choice.
func TestDRRNextServesSuspendedVisitFirst(t *testing.T) {
	small := func(v int64) bool { return v < 50 }
	for _, c := range []struct {
		name  string
		aNext int64
		want  []string
	}{
		{"accepted resume", 30, []string{"a", "b"}},
		{"rejected resume", 90, []string{"b", "a"}},
	} {
		d := suspendedBeforeB(c.aNext)
		var got []string
		consume(t, func(p *vtime.Proc) {
			for range c.want {
				key, _ := d.Next(p, small)
				got = append(got, key)
			}
		}, nil)
		if len(got) != 2 || got[0] != c.want[0] || got[1] != c.want[1] {
			t.Errorf("%s: Next served %v, want %v", c.name, got, c.want)
		}
	}
}
