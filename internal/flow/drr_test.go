package flow

import (
	"math/rand"
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

// TestDRRPassesOverAnUnreadyHead: a flow whose head item Ready rejects is
// passed over with no visit — its deficit does not move, in debt or not — and
// the items behind that head wait with it; once the head is ready the flow is
// served, in its own order. With no ready head anywhere Pop finds nothing.
func TestDRRPassesOverAnUnreadyHead(t *testing.T) {
	busy := map[int64]bool{}
	d := NewDRR[int64](10)
	d.Ready = func(v int64) bool { return !busy[v] }
	d.Push("a", 3)
	d.Push("b", 4)
	drain(d, 2)
	d.Charge("a", 11) // a in debt: 10 - 3 - 11
	d.Push("a", 5)
	d.Push("a", 6)
	d.Push("b", 7)
	d.Push("b", 8)
	busy[5] = true
	before := d.Deficit("a")
	if got := drain(d, 2); len(got) != 2 || got[0] != "b" || got[1] != "b" {
		t.Fatalf("with a's head not ready Pop served %v, want b b", got)
	}
	if after := d.Deficit("a"); after != before {
		t.Errorf("passing over a moved its deficit %d -> %d", before, after)
	}
	if key, _, ok := d.Pop(); ok {
		t.Fatalf("Pop served %s with no ready head anywhere", key)
	}
	if d.Deficit("a") != before || d.Len() != 2 {
		t.Errorf("a Pop that found nothing left deficit %d and Len %d", d.Deficit("a"), d.Len())
	}
	busy[5] = false
	for _, want := range []int64{5, 6} {
		if key, v, ok := d.Pop(); !ok || key != "a" || v != want {
			t.Fatalf("Pop = %s %d %v, want a %d", key, v, ok, want)
		}
	}
}

// TestDRRNextParksWhileNoHeadIsReady: the consumer parks in Next while every
// backlogged flow's head is unready; a Kick that finds nothing ready leaves it
// parked, a Kick after a head became ready wakes it with that item, and so
// does the Push of a ready item, while the Push of an unready one does not.
func TestDRRNextParksWhileNoHeadIsReady(t *testing.T) {
	busy := map[int64]bool{1: true, 2: true}
	d := NewDRR[int64](100)
	d.Ready = func(v int64) bool { return !busy[v] }
	d.Push("a", 1)
	var consumer *vtime.Proc
	var got []int64
	var at []vtime.Time
	parked := func(when string) {
		if !consumer.Parked() {
			t.Errorf("%s: the consumer is not parked (served %v)", when, got)
		}
	}
	consume(t, func(p *vtime.Proc) {
		consumer = p
		for range 2 {
			_, v := d.Next(p, nil)
			got = append(got, v)
			at = append(at, p.Now())
		}
	}, func(p *vtime.Proc) {
		p.Sleep(5 * vtime.Microsecond)
		parked("every head unready")
		d.Kick()
		p.Sleep(5 * vtime.Microsecond)
		parked("after a Kick with nothing ready")
		busy[1] = false
		d.Kick()
		p.Sleep(5 * vtime.Microsecond)
		d.Push("b", 2)
		p.Sleep(5 * vtime.Microsecond)
		parked("after the Push of an unready item")
		d.Push("c", 3)
	})
	us := vtime.Time(vtime.Microsecond)
	if len(got) != 2 || got[0] != 1 || got[1] != 3 || at[0] != 10*us || at[1] != 20*us {
		t.Errorf("Next served %v at %v, want [1 3] at the Kick's 10µs and the Push's 20µs", got, at)
	}
}

// readyItem is a queued item of the property test: its flow position, the
// destination whose readiness gates it, and its cost.
type readyItem struct {
	seq, dst int
	cost     int64
}

// TestDRRReadyProperty runs seeded random sequences of pushes, readiness
// changes and kicks against a consumer that serves a visit at a time, as the
// gateway's fair daemon does — Next, then the flow's further ready items while
// its deficit lasts — and then spends the visit's cost in virtual time while
// the producer acts. Every item is served exactly once and in its flow's
// order, no unready item is served, the consumer is never parked while a
// head is ready that a Push or Kick has announced, and two flows that stay
// backlogged with ready heads are served within one quantum plus one item of
// each other over any stretch in which they get the same number of visits.
func TestDRRReadyProperty(t *testing.T) {
	const quantum, flows, dsts, items = 64, 4, 3, 400
	const maxItem = quantum
	keys := []string{"f0", "f1", "f2", "f3"}
	checks := 0
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ready := [dsts]bool{true, true, true}
		d := NewDRR[readyItem](quantum)
		d.Ready = func(it readyItem) bool { return ready[it.dst] }
		headReady := func(i int) bool { f := d.flows[keys[i]]; return f != nil && d.ready(f) }

		// served and visits per flow, after every visit (a mark); since is
		// the mark from which a flow has been backlogged with a ready head.
		type mark struct {
			served [flows]int64
			visits [flows]int
		}
		var now mark
		var marks []mark
		since := [flows]int{-1, -1, -1, -1}
		var next [flows]int
		// A violation stops both processes: t.Fatal may not run in them.
		stop := false
		fail := func(format string, args ...any) {
			t.Errorf("seed %d: "+format, append([]any{seed}, args...)...)
			stop = true
		}
		serve := func(key string, it readyItem) {
			i := int(key[1] - '0')
			if !ready[it.dst] {
				fail("%s's item %d served while its destination is not ready", key, it.seq)
			}
			if it.seq != next[i] {
				fail("%s served item %d, want %d", key, it.seq, next[i])
			}
			next[i]++
			now.served[i] += it.cost
			d.Charge(key, it.cost)
		}
		endVisit := func() {
			marks = append(marks, now)
			b := len(marks) - 1
			for i := range flows {
				if !headReady(i) {
					since[i] = -1
				} else if since[i] < 0 {
					since[i] = b
				}
			}
			for i := range flows {
				for j := i + 1; j < flows; j++ {
					if since[i] < 0 || since[j] < 0 {
						continue
					}
					m := marks[max(since[i], since[j])]
					vi, vj := now.visits[i]-m.visits[i], now.visits[j]-m.visits[j]
					if vi != vj || vi == 0 {
						continue
					}
					checks++
					si, sj := now.served[i]-m.served[i], now.served[j]-m.served[j]
					if diff := si - sj; diff > quantum+maxItem || diff < -(quantum+maxItem) {
						fail("over %d visits each f%d was served %d and f%d %d", vi, i, si, j, sj)
					}
				}
			}
		}

		var consumer *vtime.Proc
		consume(t, func(p *vtime.Proc) {
			consumer = p
			for n := 0; n < items && !stop; {
				key, it := d.Next(p, nil)
				now.visits[key[1]-'0']++
				cost := it.cost
				serve(key, it)
				for n++; d.Deficit(key) >= 0; n++ {
					more, ok := d.PopFrom(key, d.Ready)
					if !ok {
						break
					}
					serve(key, more)
					cost += more.cost
				}
				endVisit()
				p.Sleep(vtime.Duration(cost))
			}
		}, func(p *vtime.Proc) {
			announced := true // every ready head was there at the last Push or Kick
			var pushed [flows]int
			for n := 0; n < items && !stop; {
				p.Sleep(vtime.Duration(1 + rng.Intn(2*quantum)))
				if consumer.Parked() && announced {
					for i := range flows {
						if headReady(i) {
							fail("the consumer is parked while f%d's head is ready", i)
						}
					}
				}
				switch r := rng.Intn(10); {
				case r < 6:
					i := rng.Intn(flows)
					d.Push(keys[i], readyItem{pushed[i], rng.Intn(dsts), 1 + rng.Int63n(maxItem)})
					pushed[i]++
					n++
					announced = true
				case r < 9:
					x := rng.Intn(dsts)
					ready[x] = !ready[x]
					announced = announced && !ready[x]
				default:
					d.Kick()
					announced = true
				}
			}
			ready = [dsts]bool{true, true, true}
			d.Kick()
		})
		if stop {
			return
		}
		if d.Len() != 0 {
			t.Fatalf("seed %d: %d items never served", seed, d.Len())
		}
	}
	if checks < 1000 {
		t.Errorf("only %d fairness comparisons over 20 seeds: the sequences keep too few flows backlogged", checks)
	}
}
