package route

import (
	"errors"
	"strings"
	"testing"

	"madgo/internal/topo"
)

// chainTable builds a 2-gateway chain with receivers on every network:
// a0,a1 on edge; c0,c1 on core; l0,l1,l2 on leaf.
func chainTable(t *testing.T) *Table {
	t.Helper()
	tp, err := topo.NewBuilder().
		Network("edge", "sci").
		Network("core", "myrinet").
		Network("leaf", "sci").
		Node("a0", "edge").Node("a1", "edge").
		Node("gw1", "edge", "core").
		Node("c0", "core").Node("c1", "core").
		Node("gw2", "core", "leaf").
		Node("l0", "leaf").Node("l1", "leaf").Node("l2", "leaf").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return Compute(tp)
}

func TestComputeMulticastSpansChain(t *testing.T) {
	tb := chainTable(t)
	tr, err := tb.ComputeMulticast("a0", []string{"l2", "c0", "l0", "c1", "l1"})
	if err != nil {
		t.Fatal(err)
	}
	// Root: one branch carrying everything toward gw1.
	rb := tr.Branches["a0"]
	if len(rb) != 1 || rb[0].Hop != (Hop{Network: "edge", To: "gw1"}) || len(rb[0].Dests) != 5 {
		t.Fatalf("root branches = %+v", rb)
	}
	if !rb[0].Relays() {
		t.Fatal("root branch toward gw1 must relay")
	}
	// gw1 splits core-local destinations from the gw2 subtree.
	gb := tr.Branches["gw1"]
	if len(gb) != 3 {
		t.Fatalf("gw1 branches = %+v", gb)
	}
	var beyond []string
	for _, b := range gb {
		if b.Hop.Network != "core" {
			t.Fatalf("gw1 branch off core: %+v", b)
		}
		if b.Hop.To == "gw2" {
			beyond = b.Dests
			if !b.Relays() {
				t.Fatal("gw2 branch must relay")
			}
		} else if len(b.Dests) != 1 || b.Dests[0] != b.Hop.To || b.Relays() {
			t.Fatalf("leaf edge to core member malformed: %+v", b)
		}
	}
	if strings.Join(beyond, ",") != "l0,l1,l2" {
		t.Fatalf("gw2 subtree = %v", beyond)
	}
	// gw2 fans out to the three leaf receivers.
	if len(tr.Branches["gw2"]) != 3 {
		t.Fatalf("gw2 branches = %+v", tr.Branches["gw2"])
	}
	// Edge economy: 1 (a0->gw1) + 3 (gw1 out) + 3 (gw2 out) = 7 edges for 5
	// destinations whose unicast routes would cost 2+2+3+3+3 = 13 edges.
	if tr.Edges != 7 {
		t.Fatalf("edges = %d, want 7", tr.Edges)
	}
	if got := tr.Relays(); len(got) != 2 || got[0] != "gw1" || got[1] != "gw2" {
		t.Fatalf("relays = %v", got)
	}
	if !strings.Contains(tr.String(), "a0 -[edge]-> gw1") {
		t.Fatalf("String() = %q", tr.String())
	}
}

func TestComputeMulticastExactlyOnceDelivery(t *testing.T) {
	tb := chainTable(t)
	dests := []string{"a1", "c0", "c1", "gw2", "l0", "l1"}
	tr, err := tb.ComputeMulticast("a0", dests)
	if err != nil {
		t.Fatal(err)
	}
	// Every destination appears in exactly one branch whose next hop either
	// is the destination or relays toward it; per-node subsets are disjoint.
	count := make(map[string]int)
	for node, bs := range tr.Branches {
		seen := make(map[string]bool)
		for _, b := range bs {
			for _, d := range b.Dests {
				if seen[d] {
					t.Fatalf("%s serves %s on two branches", node, d)
				}
				seen[d] = true
				if d == b.Hop.To {
					count[d]++
				}
			}
		}
	}
	for _, d := range dests {
		if count[d] != 1 {
			t.Fatalf("destination %s delivered %d times", d, count[d])
		}
	}
	// gw2 is both a destination and a relay: its leaf branch serves l0,l1.
	if len(tr.Branches["gw2"]) != 2 {
		t.Fatalf("gw2 branches = %+v", tr.Branches["gw2"])
	}
}

func TestComputeMulticastDropsRootAndDuplicates(t *testing.T) {
	tb := chainTable(t)
	tr, err := tb.ComputeMulticast("a0", []string{"a1", "a0", "a1"})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Dests) != 1 || tr.Dests[0] != "a1" || tr.Edges != 1 {
		t.Fatalf("tree = %+v", tr)
	}
	if tr.Branches["a0"][0].Relays() {
		t.Fatal("direct neighbour branch must not relay")
	}
}

func TestComputeMulticastErrors(t *testing.T) {
	tb := chainTable(t)
	if _, err := tb.ComputeMulticast("a0", []string{"a0"}); !errors.Is(err, ErrNoRoute) {
		t.Fatalf("empty set: %v", err)
	}
	if _, err := tb.ComputeMulticast("nope", []string{"a1"}); !errors.Is(err, ErrNoRoute) {
		t.Fatalf("unknown root: %v", err)
	}
	if _, err := tb.ComputeMulticast("a0", []string{"ghost"}); !errors.Is(err, ErrNoRoute) {
		t.Fatalf("unknown dest: %v", err)
	}
	// A constrained table with the only gateway barred as a relay cannot span.
	cons := ComputeConstrained(tb.topo, Constraints{Relays: map[string]bool{"gw1": true}})
	if _, err := cons.ComputeMulticast("a0", []string{"c0"}); !errors.Is(err, ErrNoRoute) {
		t.Fatalf("partitioned: %v", err)
	}
}
