package route

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"madgo/internal/topo"
)

func paperTable(t *testing.T) *Table {
	t.Helper()
	// The two high-speed networks only (no ethernet everywhere), so the
	// forwarding path is the interesting one.
	tp, err := topo.NewBuilder().
		Network("sci0", "sci").
		Network("myri0", "myrinet").
		Node("a0", "sci0").Node("a1", "sci0").
		Node("gw", "sci0", "myri0").
		Node("b0", "myri0").Node("b1", "myri0").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return Compute(tp)
}

func TestDirectRoute(t *testing.T) {
	tb := paperTable(t)
	r, ok := tb.Lookup("a0", "a1")
	if !ok || !r.Direct() || r[0].Network != "sci0" || r[0].To != "a1" {
		t.Fatalf("a0->a1 = %v, %v", r, ok)
	}
	if gws := r.Gateways(); len(gws) != 0 {
		t.Fatalf("direct route has gateways %v", gws)
	}
}

func TestForwardedRoute(t *testing.T) {
	tb := paperTable(t)
	r, ok := tb.Lookup("a0", "b1")
	if !ok || len(r) != 2 {
		t.Fatalf("a0->b1 = %v, %v", r, ok)
	}
	if r[0] != (Hop{Network: "sci0", To: "gw"}) || r[1] != (Hop{Network: "myri0", To: "b1"}) {
		t.Fatalf("a0->b1 = %v", r)
	}
	if gws := r.Gateways(); len(gws) != 1 || gws[0] != "gw" {
		t.Fatalf("gateways = %v", gws)
	}
	// And the reverse mirrors it.
	rr, _ := tb.Lookup("b1", "a0")
	if len(rr) != 2 || rr[0] != (Hop{Network: "myri0", To: "gw"}) || rr[1] != (Hop{Network: "sci0", To: "a0"}) {
		t.Fatalf("b1->a0 = %v", rr)
	}
}

func TestGatewayEndpointRoutes(t *testing.T) {
	tb := paperTable(t)
	// To and from the gateway itself: always direct.
	r, _ := tb.Lookup("a0", "gw")
	if !r.Direct() || r[0].Network != "sci0" {
		t.Fatalf("a0->gw = %v", r)
	}
	r, _ = tb.Lookup("gw", "b0")
	if !r.Direct() || r[0].Network != "myri0" {
		t.Fatalf("gw->b0 = %v", r)
	}
}

func TestMultiGatewayChain(t *testing.T) {
	tp, err := topo.NewBuilder().
		Network("n1", "sci").Network("n2", "myrinet").Network("n3", "sbp").
		Node("a", "n1").
		Node("g1", "n1", "n2").
		Node("g2", "n2", "n3").
		Node("c", "n3").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	tb := Compute(tp)
	r, ok := tb.Lookup("a", "c")
	if !ok || len(r) != 3 {
		t.Fatalf("a->c = %v", r)
	}
	want := Route{{Network: "n1", To: "g1"}, {Network: "n2", To: "g2"}, {Network: "n3", To: "c"}}
	for i := range want {
		if r[i] != want[i] {
			t.Fatalf("a->c = %v, want %v", r, want)
		}
	}
	if tb.MaxHops() != 3 {
		t.Fatalf("MaxHops = %d", tb.MaxHops())
	}
	hop, ok := tb.NextHop("a", "c")
	if !ok || hop != want[0] {
		t.Fatalf("NextHop = %v", hop)
	}
}

func TestFindNoRoute(t *testing.T) {
	tb := paperTable(t)
	for name, pair := range map[string][2]string{
		"self":        {"a0", "a0"},
		"unknown src": {"zz", "a0"},
		"unknown dst": {"a0", "zz"},
	} {
		r, err := tb.Find(pair[0], pair[1])
		if err == nil || r != nil {
			t.Errorf("%s: Find(%s,%s) = %v, %v; want ErrNoRoute", name, pair[0], pair[1], r, err)
			continue
		}
		if !errors.Is(err, ErrNoRoute) {
			t.Errorf("%s: error %v does not match ErrNoRoute", name, err)
		}
		var nre *NoRouteError
		if !errors.As(err, &nre) || nre.Src != pair[0] || nre.Dst != pair[1] {
			t.Errorf("%s: error %v is not a NoRouteError for the pair", name, err)
		}
		// Lookup mirrors Find as ok=false, never a panic.
		if _, ok := tb.Lookup(pair[0], pair[1]); ok {
			t.Errorf("%s: Lookup succeeded", name)
		}
	}
	// A reachable pair carries no error.
	if _, err := tb.Find("a0", "b1"); err != nil {
		t.Errorf("Find(a0,b1) = %v", err)
	}
}

func TestStringListsAllPairs(t *testing.T) {
	tb := paperTable(t)
	s := tb.String()
	// 5 nodes -> 20 ordered pairs.
	if got := len(strings.Split(strings.TrimSpace(s), "\n")); got != 20 {
		t.Fatalf("routes listed = %d, want 20\n%s", got, s)
	}
}

// Property: on the paper testbed every route is valid — consecutive legs
// share the claimed network, the path ends at the destination, and every
// intermediate node is a gateway of its two adjacent networks.
func TestRouteValidityProperty(t *testing.T) {
	tp := topo.PaperTestbed()
	tb := Compute(tp)
	names := tp.NodeNames()
	f := func(i, j uint8) bool {
		src := names[int(i)%len(names)]
		dst := names[int(j)%len(names)]
		if src == dst {
			return true
		}
		r, ok := tb.Lookup(src, dst)
		if !ok || len(r) == 0 {
			return false
		}
		cur := src
		for _, hop := range r {
			curNode, ok := tp.Node(cur)
			if !ok {
				return false
			}
			nextNode, ok := tp.Node(hop.To)
			if !ok {
				return false
			}
			onNet := func(n *topo.Node) bool {
				for _, nw := range n.Networks {
					if nw == hop.Network {
						return true
					}
				}
				return false
			}
			if !onNet(curNode) || !onNet(nextNode) {
				return false
			}
			cur = hop.To
		}
		return cur == dst
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDeterminism(t *testing.T) {
	tp := topo.PaperTestbed()
	a := Compute(tp).String()
	for i := 0; i < 3; i++ {
		if b := Compute(tp).String(); a != b {
			t.Fatal("routing table not deterministic")
		}
	}
}

// A table that bars a relay routes around it, as the health monitor's tables
// bar a gateway whose links fail: every cross-cluster pair goes through the
// other gateway, and barring both partitions the clusters. A barred relay
// stays a source and a destination: only its links may have died.
func TestComputeAvoiding(t *testing.T) {
	// Two parallel gateways between the clusters.
	tp, err := topo.NewBuilder().
		Network("sci0", "sci").
		Network("myri0", "myrinet").
		Node("a0", "sci0").
		Node("g1", "sci0", "myri0").
		Node("g2", "sci0", "myri0").
		Node("b0", "myri0").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	full := Compute(tp)
	r, ok := full.Lookup("a0", "b0")
	if !ok {
		t.Fatal("a0->b0 unroutable in the full table")
	}
	preferred := r.Gateways()[0]
	other := "g2"
	if preferred == "g2" {
		other = "g1"
	}

	avoided := ComputeConstrained(tp, Constraints{Relays: map[string]bool{preferred: true}})
	r, ok = avoided.Lookup("a0", "b0")
	if !ok {
		t.Fatalf("a0->b0 unroutable while barring %s", preferred)
	}
	if gws := r.Gateways(); len(gws) != 1 || gws[0] != other {
		t.Errorf("barring %s routed via %v, want [%s]", preferred, gws, other)
	}

	// Barring both gateways partitions the clusters: the pair stays known
	// (no panic) but unroutable.
	none := ComputeConstrained(tp, Constraints{Relays: map[string]bool{"g1": true, "g2": true}})
	if r, ok := none.Lookup("a0", "b0"); ok || len(r) != 0 {
		t.Errorf("partitioned pair = %v, %v", r, ok)
	}
	for _, pair := range [][2]string{{"g1", "a0"}, {"a0", "g1"}, {"g1", "b0"}} {
		if _, ok := none.Lookup(pair[0], pair[1]); !ok {
			t.Errorf("%s->%s unroutable: a barred relay must stay a source and a destination", pair[0], pair[1])
		}
	}
}

// Empty constraints are no constraints.
func TestComputeAvoidingNil(t *testing.T) {
	tp, err := topo.NewBuilder().
		Network("n0", "sci").
		Node("x", "n0").Node("y", "n0").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	empty := Constraints{Relays: map[string]bool{}, Edges: map[Edge]bool{}}
	if ComputeConstrained(tp, empty).String() != Compute(tp).String() {
		t.Error("a table under empty constraints differs from Compute")
	}
}

// Once a source's row exists, reading a first leg off it — what the reliable
// dataplane does per relayed packet — allocates nothing, and neither does
// walking a route into a buffer the caller owns, as a sender's path-MTU
// check and fwd.Build do (make allocs). Lookup builds a Route of its own.
func TestWarmRowReadsAllocsNothing(t *testing.T) {
	tb := paperTable(t)
	names := tb.topo.NodeNames()
	src, dst := names[0], names[len(names)-1]
	want, ok := tb.Lookup(src, dst)
	if !ok {
		t.Fatalf("no route %s -> %s", src, dst)
	}
	var buf [4]Hop
	n := testing.AllocsPerRun(200, func() {
		if _, ok := tb.NextHop(src, dst); !ok {
			t.Fatal("NextHop lost the route")
		}
		if r, ok := tb.Hops(src, dst, buf[:0]); !ok || len(r) != len(want) {
			t.Fatal("Hops lost the route")
		}
	})
	if n != 0 {
		t.Errorf("NextHop+Hops on a warm row allocate %.1f times, want 0", n)
	}
}
