package route

import (
	"fmt"
	"reflect"
	"testing"

	"madgo/internal/topo"
)

func mustTopo(t *testing.T, b *topo.Builder) *topo.Topology {
	t.Helper()
	tp, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

// Two parallel direct networks: ComputeK must return both rails, fastest
// first, and stop at two no matter how large k is.
func TestComputeKDualDirectRails(t *testing.T) {
	tp := mustTopo(t, topo.NewBuilder().
		Network("myri0", "myrinet").
		Network("sci0", "sci").
		Node("a", "myri0", "sci0").
		Node("b", "myri0", "sci0"))
	rate := func(nw string) float64 {
		if nw == "myri0" {
			return 47
		}
		return 44
	}
	rs := ComputeK(tp, "a", "b", 3, rate)
	want := []Route{
		{{Network: "myri0", To: "b"}},
		{{Network: "sci0", To: "b"}},
	}
	if !reflect.DeepEqual(rs, want) {
		t.Fatalf("got %v, want %v", rs, want)
	}
	// With the rates swapped the slower-declared network must come first.
	rs = ComputeK(tp, "a", "b", 2, func(nw string) float64 {
		if nw == "sci0" {
			return 90
		}
		return 47
	})
	if rs[0][0].Network != "sci0" || rs[1][0].Network != "myri0" {
		t.Fatalf("rate ranking ignored: %v", rs)
	}
}

// A diamond with two gateways: the two routes must use different gateways.
func TestComputeKGatewayDisjoint(t *testing.T) {
	tp := mustTopo(t, topo.NewBuilder().
		Network("n1", "myrinet").
		Network("n2", "myrinet").
		Network("n3", "sci").
		Network("n4", "sci").
		Node("a", "n1", "n3").
		Node("g1", "n1", "n2").
		Node("g2", "n3", "n4").
		Node("b", "n2", "n4"))
	rs := ComputeK(tp, "a", "b", 2, nil)
	if len(rs) != 2 {
		t.Fatalf("want 2 routes, got %v", rs)
	}
	g1 := rs[0].Gateways()
	g2 := rs[1].Gateways()
	if len(g1) != 1 || len(g2) != 1 || g1[0] == g2[0] {
		t.Fatalf("routes share a gateway: %v / %v", rs[0], rs[1])
	}
}

// One shared gateway with disjoint links on both sides: gateway disjointness
// is preferred but not required — the second route reuses the gateway over
// the unused links.
func TestComputeKLinkDisjointFallback(t *testing.T) {
	tp := mustTopo(t, topo.NewBuilder().
		Network("n1", "myrinet").
		Network("n2", "myrinet").
		Network("n3", "sci").
		Network("n4", "sci").
		Node("a", "n1", "n3").
		Node("g", "n1", "n2", "n3", "n4").
		Node("b", "n2", "n4"))
	rs := ComputeK(tp, "a", "b", 3, nil)
	if len(rs) != 2 {
		t.Fatalf("want 2 link-disjoint routes, got %v", rs)
	}
	want := []Route{
		{{Network: "n1", To: "g"}, {Network: "n2", To: "b"}},
		{{Network: "n3", To: "g"}, {Network: "n4", To: "b"}},
	}
	if !reflect.DeepEqual(rs, want) {
		t.Fatalf("got %v, want %v", rs, want)
	}
}

// A single path yields exactly one route, and k<=0 none.
func TestComputeKSinglePath(t *testing.T) {
	tp := mustTopo(t, topo.NewBuilder().
		Network("n1", "myrinet").
		Network("n2", "sci").
		Node("a", "n1").
		Node("g", "n1", "n2").
		Node("b", "n2"))
	rs := ComputeK(tp, "a", "b", 4, nil)
	if len(rs) != 1 {
		t.Fatalf("want 1 route, got %v", rs)
	}
	if got := ComputeK(tp, "a", "b", 0, nil); got != nil {
		t.Fatalf("k=0 should yield nil, got %v", got)
	}
	if got := ComputeK(tp, "a", "a", 2, nil); got != nil {
		t.Fatalf("self pair should yield nil, got %v", got)
	}
}

// The first route of ComputeK must agree with the plain table route when
// rates are uniform — striping K=1 then degenerates to the existing path.
func TestComputeKFirstMatchesTable(t *testing.T) {
	tp := topo.PaperTestbed()
	hs, err := tp.Restrict("sci0", "myri0")
	if err != nil {
		t.Fatal(err)
	}
	tbl := Compute(hs)
	for _, src := range hs.NodeNames() {
		for _, dst := range hs.NodeNames() {
			if src == dst {
				continue
			}
			rs := ComputeK(hs, src, dst, 1, nil)
			want, _ := tbl.Lookup(src, dst)
			if len(rs) != 1 || !reflect.DeepEqual(rs[0], want) {
				t.Fatalf("%s->%s: ComputeK %v, table %v", src, dst, rs, want)
			}
		}
	}
}

// Determinism: repeated calls return identical route sets.
func TestComputeKDeterministic(t *testing.T) {
	tp := topo.PaperTestbed()
	first := ComputeK(tp, "a1", "b1", 3, nil)
	for i := 0; i < 5; i++ {
		if rs := ComputeK(tp, "a1", "b1", 3, nil); !reflect.DeepEqual(rs, first) {
			t.Fatalf("run %d differs: %v vs %v", i, rs, first)
		}
	}
}

// TestComputeKAllocBudget pins what a K-route search allocates on the
// prod_lossy_mix shape — sixteen senders on SCI, sixteen receivers on
// Myrinet, two gateways on both — for one pair's two rails: the route list
// and its two routes, nothing else. The search runs over the topology's
// dense numbering with its scratch on the stack; it made 90 allocations while
// every call built a label map, a label per node and maps of the used links
// and gateways (make allocs).
func TestComputeKAllocBudget(t *testing.T) {
	const budget = 3
	b := topo.NewBuilder().Network("sci0", "sci").Network("myri0", "myrinet")
	for i := 0; i < 16; i++ {
		b.Node(fmt.Sprintf("a%02d", i), "sci0")
	}
	for i := 0; i < 16; i++ {
		b.Node(fmt.Sprintf("b%02d", i), "myri0")
	}
	tp := mustTopo(t, b.Node("gw1", "sci0", "myri0").Node("gw2", "sci0", "myri0"))
	rates := map[string]float64{"sci0": 85, "myri0": 160}
	rate := func(nw string) float64 { return rates[nw] }
	want := []Route{
		{{Network: "sci0", To: "gw1"}, {Network: "myri0", To: "b03"}},
		{{Network: "sci0", To: "gw2"}, {Network: "myri0", To: "b03"}},
	}
	if got := ComputeKAvoiding(tp, "a03", "b03", 2, rate, nil); !reflect.DeepEqual(got, want) {
		t.Fatalf("a03 -> b03 rails %v, want %v", got, want)
	}
	n := testing.AllocsPerRun(100, func() { ComputeKAvoiding(tp, "a03", "b03", 2, rate, nil) })
	t.Logf("ComputeKAvoiding a03 -> b03, k=2: %.1f allocations (budget %d)", n, budget)
	if n > budget {
		t.Errorf("a K-route search allocates %.1f times, budget %d", n, budget)
	}
}
