package route

import (
	"errors"
	"testing"

	"madgo/internal/topo"
)

func managerTopo(t *testing.T) *topo.Topology {
	t.Helper()
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
	return tp
}

func TestManagerEpochsAndConstraints(t *testing.T) {
	tp := managerTopo(t)
	m := NewManager(tp, nil)
	if m.Epoch() != 1 {
		t.Fatalf("initial epoch = %d, want 1", m.Epoch())
	}
	if tbs := m.Tables(); len(tbs) != 1 {
		t.Fatalf("tables = %d entries, want 1", len(tbs))
	}
	r, err := m.Find("a0", "b0")
	if err != nil || len(r) != 2 {
		t.Fatalf("a0->b0 = %v, %v", r, err)
	}
	via := r.Gateways()[0]

	// Kill the preferred gateway's cross-link: routing shifts to the other
	// gateway under a fresh epoch.
	ep := m.Publish(Constraints{Edges: map[Edge]bool{
		{From: via, To: "b0", Network: "myri0"}: true,
	}})
	if ep != 2 || m.Epoch() != 2 {
		t.Fatalf("epoch after publish = %d", m.Epoch())
	}
	r2, err := m.Find("a0", "b0")
	if err != nil || r2.Gateways()[0] == via {
		t.Fatalf("after excluding %s: route %v, err %v", via, r2, err)
	}

	// Exclude both gateways as relays: the pair becomes a typed no-route.
	m.Publish(Constraints{Relays: map[string]bool{"g1": true, "g2": true}})
	if _, err := m.Find("a0", "b0"); !errors.Is(err, ErrNoRoute) {
		t.Fatalf("partitioned pair: err = %v, want ErrNoRoute", err)
	}

	// Lifting the constraints readmits the original route on a newer epoch.
	m.Publish(Constraints{})
	r3, err := m.Find("a0", "b0")
	if err != nil || r3.Gateways()[0] != via {
		t.Fatalf("after readmission: route %v, err %v", r3, err)
	}
	if m.Epoch() != 4 {
		t.Fatalf("epoch = %d, want 4", m.Epoch())
	}
}

func TestManagerFallbackTables(t *testing.T) {
	// Primary topology misses node c entirely; the fallback covers it.
	prim, err := topo.NewBuilder().
		Network("sci0", "sci").
		Node("a0", "sci0").Node("a1", "sci0").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	fb, err := topo.NewBuilder().
		Network("sci0", "sci").
		Network("eth0", "ethernet").
		Node("a0", "sci0", "eth0").Node("a1", "sci0").Node("c", "eth0").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(prim, fb)
	if len(m.Tables()) != 2 {
		t.Fatalf("tables = %d, want 2", len(m.Tables()))
	}
	if r, err := m.Find("a0", "a1"); err != nil || !r.Direct() {
		t.Fatalf("primary pair = %v, %v", r, err)
	}
	if r, err := m.Find("a0", "c"); err != nil || r[0].Network != "eth0" {
		t.Fatalf("fallback pair = %v, %v", r, err)
	}
	if _, err := m.Find("a0", "zz"); !errors.Is(err, ErrNoRoute) {
		t.Fatalf("unknown node err = %v", err)
	}
}

func TestComputeKAvoiding(t *testing.T) {
	tp := managerTopo(t)
	// Full graph: two link-disjoint a0->b0 routes (one per gateway).
	full := ComputeK(tp, "a0", "b0", 2, nil)
	if len(full) != 2 {
		t.Fatalf("ComputeK = %d routes, want 2", len(full))
	}
	g := full[0].Gateways()[0]
	// Killing the first route's cross-cluster link leaves one route, via
	// the other gateway.
	dead := map[Edge]bool{{From: g, To: "b0", Network: "myri0"}: true}
	rs := ComputeKAvoiding(tp, "a0", "b0", 2, nil, dead)
	if len(rs) != 1 || rs[0].Gateways()[0] == g {
		t.Fatalf("avoiding %s->b0: routes %v", g, rs)
	}
	// An empty avoid set reproduces ComputeK exactly.
	again := ComputeKAvoiding(tp, "a0", "b0", 2, nil, map[Edge]bool{})
	if len(again) != len(full) {
		t.Fatalf("empty avoid changed the result: %v", again)
	}
}
