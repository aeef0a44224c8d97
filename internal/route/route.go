// Package route computes the high-level routing tables that the paper says
// "can easily and efficiently be implemented on top of Madeleine" once the
// forwarding mechanism exists: for every ordered node pair, the sequence of
// network hops (through gateways) a message must take.
package route

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"madgo/internal/topo"
)

// ErrNoRoute is the sentinel wrapped by every routing failure: no path from
// source to destination under the table's constraints. Callers match it with
// errors.Is; the reliability layer surfaces it through DeliveryError when
// every retry exhausted connectivity, turning what used to be a stall (or a
// panic on a malformed query) into a typed, inspectable error.
var ErrNoRoute = errors.New("route: no route")

// NoRouteError carries the detail behind an ErrNoRoute: which pair failed
// and why (unknown node, self-route, or constraints excluding every path).
type NoRouteError struct {
	Src, Dst string
	Why      string
}

func (e *NoRouteError) Error() string {
	return fmt.Sprintf("route: no route %s -> %s: %s", e.Src, e.Dst, e.Why)
}

// Unwrap makes errors.Is(err, ErrNoRoute) hold for every NoRouteError.
func (e *NoRouteError) Unwrap() error { return ErrNoRoute }

// Hop is one leg of a route: cross Network to reach To.
type Hop struct {
	Network string
	To      string
}

// Route is the full path from a source to a destination. A direct route has
// one hop; each additional hop crosses one more gateway.
type Route []Hop

// Direct reports whether the route needs no forwarding.
func (r Route) Direct() bool { return len(r) == 1 }

// Gateways returns the intermediate nodes, in order.
func (r Route) Gateways() []string {
	if len(r) <= 1 {
		return nil
	}
	gws := make([]string, 0, len(r)-1)
	for _, h := range r[:len(r)-1] {
		gws = append(gws, h.To)
	}
	return gws
}

func (r Route) String() string {
	var sb strings.Builder
	for i, h := range r {
		if i > 0 {
			sb.WriteString(" ")
		}
		fmt.Fprintf(&sb, "-[%s]-> %s", h.Network, h.To)
	}
	return sb.String()
}

// Edge identifies one directed link of the route graph: From transmitting
// to To across Network. Directed on purpose — a failed send says nothing
// about the reverse direction.
type Edge struct {
	From, To, Network string
}

func (e Edge) String() string { return e.From + ">" + e.To + "@" + e.Network }

// Table holds the routes of every ordered node pair of a topology.
type Table struct {
	topo   *topo.Topology
	rows   map[string]*row // by source; absent until first asked for
	avoid  map[string]bool
	avoidR map[string]bool
	avoidE map[Edge]bool

	// Epoch stamps the liveness generation this table was computed for.
	// Tables built directly by Compute/ComputeConstrained carry epoch 0;
	// the Manager stamps every table it publishes with its current epoch so
	// senders can tell a stale cached table from the live one.
	Epoch uint64
}

// Compute builds the routing table with breadth-first search over the
// node/network graph. Ties are broken by network declaration order first
// (declare fast networks before slow control networks, as the paper's
// static configuration does), then by node name, so tables are
// deterministic and symmetric paths mirror each other.
func Compute(t *topo.Topology) *Table {
	return ComputeAvoiding(t, nil)
}

// ComputeAvoiding builds a routing table that routes around the given set of
// nodes: avoided nodes appear as neither source, destination nor intermediate
// hop of any route. The reliability layer uses it to recompute paths once a
// gateway is presumed dead; pairs that only connect through avoided nodes
// simply come back unreachable from Lookup (ok=false), never as a panic.
func ComputeAvoiding(t *topo.Topology, avoid map[string]bool) *Table {
	return ComputeConstrained(t, Constraints{Nodes: avoid})
}

// Constraints restricts which parts of the graph a table may route over.
type Constraints struct {
	// Nodes are excluded entirely: neither source, destination nor
	// intermediate hop of any route.
	Nodes map[string]bool
	// Relays are excluded as intermediate hops but stay valid
	// destinations. The reliability layer puts a neighbour here after a
	// failed burst: whether the node crashed or just one link to it died,
	// nothing should be routed *through* it on the available evidence —
	// but writing it off as a destination would be wrong when only the
	// link is down.
	Relays map[string]bool
	// Edges are individual directed links excluded as route legs; their
	// endpoints stay reachable through other links.
	Edges map[Edge]bool
}

// ComputeConstrained builds a routing table honouring the given constraints.
// The table is row-lazy: this records the constraints (the maps are shared —
// callers must not mutate them afterwards) and the breadth-first search from
// a source runs when a route from it is first asked for, so a caller that
// reads one row of a 34-node table pays for one search, not 34. A table is
// for one goroutine at a time, like everything under one simulation.
func ComputeConstrained(t *topo.Topology, c Constraints) *Table {
	return &Table{topo: t, rows: make(map[string]*row),
		avoid: c.Nodes, avoidR: c.Relays, avoidE: c.Edges}
}

// step is how the search from a row's source first reached a node: from
// prev across via, hops legs from the source.
type step struct {
	prev string
	via  string
	hops int
}

// row is the search tree of one source: every reachable node's step, and the
// routes already read out of it.
type row struct {
	steps  map[string]step
	routes map[string]Route
}

// rowOf returns the search tree rooted at src, running the search on first
// use. src is a node of the topology.
func (tb *Table) rowOf(src string) *row {
	if r, ok := tb.rows[src]; ok {
		return r
	}
	r := &row{}
	if !tb.avoid[src] {
		r.steps = tb.searchFrom(src)
	}
	tb.rows[src] = r
	return r
}

// searchFrom runs the breadth-first search from src. Exploration order is
// the topology's neighbour order — preferred (earlier declared) networks
// first, then peer name — so the first discovery of a node fixes its route
// and the result does not depend on which rows were computed before.
func (tb *Table) searchFrom(src string) map[string]step {
	t := tb.topo
	steps := map[string]step{src: {}}
	frontier := []string{src}
	var next []string
	for hops := 1; len(frontier) > 0; hops++ {
		next = next[:0]
		for _, cur := range frontier {
			for _, h := range t.Neighbors(cur) {
				if tb.avoid[h.Node] || tb.avoidE[Edge{From: cur, To: h.Node, Network: h.Network}] {
					continue
				}
				if _, seen := steps[h.Node]; seen {
					continue
				}
				steps[h.Node] = step{prev: cur, via: h.Network, hops: hops}
				// Suspect relays are reachable as destinations but never
				// expanded through.
				if !tb.avoidR[h.Node] {
					next = append(next, h.Node)
				}
			}
		}
		frontier, next = next, frontier
	}
	delete(steps, src)
	return steps
}

// route reads the src→dst route out of the row, once; later calls return the
// same slice.
func (r *row) route(src, dst string) (Route, bool) {
	if rt, ok := r.routes[dst]; ok {
		return rt, true
	}
	st, ok := r.steps[dst]
	if !ok {
		return nil, false
	}
	rt := make(Route, st.hops)
	for cur := dst; cur != src; {
		s := r.steps[cur]
		rt[s.hops-1] = Hop{Network: s.via, To: cur}
		cur = s.prev
	}
	if r.routes == nil {
		r.routes = make(map[string]Route)
	}
	r.routes[dst] = rt
	return rt, true
}

// Find returns the route from src to dst, or a *NoRouteError (matching
// ErrNoRoute via errors.Is) describing why none exists: unknown nodes,
// a self-route query, or constraints that exclude every path.
func (tb *Table) Find(src, dst string) (Route, error) {
	if src == dst {
		return nil, &NoRouteError{Src: src, Dst: dst, Why: "self-route"}
	}
	if _, ok := tb.topo.Node(src); !ok {
		return nil, &NoRouteError{Src: src, Dst: dst, Why: "unknown source"}
	}
	if _, ok := tb.topo.Node(dst); !ok {
		return nil, &NoRouteError{Src: src, Dst: dst, Why: "unknown destination"}
	}
	r, ok := tb.rowOf(src).route(src, dst)
	if !ok {
		return nil, &NoRouteError{Src: src, Dst: dst, Why: "no path under current constraints"}
	}
	return r, nil
}

// Lookup returns the route from src to dst. It is Find without the error
// detail: ok=false covers unreachable pairs as well as unknown nodes and
// self-route queries (which used to panic — a table consulted with a
// fallback topology's nodes, or after constraints emptied the graph, is a
// routing miss to recover from, not a programming error).
func (tb *Table) Lookup(src, dst string) (Route, bool) {
	r, err := tb.Find(src, dst)
	return r, err == nil
}

// NextHop returns the first leg from src toward dst: Lookup's r[0], read off
// the search tree without building the route.
func (tb *Table) NextHop(src, dst string) (Hop, bool) {
	if src == dst {
		return Hop{}, false
	}
	if _, ok := tb.topo.Node(src); !ok {
		return Hop{}, false
	}
	steps := tb.rowOf(src).steps
	st, ok := steps[dst]
	if !ok {
		return Hop{}, false
	}
	cur := dst
	for st.prev != src {
		cur = st.prev
		st = steps[cur]
	}
	return Hop{Network: st.via, To: cur}, true
}

// MaxHops returns the longest route length in the table (diagnostics). It
// computes every row.
func (tb *Table) MaxHops() int {
	max := 0
	for _, src := range tb.topo.NodeNames() {
		for _, st := range tb.rowOf(src).steps {
			if st.hops > max {
				max = st.hops
			}
		}
	}
	return max
}

// String renders every route, sorted, one per line. It computes every row.
func (tb *Table) String() string {
	var keys [][2]string
	for _, src := range tb.topo.NodeNames() {
		for dst := range tb.rowOf(src).steps {
			keys = append(keys, [2]string{src, dst})
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	var sb strings.Builder
	for _, k := range keys {
		r, _ := tb.rows[k[0]].route(k[0], k[1])
		fmt.Fprintf(&sb, "%s %s\n", k[0], r)
	}
	return sb.String()
}
