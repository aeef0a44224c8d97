// Package route computes the high-level routing tables that the paper says
// "can easily and efficiently be implemented on top of Madeleine" once the
// forwarding mechanism exists: for every ordered node pair, the sequence of
// network hops (through gateways) a message must take.
package route

import (
	"errors"
	"fmt"
	"slices"
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
	ix     *topo.Index
	rows   [][]step // by source number; nil until first asked for
	avoidR map[string]bool
	avoidE map[Edge]bool

	// The search's scratch, reused from row to row: the breadth-first
	// queue, and which networks the current search has expanded.
	queue    []int32
	expanded []bool
}

// Compute builds the routing table with breadth-first search over the
// node/network graph. Ties are broken by network declaration order first
// (declare fast networks before slow control networks, as the paper's
// static configuration does), then by node name, so tables are
// deterministic and symmetric paths mirror each other.
func Compute(t *topo.Topology) *Table {
	return ComputeConstrained(t, Constraints{})
}

// Constraints restricts which parts of the graph a table may route over.
// Pairs that only connect through excluded parts come back unreachable from
// Lookup (ok=false), never as a panic.
type Constraints struct {
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
	return &Table{topo: t, ix: t.Index(), avoidR: c.Relays, avoidE: c.Edges}
}

// step is how the search from a row's source first reached a node: from
// node prev across network via, hops legs from the source. A row holds one
// per node; hops is 0 at the source and at every node the search did not
// reach.
type step struct {
	prev, via, hops int32
}

// rowOf returns the search tree rooted at node src, running the search on
// first use.
func (tb *Table) rowOf(src int32) []step {
	if tb.rows == nil {
		tb.rows = make([][]step, len(tb.ix.Nodes))
	}
	if tb.rows[src] == nil {
		tb.rows[src] = tb.searchFrom(src)
	}
	return tb.rows[src]
}

// searchFrom runs the breadth-first search from src. Exploration order is
// the topology's neighbour order — preferred (earlier declared) networks
// first, then peer name — so the first discovery of a node fixes its route
// and the result does not depend on which rows were computed before.
//
// A network is expanded once per search (DESIGN.md §39): the first node to
// expand it marks every member not yet reached, so a later expansion would
// mark none and is skipped. That holds only while no edge is excluded; a
// table with excluded edges scans every leg of every node it reaches.
func (tb *Table) searchFrom(src int32) []step {
	ix := tb.ix
	steps := make([]step, len(ix.Nodes))
	once := len(tb.avoidE) == 0
	if tb.expanded == nil {
		tb.expanded = make([]bool, len(ix.Nets))
	}
	clear(tb.expanded)
	queue := append(tb.queue[:0], src)
	for i := 0; i < len(queue); i++ {
		cur := queue[i]
		hops := steps[cur].hops + 1
		for _, k := range ix.OnNets[cur] {
			if once && tb.expanded[k] {
				continue
			}
			tb.expanded[k] = true
			for _, peer := range ix.Members[k] {
				if steps[peer].hops != 0 || peer == src {
					continue
				}
				name := ix.Nodes[peer]
				if !once && tb.avoidE[Edge{From: ix.Nodes[cur], To: name, Network: ix.Nets[k]}] {
					continue
				}
				steps[peer] = step{prev: cur, via: k, hops: hops}
				// Suspect relays are reachable as destinations but never
				// expanded through.
				if !tb.avoidR[name] {
					queue = append(queue, peer)
				}
			}
		}
	}
	tb.queue = queue
	return steps
}

// tree returns the search tree of src and dst's number in it; ok is false
// for an unknown node, a self-route query and an unreachable pair.
func (tb *Table) tree(src, dst string) (steps []step, d int32, ok bool) {
	s, sok := tb.ix.Node[src]
	d, dok := tb.ix.Node[dst]
	if !sok || !dok || s == d {
		return nil, 0, false
	}
	steps = tb.rowOf(s)
	return steps, d, steps[d].hops > 0
}

// Hops appends the route from src to dst to buf and returns it, ok=false
// where Lookup's is. It builds no Route of its own: a caller that walks
// every pair, or reads a route per message, passes a buffer it owns (a stack
// array's buf[:0]) and allocates nothing.
func (tb *Table) Hops(src, dst string, buf Route) (Route, bool) {
	steps, d, ok := tb.tree(src, dst)
	if !ok {
		return buf, false
	}
	n := len(buf)
	buf = slices.Grow(buf, int(steps[d].hops))[:n+int(steps[d].hops)]
	for ; steps[d].hops > 0; d = steps[d].prev {
		buf[n+int(steps[d].hops)-1] = Hop{Network: tb.ix.Nets[steps[d].via], To: tb.ix.Nodes[d]}
	}
	return buf, true
}

// Find returns the route from src to dst, or a *NoRouteError (matching
// ErrNoRoute via errors.Is) describing why none exists: unknown nodes,
// a self-route query, or constraints that exclude every path.
func (tb *Table) Find(src, dst string) (Route, error) {
	if src == dst {
		return nil, &NoRouteError{Src: src, Dst: dst, Why: "self-route"}
	}
	if _, ok := tb.ix.Node[src]; !ok {
		return nil, &NoRouteError{Src: src, Dst: dst, Why: "unknown source"}
	}
	if _, ok := tb.ix.Node[dst]; !ok {
		return nil, &NoRouteError{Src: src, Dst: dst, Why: "unknown destination"}
	}
	r, ok := tb.Hops(src, dst, nil)
	if !ok {
		return nil, &NoRouteError{Src: src, Dst: dst, Why: "no path under current constraints"}
	}
	return r, nil
}

// Lookup returns the route from src to dst, a Route of its own. It is Find
// without the error detail: ok=false covers unreachable pairs as well as
// unknown nodes and self-route queries (which used to panic — a table
// consulted with a fallback topology's nodes, or after constraints emptied
// the graph, is a routing miss to recover from, not a programming error).
func (tb *Table) Lookup(src, dst string) (Route, bool) {
	return tb.Hops(src, dst, nil)
}

// NextHop returns the first leg from src toward dst: Lookup's r[0], read off
// the search tree without building the route.
func (tb *Table) NextHop(src, dst string) (Hop, bool) {
	steps, d, ok := tb.tree(src, dst)
	if !ok {
		return Hop{}, false
	}
	for steps[d].hops > 1 {
		d = steps[d].prev
	}
	return Hop{Network: tb.ix.Nets[steps[d].via], To: tb.ix.Nodes[d]}, true
}

// MaxHops returns the longest route length in the table (diagnostics). It
// computes every row.
func (tb *Table) MaxHops() int {
	longest := int32(0)
	for src := range tb.ix.Nodes {
		for _, st := range tb.rowOf(int32(src)) {
			longest = max(longest, st.hops)
		}
	}
	return int(longest)
}

// String renders every route, sorted, one per line. It computes every row.
func (tb *Table) String() string {
	names := slices.Clone(tb.ix.Nodes)
	slices.Sort(names)
	var sb strings.Builder
	var buf Route
	for _, src := range names {
		for _, dst := range names {
			var ok bool
			if buf, ok = tb.Hops(src, dst, buf[:0]); ok {
				fmt.Fprintf(&sb, "%s %s\n", src, buf)
			}
		}
	}
	return sb.String()
}
