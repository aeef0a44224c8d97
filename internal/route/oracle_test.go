package route

// Differential oracles for "bit-identical": the eager all-pairs table and the
// per-visit-sorting K-route search this package shipped before its tables
// became row-lazy over a presorted adjacency. They live here, in test code
// only, and the row-lazy implementation must agree with them route for
// route on seeded random topologies under random constraints.

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"madgo/internal/topo"
)

// neighbor is a candidate next leg during the oracle searches.
type neighbor struct {
	network string
	node    string
}

// eagerTable is the old Table: every source's routes computed at
// construction, neighbours collected and sorted at every visit.
type eagerTable struct {
	topo   *topo.Topology
	netIdx map[string]int
	routes map[[2]string]Route
	avoidR map[string]bool
	avoidE map[Edge]bool
}

func eagerConstrained(t *topo.Topology, c Constraints) *eagerTable {
	tb := &eagerTable{topo: t, netIdx: make(map[string]int), routes: make(map[[2]string]Route),
		avoidR: c.Relays, avoidE: c.Edges}
	for i, n := range t.Networks() {
		tb.netIdx[n.Name] = i
	}
	for _, src := range t.NodeNames() {
		tb.computeFrom(src)
	}
	return tb
}

func (tb *eagerTable) computeFrom(src string) {
	t := tb.topo
	type state struct {
		prev string
		via  string
	}
	visited := map[string]state{src: {}}
	frontier := []string{src}
	for len(frontier) > 0 {
		var next []string
		for _, cur := range frontier {
			node, _ := t.Node(cur)
			var hops []neighbor
			for _, nw := range node.Networks {
				net, _ := t.Network(nw)
				for _, peer := range net.Members {
					if peer == cur {
						continue
					}
					if tb.avoidE[Edge{From: cur, To: peer, Network: nw}] {
						continue
					}
					hops = append(hops, neighbor{network: nw, node: peer})
				}
			}
			sort.Slice(hops, func(i, j int) bool {
				if a, b := tb.netIdx[hops[i].network], tb.netIdx[hops[j].network]; a != b {
					return a < b
				}
				return hops[i].node < hops[j].node
			})
			for _, h := range hops {
				if _, seen := visited[h.node]; seen {
					continue
				}
				visited[h.node] = state{prev: cur, via: h.network}
				if !tb.avoidR[h.node] {
					next = append(next, h.node)
				}
			}
		}
		frontier = next
	}
	for dst := range visited {
		if dst == src {
			continue
		}
		var rev Route
		for cur := dst; cur != src; {
			s := visited[cur]
			rev = append(rev, Hop{Network: s.via, To: cur})
			cur = s.prev
		}
		r := make(Route, len(rev))
		for i := range rev {
			r[i] = rev[len(rev)-1-i]
		}
		tb.routes[[2]string{src, dst}] = r
	}
}

func (tb *eagerTable) lookup(src, dst string) (Route, bool) {
	r, ok := tb.routes[[2]string{src, dst}]
	return r, ok
}

func (tb *eagerTable) maxHops() int {
	max := 0
	for _, r := range tb.routes {
		if len(r) > max {
			max = len(r)
		}
	}
	return max
}

func (tb *eagerTable) String() string {
	keys := make([][2]string, 0, len(tb.routes))
	for k := range tb.routes {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	var sb strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&sb, "%s %s\n", k[0], tb.routes[k])
	}
	return sb.String()
}

// linkKey identifies one directed (network, from, to) link.
type linkKey struct {
	net, from, to string
}

// eagerKAvoiding is the old ComputeKAvoiding: the node list copied at every
// extraction, the neighbours sorted at every relaxation.
func eagerKAvoiding(t *topo.Topology, src, dst string, k int, rate func(string) float64, avoid map[Edge]bool) []Route {
	if src == dst {
		return nil
	}
	if rate == nil {
		rate = func(string) float64 { return 1 }
	}
	netIdx := make(map[string]int)
	for i, n := range t.Networks() {
		netIdx[n.Name] = i
	}
	usedLink := make(map[linkKey]bool)
	for e := range avoid {
		usedLink[linkKey{net: e.Network, from: e.From, to: e.To}] = true
	}
	usedGate := make(map[string]bool)
	var routes []Route
	for len(routes) < k {
		r := eagerWidest(t, src, dst, rate, netIdx, usedLink, usedGate)
		if r == nil {
			r = eagerWidest(t, src, dst, rate, netIdx, usedLink, nil)
		}
		if r == nil {
			break
		}
		prev := src
		for _, h := range r {
			usedLink[linkKey{net: h.Network, from: prev, to: h.To}] = true
			if h.To != dst {
				usedGate[h.To] = true
			}
			prev = h.To
		}
		routes = append(routes, r)
	}
	return routes
}

func eagerWidest(t *topo.Topology, src, dst string, rate func(string) float64,
	netIdx map[string]int, skipLink map[linkKey]bool, avoidGate map[string]bool) Route {

	type label struct {
		width float64
		hops  int
		prev  string
		via   string
		done  bool
		seen  bool
	}
	lab := map[string]*label{src: {width: maxFloat, seen: true}}
	better := func(w1 float64, h1 int, w2 float64, h2 int) bool {
		if w1 != w2 {
			return w1 > w2
		}
		return h1 < h2
	}
	for {
		var cur string
		var cl *label
		for _, name := range t.NodeNames() {
			l := lab[name]
			if l == nil || l.done || !l.seen {
				continue
			}
			if cl == nil || better(l.width, l.hops, cl.width, cl.hops) {
				cur, cl = name, l
			}
		}
		if cl == nil {
			return nil
		}
		if cur == dst {
			break
		}
		cl.done = true
		if avoidGate != nil && cur != src && avoidGate[cur] {
			continue
		}
		node, _ := t.Node(cur)
		var hops []neighbor
		for _, nw := range node.Networks {
			net, _ := t.Network(nw)
			for _, peer := range net.Members {
				if peer != cur {
					hops = append(hops, neighbor{network: nw, node: peer})
				}
			}
		}
		sort.Slice(hops, func(i, j int) bool {
			if a, b := netIdx[hops[i].network], netIdx[hops[j].network]; a != b {
				return a < b
			}
			return hops[i].node < hops[j].node
		})
		for _, h := range hops {
			if skipLink[linkKey{net: h.network, from: cur, to: h.node}] {
				continue
			}
			if avoidGate != nil && h.node != dst && avoidGate[h.node] {
				continue
			}
			w := rate(h.network)
			if cl.width < w {
				w = cl.width
			}
			nl := lab[h.node]
			if nl == nil {
				nl = &label{}
				lab[h.node] = nl
			}
			if nl.done {
				continue
			}
			if !nl.seen || better(w, cl.hops+1, nl.width, nl.hops) {
				nl.seen = true
				nl.width = w
				nl.hops = cl.hops + 1
				nl.prev = cur
				nl.via = h.network
			}
		}
	}
	var rev Route
	for cur := dst; cur != src; {
		l := lab[cur]
		rev = append(rev, Hop{Network: l.via, To: cur})
		cur = l.prev
	}
	r := make(Route, len(rev))
	for i := range rev {
		r[i] = rev[len(rev)-1-i]
	}
	return r
}

// meshTopology draws a connected topology with redundant paths — several
// networks per node, shared gateways, equal-length alternatives — so that
// tie-breaks decide routes. Declaration order of nodes is shuffled against
// their names so name order and declaration order differ.
func meshTopology(rng *rand.Rand) *topo.Topology {
	protos := []string{"sci", "myrinet", "sbp", "ethernet"}
	for {
		b := topo.NewBuilder()
		nets := 2 + rng.Intn(4)
		for i := 0; i < nets; i++ {
			b.Network(fmt.Sprintf("n%d", i), protos[rng.Intn(len(protos))])
		}
		nodes := nets + 2 + rng.Intn(10)
		for _, i := range rng.Perm(nodes) {
			var on []string
			for _, k := range rng.Perm(nets)[:1+rng.Intn(min(3, nets))] {
				on = append(on, fmt.Sprintf("n%d", k))
			}
			b.Node(fmt.Sprintf("x%02d", i), on...)
		}
		if tp, err := b.Build(); err == nil {
			return tp
		}
	}
}

// randomConstraints excludes a random handful of relays and directed edges
// (either may stay nil).
func randomConstraints(rng *rand.Rand, tp *topo.Topology) Constraints {
	var c Constraints
	names := tp.NodeNames()
	if rng.Intn(2) == 0 {
		c.Relays = map[string]bool{}
		for i := rng.Intn(3); i >= 0; i-- {
			c.Relays[names[rng.Intn(len(names))]] = true
		}
	}
	if rng.Intn(2) == 0 {
		c.Edges = randomEdges(rng, tp, 1+rng.Intn(6))
	}
	return c
}

func randomEdges(rng *rand.Rand, tp *topo.Topology, n int) map[Edge]bool {
	edges := map[Edge]bool{}
	nws := tp.Networks()
	for ; n > 0; n-- {
		nw := nws[rng.Intn(len(nws))]
		from, to := nw.Members[rng.Intn(len(nw.Members))], nw.Members[rng.Intn(len(nw.Members))]
		if from != to {
			edges[Edge{From: from, To: to, Network: nw.Name}] = true
		}
	}
	return edges
}

// TestRowLazyTableMatchesEagerOracle: 300 seeded random topologies × random
// constraints. Every ordered pair, asked for in a random order (so rows are
// computed in an order the eager table never used), returns the eager
// table's route through Lookup, Find and NextHop; MaxHops and String agree
// whether they run on a cold table or after the lookups.
func TestRowLazyTableMatchesEagerOracle(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tp := meshTopology(rng)
		c := randomConstraints(rng, tp)
		want := eagerConstrained(tp, c)

		cold := ComputeConstrained(tp, c)
		if got := cold.MaxHops(); got != want.maxHops() {
			t.Fatalf("seed %d: cold MaxHops %d, oracle %d", seed, got, want.maxHops())
		}
		if got := ComputeConstrained(tp, c).String(); got != want.String() {
			t.Fatalf("seed %d: cold String differs\n got:\n%s\nwant:\n%s", seed, got, want)
		}

		tb := ComputeConstrained(tp, c)
		names := append(tp.NodeNames(), "nosuchnode")
		var pairs [][2]string
		for _, s := range names {
			for _, d := range names {
				pairs = append(pairs, [2]string{s, d})
			}
		}
		rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
		for _, pr := range pairs {
			src, dst := pr[0], pr[1]
			wr, wok := want.lookup(src, dst)
			gr, gok := tb.Lookup(src, dst)
			if gok != wok || !reflect.DeepEqual(gr, wr) {
				t.Fatalf("seed %d: Lookup(%s,%s) = %v,%v; oracle %v,%v (constraints %+v)\n%s",
					seed, src, dst, gr, gok, wr, wok, c, tp)
			}
			hop, hok := tb.NextHop(src, dst)
			if hok != wok || (wok && hop != wr[0]) {
				t.Fatalf("seed %d: NextHop(%s,%s) = %v,%v; oracle route %v,%v", seed, src, dst, hop, hok, wr, wok)
			}
			if _, err := tb.Find(src, dst); (err == nil) != wok {
				t.Fatalf("seed %d: Find(%s,%s) err=%v; oracle ok=%v", seed, src, dst, err, wok)
			}
		}
		if got := tb.MaxHops(); got != want.maxHops() {
			t.Fatalf("seed %d: warm MaxHops %d, oracle %d", seed, got, want.maxHops())
		}
		if got := tb.String(); got != want.String() {
			t.Fatalf("seed %d: warm String differs", seed)
		}
	}
}

// TestComputeKMatchesEagerOracle: the presorted-adjacency K-route search
// returns the old search's route lists on the same random topologies, with
// random rates and avoided edges.
func TestComputeKMatchesEagerOracle(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tp := meshTopology(rng)
		rates := map[string]float64{}
		for _, nw := range tp.Networks() {
			rates[nw.Name] = float64(1 + rng.Intn(3))
		}
		rate := func(nw string) float64 { return rates[nw] }
		if rng.Intn(4) == 0 {
			rate = nil
		}
		var avoid map[Edge]bool
		if rng.Intn(2) == 0 {
			avoid = randomEdges(rng, tp, 1+rng.Intn(6))
		}
		names := tp.NodeNames()
		for _, src := range names {
			for _, dst := range names {
				k := 1 + rng.Intn(3)
				got := ComputeKAvoiding(tp, src, dst, k, rate, avoid)
				want := eagerKAvoiding(tp, src, dst, k, rate, avoid)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d: ComputeKAvoiding(%s,%s,k=%d) = %v; oracle %v\n%s",
						seed, src, dst, k, got, want, tp)
				}
			}
		}
	}
}

// sharedNetsTopology draws a topology on few networks in which every node is
// on two or three of them, so many node pairs share two networks and a
// network is reachable from many of its members: the case in which the
// search skips a network some earlier node already expanded.
func sharedNetsTopology(rng *rand.Rand) *topo.Topology {
	for {
		b := topo.NewBuilder()
		nets := 3 + rng.Intn(2)
		for i := 0; i < nets; i++ {
			b.Network(fmt.Sprintf("n%d", i), "sci")
		}
		for _, i := range rng.Perm(4 + rng.Intn(9)) {
			var on []string
			for _, k := range rng.Perm(nets)[:2+rng.Intn(2)] {
				on = append(on, fmt.Sprintf("n%d", k))
			}
			b.Node(fmt.Sprintf("y%02d", i), on...)
		}
		if tp, err := b.Build(); err == nil {
			return tp
		}
	}
}

// TestNetworkOnceSearchMatchesEagerOracle: on 200 seeded topologies whose
// node pairs share two networks, the table agrees with the eager oracle on
// every ordered pair under four constraint sets — none, suspect relays
// (both expand each network once), and excluded edges with and without
// suspect relays (both scan every leg). Hops, appending to a buffer that
// already holds a hop, and NextHop agree with Lookup on every pair.
func TestNetworkOnceSearchMatchesEagerOracle(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tp := sharedNetsTopology(rng)
		names := tp.NodeNames()
		relays := map[string]bool{names[rng.Intn(len(names))]: true, names[rng.Intn(len(names))]: true}
		edges := randomEdges(rng, tp, 2+rng.Intn(8))
		for _, c := range []Constraints{{}, {Relays: relays}, {Edges: edges}, {Relays: relays, Edges: edges}} {
			want := eagerConstrained(tp, c)
			tb := ComputeConstrained(tp, c)
			for _, src := range names {
				for _, dst := range names {
					wr, wok := want.lookup(src, dst)
					gr, gok := tb.Lookup(src, dst)
					if gok != wok || !reflect.DeepEqual(gr, wr) {
						t.Fatalf("seed %d: Lookup(%s,%s) = %v,%v; oracle %v,%v (constraints %+v)\n%s",
							seed, src, dst, gr, gok, wr, wok, c, tp)
					}
					head := Hop{Network: "buf", To: "head"}
					hr, hok := tb.Hops(src, dst, Route{head})
					if hok != gok || len(hr) != 1+len(gr) || hr[0] != head || gok && !reflect.DeepEqual(hr[1:], gr) {
						t.Fatalf("seed %d: Hops(%s,%s) = %v,%v; Lookup %v,%v", seed, src, dst, hr, hok, gr, gok)
					}
					hop, nok := tb.NextHop(src, dst)
					if nok != gok || gok && hop != gr[0] {
						t.Fatalf("seed %d: NextHop(%s,%s) = %v,%v; Lookup %v,%v", seed, src, dst, hop, nok, gr, gok)
					}
				}
			}
		}
	}
}
