package route

import "madgo/internal/topo"

// ComputeK finds up to k link-disjoint routes from src to dst, for the
// striping layer that transmits one message over several rails in parallel.
//
// Routes are extracted greedily: each round runs a widest-shortest-path
// search (maximise the bottleneck network rate, then minimise hops, ties
// broken by network declaration order and node name so the result is
// deterministic) over the graph with every directed link of the previously
// chosen routes removed. Gateway disjointness is preferred — the first
// search of a round also avoids the intermediate nodes of earlier routes,
// and only when that yields nothing is the search repeated with shared
// gateways allowed. Link disjointness is required: once no link-disjoint
// route remains the result is final, even if shorter than k.
//
// rate maps a network name to its bottleneck bandwidth (any consistent
// unit); nil means all networks rate equally, reducing the ranking to
// fewest-hops with declaration-order ties — the same preference Compute
// uses.
//
// ComputeK panics on unknown nodes; src == dst returns nil.
func ComputeK(t *topo.Topology, src, dst string, k int, rate func(network string) float64) []Route {
	return ComputeKAvoiding(t, src, dst, k, rate, nil)
}

// ComputeKAvoiding is ComputeK over the graph with the given directed links
// removed before the first extraction round. The health monitor feeds it the
// currently-dead edge set so stripe schedulers rebuild their rail sets
// against live connectivity only — and, symmetrically, so a readmitted link
// (absent from avoid on the next epoch) restores the rail set to its
// configured width.
func ComputeKAvoiding(t *topo.Topology, src, dst string, k int, rate func(network string) float64, avoid map[Edge]bool) []Route {
	if src == dst {
		return nil
	}
	ix := t.Index()
	s, ok := ix.Node[src]
	if !ok {
		panic("route: unknown source " + src)
	}
	d, ok := ix.Node[dst]
	if !ok {
		panic("route: unknown destination " + dst)
	}
	if rate == nil {
		rate = func(string) float64 { return 1 }
	}
	// The search's scratch is on the stack up to 64 nodes and 16 legs of
	// chosen routes, so a call allocates its routes and nothing else; a
	// larger topology allocates its labels, once a call.
	var labels [64]kLabel
	var used [16]kLink
	ks := kSearch{ix: ix, src: s, dst: d, rate: rate, avoid: avoid, lab: labels[:], used: used[:0]}
	if len(ix.Nodes) > len(labels) {
		ks.lab = make([]kLabel, len(ix.Nodes))
	}
	ks.lab = ks.lab[:len(ix.Nodes)]
	var routes []Route
	for len(routes) < k {
		r := ks.widest(true)
		if r == nil {
			// No gateway-disjoint route left; settle for link-disjoint.
			r = ks.widest(false)
		}
		if r == nil {
			break
		}
		// The route's links are used, and its gateways are gates.
		for cur := d; cur != s; cur = ks.lab[cur].prev {
			l := &ks.lab[cur]
			ks.used = append(ks.used, kLink{net: l.via, from: l.prev, to: cur})
			l.gate = cur != d
		}
		if routes == nil {
			routes = make([]Route, 0, min(k, len(ix.Nodes)))
		}
		routes = append(routes, r)
	}
	return routes
}

// kSearch is one ComputeKAvoiding call over a topology's dense numbering.
type kSearch struct {
	ix       *topo.Index
	src, dst int32
	rate     func(network string) float64
	avoid    map[Edge]bool
	lab      []kLabel // by node
	used     []kLink  // the links the chosen routes took
}

// kLabel is a node's state in a search: the widest bottleneck, then the
// fewest hops, it has been reached by, from node prev across network via.
// gate marks an intermediate node of a chosen route and outlives the search.
type kLabel struct {
	width            float64
	hops, prev, via  int32
	seen, done, gate bool
}

// kLink is a directed link: network net from node from to node to.
type kLink struct{ net, from, to int32 }

// widest runs one widest-shortest-path search from src to dst, skipping the
// avoided and used links and, when avoidGates holds, the chosen routes'
// gateways. It extracts the best unfinished label, ties to the earliest
// declared node, and relaxes in the topology's neighbour order, as Compute's
// search does. It returns the route, its labels left for the caller to walk,
// or nil when dst is unreachable.
func (ks *kSearch) widest(avoidGates bool) Route {
	ix, lab := ks.ix, ks.lab
	for i := range lab {
		lab[i] = kLabel{gate: lab[i].gate}
	}
	lab[ks.src].width, lab[ks.src].seen = maxFloat, true
	for {
		cur := int32(-1)
		for i := range lab {
			if l := &lab[i]; l.seen && !l.done && (cur < 0 || better(l.width, l.hops, lab[cur].width, lab[cur].hops)) {
				cur = int32(i)
			}
		}
		if cur < 0 {
			return nil
		}
		if cur == ks.dst {
			break
		}
		cl := &lab[cur]
		cl.done = true
		if avoidGates && cur != ks.src && cl.gate {
			continue
		}
		for _, n := range ix.OnNets[cur] {
			w := ks.rate(ix.Nets[n])
			if cl.width < w {
				w = cl.width
			}
			for _, peer := range ix.Members[n] {
				nl := &lab[peer]
				if peer == cur || nl.done || avoidGates && peer != ks.dst && nl.gate || ks.skip(n, cur, peer) {
					continue
				}
				if !nl.seen || better(w, cl.hops+1, nl.width, nl.hops) {
					*nl = kLabel{width: w, hops: cl.hops + 1, prev: cur, via: n, seen: true, gate: nl.gate}
				}
			}
		}
	}
	r := make(Route, lab[ks.dst].hops)
	for cur := ks.dst; cur != ks.src; cur = lab[cur].prev {
		r[lab[cur].hops-1] = Hop{Network: ix.Nets[lab[cur].via], To: ix.Nodes[cur]}
	}
	return r
}

// better reports whether (w1,h1) beats (w2,h2): a wider bottleneck, or as
// wide a one in fewer hops.
func better(w1 float64, h1 int32, w2 float64, h2 int32) bool {
	return w1 > w2 || w1 == w2 && h1 < h2
}

// skip reports whether the search may not take the link from node from to
// node to across network n: the caller avoids it, or a chosen route took it.
func (ks *kSearch) skip(n, from, to int32) bool {
	for _, u := range ks.used {
		if u == (kLink{net: n, from: from, to: to}) {
			return true
		}
	}
	return len(ks.avoid) > 0 && ks.avoid[Edge{From: ks.ix.Nodes[from], To: ks.ix.Nodes[to], Network: ks.ix.Nets[n]}]
}

const maxFloat = 1.7976931348623157e308
