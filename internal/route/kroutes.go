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
	if _, ok := t.Node(src); !ok {
		panic("route: unknown source " + src)
	}
	if _, ok := t.Node(dst); !ok {
		panic("route: unknown destination " + dst)
	}
	if rate == nil {
		rate = func(string) float64 { return 1 }
	}
	names := t.NodeNames()
	usedLink := make(map[linkKey]bool)
	for e := range avoid {
		usedLink[linkKey{net: e.Network, from: e.From, to: e.To}] = true
	}
	usedGate := make(map[string]bool)
	var routes []Route
	for len(routes) < k {
		r := widestRoute(t, names, src, dst, rate, usedLink, usedGate)
		if r == nil {
			// No gateway-disjoint route left; settle for link-disjoint.
			r = widestRoute(t, names, src, dst, rate, usedLink, nil)
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

// linkKey identifies one directed (network, from, to) link.
type linkKey struct {
	net, from, to string
}

// widestRoute runs one widest-shortest-path search from src to dst, skipping
// the given directed links and (when avoidGate is non-nil) the given
// intermediate nodes. names is the topology's node list in declaration
// order. It returns nil when dst is unreachable under those constraints.
func widestRoute(t *topo.Topology, names []string, src, dst string, rate func(string) float64,
	skipLink map[linkKey]bool, avoidGate map[string]bool) Route {

	type label struct {
		width float64
		hops  int
		prev  string
		via   string
		done  bool
		seen  bool
	}
	lab := map[string]*label{src: {width: maxFloat, seen: true}}

	// better reports whether (w1,h1) beats (w2,h2) lexicographically:
	// wider bottleneck first, then fewer hops.
	better := func(w1 float64, h1 int, w2 float64, h2 int) bool {
		if w1 != w2 {
			return w1 > w2
		}
		return h1 < h2
	}

	for {
		// Extract the best unfinished label; ties by node name keep the
		// search deterministic.
		var cur string
		var cl *label
		for _, name := range names {
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
		// Stable relaxation order: declared-earlier networks first, then
		// peer name, so equal-width ties resolve the same way Compute's
		// search does.
		for _, h := range t.Neighbors(cur) {
			if skipLink[linkKey{net: h.Network, from: cur, to: h.Node}] {
				continue
			}
			if avoidGate != nil && h.Node != dst && avoidGate[h.Node] {
				continue
			}
			w := rate(h.Network)
			if cl.width < w {
				w = cl.width
			}
			nl := lab[h.Node]
			if nl == nil {
				nl = &label{}
				lab[h.Node] = nl
			}
			if nl.done {
				continue
			}
			if !nl.seen || better(w, cl.hops+1, nl.width, nl.hops) {
				nl.seen = true
				nl.width = w
				nl.hops = cl.hops + 1
				nl.prev = cur
				nl.via = h.Network
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

const maxFloat = 1.7976931348623157e308
