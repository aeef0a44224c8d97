package route

import (
	"fmt"
	"sort"
	"strings"
)

// McastBranch is one egress decision of a multicast distribution tree at a
// branching node: cross Hop.Network to Hop.To, serving the subset Dests of
// the tree's destinations. Dests always contains every destination whose
// unicast next hop from the branching node is Hop; Hop.To itself is a member
// exactly when it is a final destination (it may still relay for the rest of
// the subset).
type McastBranch struct {
	Hop   Hop
	Dests []string // sorted
}

// Relays reports whether the branch needs forwarding beyond its next hop:
// some destination of the subset lies past Hop.To. A non-relaying branch is
// a leaf edge — its sole destination is the next hop itself.
func (b McastBranch) Relays() bool {
	return len(b.Dests) > 1 || b.Dests[0] != b.Hop.To
}

// McastTree is the distribution tree of one (root, destination-set) pair
// over the physical topology: the union of the unicast shortest-path routes
// from the root to every destination, grouped so that each network edge
// carries each fragment at most once. Nodes with more than one outgoing
// branch are the replication points (gateways, or the root itself).
type McastTree struct {
	Root  string
	Dests []string // all destinations, sorted, root excluded
	// Branches maps each tree node (root or relay) to its outgoing
	// branches, sorted by (network, next hop) for determinism.
	Branches map[string][]McastBranch
	// Edges is the total number of directed tree edges — the number of
	// times one fragment touches a wire, against len(Dests) for a unicast
	// fan-out of the same set.
	Edges int
}

// ComputeMulticast derives the distribution tree for a multicast from root
// to dests over this table's unicast routes. Duplicate destinations and the
// root itself are dropped; an empty effective set or an unroutable
// destination yields a *NoRouteError. Because every per-node split follows
// NextHop of the same loop-free shortest-path table, the recursion
// terminates, the per-branch destination subsets are disjoint, and each
// destination is reached by exactly one tree path. Forwarding never plans a
// tree: the root and every gateway split the set they carry by next hop as
// they send it, and this planner is the reference that split is tested
// against.
func (tb *Table) ComputeMulticast(root string, dests []string) (*McastTree, error) {
	if _, ok := tb.topo.Node(root); !ok {
		return nil, &NoRouteError{Src: root, Dst: strings.Join(dests, ","), Why: "unknown source"}
	}
	set := make(map[string]bool, len(dests))
	for _, d := range dests {
		if d != root {
			set[d] = true
		}
	}
	if len(set) == 0 {
		return nil, &NoRouteError{Src: root, Dst: strings.Join(dests, ","), Why: "empty destination set"}
	}
	all := make([]string, 0, len(set))
	for d := range set {
		all = append(all, d)
	}
	sort.Strings(all)
	tr := &McastTree{Root: root, Dests: all, Branches: make(map[string][]McastBranch)}
	if err := tr.grow(tb, root, all); err != nil {
		return nil, err
	}
	return tr, nil
}

// grow partitions the destination subset reaching node cur by unicast next
// hop, records the resulting branches, and recurses into every next hop that
// still has destinations beyond itself — the split each hop makes at run
// time.
func (tr *McastTree) grow(tb *Table, cur string, dests []string) error {
	type group struct {
		hop  Hop
		sub  []string
		past []string // members of sub beyond the next hop itself
	}
	var groups []*group
	byHop := make(map[Hop]*group)
	for _, d := range dests {
		hop, ok := tb.NextHop(cur, d)
		if !ok {
			_, err := tb.Find(cur, d)
			if err == nil {
				err = &NoRouteError{Src: cur, Dst: d, Why: "no path under current constraints"}
			}
			return err
		}
		g := byHop[hop]
		if g == nil {
			g = &group{hop: hop}
			byHop[hop] = g
			groups = append(groups, g)
		}
		g.sub = append(g.sub, d)
		if d != hop.To {
			g.past = append(g.past, d)
		}
	}
	sort.Slice(groups, func(i, j int) bool {
		if groups[i].hop.Network != groups[j].hop.Network {
			return groups[i].hop.Network < groups[j].hop.Network
		}
		return groups[i].hop.To < groups[j].hop.To
	})
	for _, g := range groups {
		tr.Branches[cur] = append(tr.Branches[cur], McastBranch{Hop: g.hop, Dests: g.sub})
		tr.Edges++
		if len(g.past) > 0 {
			if err := tr.grow(tb, g.hop.To, g.past); err != nil {
				return err
			}
		}
	}
	return nil
}

// Relays returns the tree's interior replication nodes (every node with
// recorded branches except the root), sorted.
func (tr *McastTree) Relays() []string {
	var out []string
	for n := range tr.Branches {
		if n != tr.Root {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

// String renders the tree, one branching node per line, for tooling and
// tests.
func (tr *McastTree) String() string {
	nodes := make([]string, 0, len(tr.Branches))
	for n := range tr.Branches {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	var sb strings.Builder
	fmt.Fprintf(&sb, "mcast %s -> {%s} (%d edges)\n", tr.Root, strings.Join(tr.Dests, ","), tr.Edges)
	for _, n := range nodes {
		for _, b := range tr.Branches[n] {
			fmt.Fprintf(&sb, "  %s -[%s]-> %s {%s}\n", n, b.Hop.Network, b.Hop.To, strings.Join(b.Dests, ","))
		}
	}
	return sb.String()
}
