package fwd

import (
	"slices"

	"madgo/internal/mad"
	"madgo/internal/route"
)

// SplitBranch is one branch of the multicast split at a node: its next hop,
// its destinations in the order its header carries them, and whether it
// relays.
type SplitBranch struct {
	Hop    route.Hop
	Dests  []string
	Relays bool
}

// SplitByHop runs the multicast split (splitByHop) at node over the named
// destination set, as a root or a gateway does with the set it carries, and
// returns the branches in the order it takes them and whether node is itself
// a destination. Exported to the package's external tests; it exists in test
// builds only.
func SplitByHop(vc *VirtualChannel, node string, dests []string) (branches []SplitBranch, local bool) {
	ranks := make([]mad.Rank, len(dests))
	for i, d := range dests {
		ranks[i] = vc.NodeRank(d)
	}
	slices.Sort(ranks)
	local = vc.splitByHop(vc.nodes[node], ranks, func(hop route.Hop, rs []mad.Rank, relays bool) {
		b := SplitBranch{Hop: hop, Relays: relays}
		for _, r := range rs {
			b.Dests = append(b.Dests, vc.sess.Node(r).Name)
		}
		branches = append(branches, b)
	})
	return branches, local
}
