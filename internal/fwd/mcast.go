package fwd

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"madgo/internal/flight"
	"madgo/internal/mad"
	"madgo/internal/obs"
	"madgo/internal/route"
	"madgo/internal/vtime"
)

// Gateway-native multicast. A KindMcast message is a self-described GTM
// packet stream whose header names a destination *set* instead of a single
// rank. The sender computes the (root, member-set) distribution tree over
// the unicast routing table (route.ComputeMulticast) and emits one stream
// per root branch; every gateway on the tree re-partitions the header's
// destination set by its own next hops, rewrites the header per branch, and
// replicates each staged fragment from its one ingress slot onto every
// egress link — so each network edge carries each fragment at most once, and
// the gateway's ingress byte count is independent of the receiver count.
//
// Framing mirrors the compact (eager) GTM: sub-MTU messages travel as one
// [header|payload] transfer with EOM set, larger ones as a header transfer
// followed by MTU-sized fragments with the terminator riding the last
// fragment's EOM flag. There is never a bare-terminator transfer.
//
// Flow control composes per branch: a relaying hop spends one credit per
// egress transfer toward its next gateway, so a slow subscriber
// backpressures only its own branch (until the shared staging ring drains,
// which is the bounded-memory backstop). Streaming mode only — the reliable
// protocol keeps its unicast framing, and collectives fall back to the
// binomial tree there (CanMulticast).

// mcastPlan is one cached (root, member-set) distribution plan: the tree and
// the tree MTU (minimum path MTU over every destination, so one fragment
// size fits every subtree — §2.3's connexion-MTU rule extended to trees).
type mcastPlan struct {
	tree *route.McastTree
	mtu  int
}

// mcastRoot is what one node has counted as the root of multicast messages,
// labelled {node}. It is kept per node, not per plan: a plan is replaced on
// every routing epoch, and the counts are the channel's history.
type mcastRoot struct {
	node               string
	messages, branches obs.Counter
}

// BindMetrics attaches the root's counts to their series in m.
func (r *mcastRoot) BindMetrics(m *obs.Registry) {
	node := obs.Labels{"node": r.node}
	m.BindCounter(&r.messages, "madgo_mcast_messages_total", node)
	m.BindCounter(&r.branches, "madgo_mcast_branches_total", node)
}

// destsText is the destination list of a multicast pack record. A list is
// the one thing a hop's fixed fields cannot hold, so it is joined at write
// time — for an armed registry only.
func destsText(m *obs.Registry, ds []string) string {
	if m == nil {
		return ""
	}
	return "{" + strings.Join(ds, ",") + "}"
}

// mcastState is the channel-wide multicast state: the plan cache with its two
// counts and the roots' records, which McastStats sums with the gateways'.
// Always allocated; streaming-only paths guard on CanMulticast.
type mcastState struct {
	plans map[string]*mcastPlan
	key   []byte                // the plan key being looked up, reused
	roots map[string]*mcastRoot // by node, created by its first multicast
	// hdrDescs describe a header sent alone, by its length: nothing rewrites a
	// descriptor, so every such transfer of one length shares one.
	hdrDescs map[int][]mad.BlockDesc
	// ranks is a destination set no one holds across a yield: a branch's until
	// its header is encoded, a sink's until it is checked (openStream).
	ranks []mad.Rank

	cacheHits  int64
	recomputes int64
}

// McastStats are the multicast counters of one virtual channel. All zero
// when no multicast was ever sent (or in reliable mode, where collectives
// fall back to unicast trees).
type McastStats struct {
	// Messages counts multicast messages entered at roots.
	Messages int64 `json:"messages"`
	// Relays counts gateway replication operations (one per message per
	// gateway on its tree).
	Relays int64 `json:"relays"`
	// Branches counts egress branches fanned out, at roots and gateways.
	Branches int64 `json:"branches"`
	// ReplicatedPackets and ReplicatedBytes count gateway egress transfers
	// carrying payload; the gateway's *ingress* side is counted by the
	// ordinary relayed-packet counters and stays independent of the
	// receiver count.
	ReplicatedPackets int64 `json:"replicated_packets"`
	ReplicatedBytes   int64 `json:"replicated_bytes"`
	// LocalDeliveries counts messages a gateway delivered to its own node
	// while relaying (the gateway is itself a tree destination).
	LocalDeliveries int64 `json:"local_deliveries"`
	// TreeCacheHits and TreeRecomputes describe the plan cache; a
	// recompute happens on first use of a (root, member-set) pair and
	// whenever the routing epoch moved since the plan was built.
	TreeCacheHits  int64 `json:"tree_cache_hits"`
	TreeRecomputes int64 `json:"tree_recomputes"`
}

// McastStats sums the multicast counters over the channel's roots and gateways.
func (vc *VirtualChannel) McastStats() McastStats {
	s := McastStats{TreeCacheHits: vc.mcastst.cacheHits, TreeRecomputes: vc.mcastst.recomputes}
	for _, r := range vc.mcastst.roots {
		s.Messages += r.messages.Count()
		s.Branches += r.branches.Count()
	}
	for _, g := range vc.gates {
		s.Relays += g.met.mcastRelays.Count()
		s.Branches += g.met.branches.Count()
		s.ReplicatedPackets += g.met.replicatedPkts.Count()
		s.ReplicatedBytes += g.met.replicatedBytes.Count()
		s.LocalDeliveries += g.met.local.Count()
	}
	return s
}

// CanMulticast reports whether BeginMulticast is available: the streaming
// GTM only. The reliable datagram protocol keeps its own unicast framing,
// so collectives fall back to point-to-point trees there.
func (vc *VirtualChannel) CanMulticast() bool { return !vc.cfg.Reliable }

// hdrDesc describes a transfer of an n-byte header alone.
func (st *mcastState) hdrDesc(n int) []mad.BlockDesc {
	d, ok := st.hdrDescs[n]
	if !ok {
		d = []mad.BlockDesc{headerDesc(n)}
		st.hdrDescs[n] = d
	}
	return d
}

// mcastPlanFor returns the cached distribution plan of one (root, dests)
// pair, recomputing it on first use and whenever the routing table's epoch
// moved past the cached tree's.
func (vc *VirtualChannel) mcastPlanFor(root string, dests []string) *mcastPlan {
	st := vc.mcastst
	st.key = append(st.key[:0], root...)
	for _, d := range dests {
		st.key = append(append(st.key, 0), d...)
	}
	if pl, ok := st.plans[string(st.key)]; ok && pl.tree.Epoch == vc.tbl.Epoch {
		st.cacheHits++
		return pl
	}
	tree, err := vc.tbl.ComputeMulticast(root, dests)
	if err != nil {
		panic(fmt.Sprintf("fwd: %v", err))
	}
	mtu := vc.cfg.MTU
	for _, d := range tree.Dests {
		if m := vc.PathMTU(root, d); m < mtu {
			mtu = m
		}
	}
	pl := &mcastPlan{tree: tree, mtu: mtu}
	st.plans[string(st.key)] = pl
	st.recomputes++
	return pl
}

// mcastRoot returns (creating) the record of one node's multicast sends.
func (vc *VirtualChannel) mcastRoot(node string) *mcastRoot {
	r := vc.mcastst.roots[node]
	if r == nil {
		r = &mcastRoot{node: node}
		vc.mcastst.roots[node] = r
		vc.sess.Platform.Instrument(r)
	}
	return r
}

// mcastPacking is the sender side: blocks are buffered (multicast framing
// needs the total size to pick compact vs streaming, and every branch
// re-reads the same blocks), then EndPacking emits one stream per root
// branch of the distribution tree.
type mcastPacking struct {
	handle Packing
	blockBuf
	dests []string // sorted, deduplicated, root excluded
	// tx is the writer of the branch being sent, one after the other. Of a
	// multicast stream nothing a gateway still reads lives in it.
	tx streamTx
}

// BeginMulticast starts a message to every named destination at once; the
// message is delivered byte-identically to each, replicated inside the
// network by the gateways of the distribution tree rather than by repeated
// unicast sends. Duplicate destinations and the sender itself are ignored;
// at least one other node must remain. Streaming mode only (CanMulticast).
func (e *Endpoint) BeginMulticast(p *vtime.Proc, dests ...string) *Packing {
	vc := e.vc
	if !vc.CanMulticast() {
		panic("fwd: BeginMulticast requires streaming mode (Reliable is set)")
	}
	ds := make([]string, 0, len(dests))
	for _, d := range dests {
		if _, ok := vc.nodes[d]; !ok {
			panic("fwd: unknown multicast destination " + d)
		}
		if d != e.node.Name {
			ds = append(ds, d)
		}
	}
	slices.Sort(ds)
	if ds = slices.Compact(ds); len(ds) == 0 {
		panic("fwd: multicast without destinations on " + e.node.Name)
	}
	x := &mcastPacking{blockBuf: vc.buffer(e.node), dests: ds}
	x.cost = 0
	vc.hop(p, x.id, e.node.Name, "pack", obs.Detail{Form: "mcast -> ${note}", Note: destsText(vc.metrics(), ds)}, 0)
	return x.handle.bind(x, x.id)
}

func (x *mcastPacking) end(p *vtime.Proc) {
	pl := x.vc.mcastPlanFor(x.node.Name, x.dests)
	root := x.vc.mcastRoot(x.node.Name)
	root.messages.Add(1)
	for _, b := range pl.tree.Branches[x.node.Name] {
		x.sendBranch(p, b, pl.mtu)
		root.branches.Add(1)
	}
}

// sendBranch emits the message once toward one root branch: compact when the
// whole payload shares a transfer with the header, streaming otherwise. A
// relaying branch spends one flow credit per transfer toward its next
// gateway; a leaf branch goes straight to its sole destination (hopLink).
func (x *mcastPacking) sendBranch(p *vtime.Proc, b route.McastBranch, mtu int) {
	vc := x.vc
	link, spendTo := vc.hopLink(x.node, b.Hop, b.Relays())
	ranks := vc.mcastst.ranks[:0]
	for _, d := range b.Dests {
		ranks = append(ranks, vc.NodeRank(d))
	}
	slices.Sort(ranks)
	vc.mcastst.ranks = ranks
	x.tx = streamTx{vc: vc, link: link, kind: mad.KindMcast, spends: spendTo != ""}
	x.tx.open(p, streamHdr{src: x.node.Rank, mtu: mtu, id: x.id, dests: ranks})
	vc.flightRing(x.node.Name).Record(flight.KindReplicate, p.Now(), 0, x.id, x.total, b.Hop.Network)
	x.tx.message(p, x.blks, x.total, nil)
}

// mcastLocal is a fully captured multicast message a relaying gateway
// delivers to its own node: the gateway copies each staged fragment out of
// the shared ring (or retains the compact frame's slot) and funnels the
// result through the node's merged arrival queue like any other incoming.
// Its header's destinations are the relay ring's, which the ring's next
// multicast rewrites: the delivery reads none.
type mcastLocal struct {
	h streamHdr
	parkedFrags
}

// mcastDest is one destination of a multicast frame at a relaying gateway:
// its rank, the next hop toward it, and whether it lies beyond that hop.
type mcastDest struct {
	hop  route.Hop
	rank mad.Rank
	past bool
}

// mcastSplit partitions a multicast frame's destination set at this
// gateway: the local flag if the gateway itself is a destination, plus one
// replicated egress branch of the ring — with its rewritten header — per
// distinct next hop, sorted by (network, next hop) like the planner's; by
// construction the two agree, since both follow the same unicast table. It
// works in the ring's storage, and each branch header is a wire-pool buffer:
// the next hop returns one sent alone, replicateFrame one it glues.
func (g *Gateway) mcastSplit(r *relayRing, f *relayFrame) (local bool) {
	vc := g.vc
	ds := r.dests[:0]
	for _, d := range f.dests {
		name := vc.sess.Node(d).Name
		if name == g.name {
			local = true
			continue
		}
		hop, ok := vc.tbl.NextHop(g.name, name)
		if !ok {
			panic(fmt.Sprintf("fwd: gateway %s has no route to multicast destination %s", g.name, name))
		}
		ds = append(ds, mcastDest{hop: hop, rank: d, past: name != hop.To})
	}
	// Ranks ascend within a branch, the canonical order of its header.
	slices.SortFunc(ds, func(a, b mcastDest) int {
		return cmp.Or(cmp.Compare(a.hop.Network, b.hop.Network), cmp.Compare(a.hop.To, b.hop.To), cmp.Compare(a.rank, b.rank))
	})
	r.dests = ds
	for i := 0; i < len(ds); {
		ranks, past := vc.mcastst.ranks[:0], false
		for _, d := range ds[i:] {
			if d.hop != ds[i].hop {
				break
			}
			ranks, past = append(ranks, d.rank), past || d.past
		}
		vc.mcastst.ranks = ranks
		out, nextGW := vc.hopLink(g.node, ds[i].hop, past || len(ranks) > 1)
		hdr := vc.bufs.get(streamHeaderLen(mad.KindMcast, len(ranks)))
		putStreamHeader(hdr, mad.KindMcast, streamHdr{src: f.src, mtu: f.mtu, id: f.id, dests: ranks})
		r.branches = append(r.branches, relayBranch{tx: g.sender(out, nextGW), hdr: hdr})
		i += len(ranks)
	}
	return local
}

// replicateFrame rebuilds a whole multicast frame for one branch — the
// branch's rewritten header glued to the shared payload — and returns it
// with its block descriptors; the header goes back to the pool. The
// contiguous copy is the price of one transfer per branch, as at the root.
func (g *Gateway) replicateFrame(p *vtime.Proc, f *relayFrame, b *relayBranch, payload []byte) ([]mad.BlockDesc, []byte) {
	frame := make([]byte, len(b.hdr)+len(payload))
	copy(frame[copy(frame, b.hdr):], payload)
	g.vc.bufs.put(b.hdr)
	if len(payload) > 0 {
		g.node.Host.Memcpy(p, len(payload))
	}
	g.met.replicatedPkts.Add(1)
	g.met.replicatedBytes.Add(int64(len(payload)))
	g.vc.flightRing(g.name).Record(flight.KindReplicate, p.Now(), 0, f.id, len(payload), b.tx.outNet)
	return append([]mad.BlockDesc{headerDesc(len(b.hdr))}, f.descs...), frame
}
