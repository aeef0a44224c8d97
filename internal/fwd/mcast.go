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
// rank. The root is the message's first relay: it splits the set by its own
// unicast next hops (splitByHop) and emits one stream per branch; every
// gateway on the way splits the header's set by its own next hops the same
// way, rewrites the header per branch, and replicates each staged fragment
// from its one ingress slot onto every egress link — so each network edge
// carries each fragment at most once, and the gateway's ingress byte count
// is independent of the receiver count.
//
// Framing mirrors the compact (eager) GTM: sub-MTU messages travel as one
// [header|payload] transfer with EOM set, larger ones as a header transfer
// followed by MTU-sized fragments with the terminator riding the last
// fragment's EOM flag. There is never a bare-terminator transfer.
//
// Streaming mode only — the reliable protocol keeps its unicast framing, and
// collectives fall back to the binomial tree there (CanMulticast).

// mcastRoot is what one node has counted as the root of multicast messages,
// labelled {node}.
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

// destsText is the destination list of a multicast pack record, by name. A
// list is the one thing a hop's fixed fields cannot hold, so it is joined at
// write time — for an armed registry only, sorted on the stack up to 16.
func (vc *VirtualChannel) destsText(ds []mad.Rank) string {
	if vc.metrics() == nil {
		return ""
	}
	var buf [16]string
	names := buf[:0]
	for _, d := range ds {
		names = append(names, vc.sess.Node(d).Name)
	}
	slices.Sort(names)
	return "{" + strings.Join(names, ",") + "}"
}

// mcastState is the channel-wide multicast state: the roots' records, which
// McastStats sums with the gateways'. Always allocated; streaming-only paths
// guard on CanMulticast.
type mcastState struct {
	roots map[string]*mcastRoot // by node, created by its first multicast
	// hdrDescs describe a header sent alone, by its length: nothing rewrites a
	// descriptor, so every such transfer of one length shares one.
	hdrDescs map[int][]mad.BlockDesc
	// ranks is where a sink decodes a header's destination set, held until
	// it is checked (openStream).
	ranks []mad.Rank
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
	// TreeCacheHits and TreeRecomputes always read zero: the root plans no
	// tree, it splits its destinations by next hop as every gateway does.
	// They stay because the benchmark ledger reads them.
	TreeCacheHits  int64 `json:"tree_cache_hits"`
	TreeRecomputes int64 `json:"tree_recomputes"`
}

// McastStats sums the multicast counters over the channel's roots and gateways.
func (vc *VirtualChannel) McastStats() McastStats {
	var s McastStats
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

// splitByHop partitions the destination set ranks, ascending, at node by
// unicast next hop: the one split the root and every gateway make, each from
// its own routing table and the set its header carries (§2.3). It reports
// whether node is itself in the set and calls branch once per next hop, in
// (network, next hop) order, with the branch's ranks ascending and whether
// the branch relays — holds more than one destination, or one past the hop.
// It sorts ranks in place and hands branch windows of them, so the caller's
// storage must outlive whatever branch does.
func (vc *VirtualChannel) splitByHop(node *mad.Node, ranks []mad.Rank, branch func(hop route.Hop, ranks []mad.Rank, relays bool)) (local bool) {
	if i, ok := slices.BinarySearch(ranks, node.Rank); ok {
		local, ranks = true, slices.Delete(ranks, i, i+1)
	}
	hopTo := func(d mad.Rank) route.Hop {
		name := vc.sess.Node(d).Name
		hop, ok := vc.tbl.NextHop(node.Name, name)
		if !ok {
			panic(fmt.Sprintf("fwd: %s has no route to multicast destination %s", node.Name, name))
		}
		return hop
	}
	slices.SortFunc(ranks, func(a, b mad.Rank) int {
		ha, hb := hopTo(a), hopTo(b)
		return cmp.Or(cmp.Compare(ha.Network, hb.Network), cmp.Compare(ha.To, hb.To), cmp.Compare(a, b))
	})
	for len(ranks) > 0 {
		hop, n := hopTo(ranks[0]), 1
		for n < len(ranks) && hopTo(ranks[n]) == hop {
			n++
		}
		branch(hop, ranks[:n], n > 1 || vc.sess.Node(ranks[0]).Name != hop.To)
		ranks = ranks[n:]
	}
	return local
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
// re-reads the same blocks), then EndPacking emits one stream per branch of
// the root's split.
type mcastPacking struct {
	gen uint32
	blockBuf
	dests []mad.Rank // ascending, deduplicated, root excluded; split in place
	// mtu is the least path MTU over the destinations, so one fragment size
	// fits every subtree — §2.3's connexion-MTU rule extended to trees.
	mtu int
}

// BeginMulticast starts a message to every named destination at once; the
// message is delivered byte-identically to each, replicated inside the
// network by the gateways on its routes rather than by repeated
// unicast sends. Duplicate destinations and the sender itself are ignored;
// at least one other node must remain. Streaming mode only (CanMulticast).
func (e *Endpoint) BeginMulticast(p *vtime.Proc, dests ...string) *Packing {
	px := e.beginMulticast(p, dests)
	return &px
}

// beginMulticast is BeginMulticast but for the handle's address
// (beginPacking).
func (e *Endpoint) beginMulticast(p *vtime.Proc, dests []string) Packing {
	vc := e.vc
	if !vc.CanMulticast() {
		panic("fwd: BeginMulticast requires streaming mode (Reliable is set)")
	}
	ds, mtu := make([]mad.Rank, 0, len(dests)), vc.cfg.MTU
	for _, d := range dests {
		n, ok := vc.nodes[d]
		if !ok {
			panic("fwd: unknown multicast destination " + d)
		}
		if n != e.node {
			ds = append(ds, n.Rank)
			mtu = min(mtu, vc.PathMTU(e.node.Name, d))
		}
	}
	slices.Sort(ds)
	if ds = slices.Compact(ds); len(ds) == 0 {
		panic("fwd: multicast without destinations on " + e.node.Name)
	}
	x := &mcastPacking{blockBuf: vc.buffer(e.node), dests: ds, mtu: mtu}
	x.cost = 0
	vc.hop(p, x.id, e.node.Name, "pack", obs.Detail{Form: "mcast -> ${note}", Note: vc.destsText(ds)}, 0)
	return Packing{x, x.id, &x.gen, x.gen}
}

// end sends the message down every branch of the root's split, one after the
// other. A branch's send parks, so the split works in the message's own
// destination slice, not in channel scratch.
func (x *mcastPacking) end(p *vtime.Proc) {
	root := x.vc.mcastRoot(x.node.Name)
	root.messages.Add(1)
	x.vc.splitByHop(x.node, x.dests, func(hop route.Hop, ranks []mad.Rank, relays bool) {
		x.sendBranch(p, hop, ranks, relays)
		root.branches.Add(1)
	})
}

// sendBranch emits the message once toward one branch: compact when the
// whole payload shares a transfer with the header, streaming otherwise. A
// leaf branch goes straight to its sole destination (hopLink).
func (x *mcastPacking) sendBranch(p *vtime.Proc, hop route.Hop, ranks []mad.Rank, relays bool) {
	vc := x.vc
	tx := streamTx{vc: vc, link: vc.hopLink(x.node, hop, relays), kind: mad.KindMcast}
	tx.open(p, streamHdr{src: x.node.Rank, mtu: x.mtu, id: x.id, dests: ranks})
	vc.flightRing(x.node.Name).Record(flight.KindReplicate, p.Now(), 0, x.id, x.total, hop.Network)
	tx.message(p, x.blks, x.total, nil)
}

// mcastSplit partitions a multicast frame's destination set at this gateway
// (splitByHop): the local flag if the gateway itself is a destination, plus
// one replicated egress branch of the ring — with its rewritten header — per
// next hop. It splits the ring's decoded set in place, which nothing reads
// after it (the relay does not park before the headers are written), and
// each branch header is a wire-pool buffer: the next hop returns one sent
// alone, replicateFrame one it glues.
func (g *Gateway) mcastSplit(r *relayRing, f *relayFrame) (local bool) {
	vc := g.vc
	return vc.splitByHop(g.node, f.dests, func(hop route.Hop, ranks []mad.Rank, relays bool) {
		out := vc.hopLink(g.node, hop, relays)
		hdr := vc.bufs.get(streamHeaderLen(mad.KindMcast, len(ranks)))
		putStreamHeader(hdr, mad.KindMcast, streamHdr{src: f.src, mtu: f.mtu, id: f.id, dests: ranks})
		r.branches = append(r.branches, relayBranch{tx: g.sender(out), hdr: hdr})
	})
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
