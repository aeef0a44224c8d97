package fwd

import (
	"fmt"

	"madgo/internal/flight"
	"madgo/internal/flow"
	"madgo/internal/mad"
	"madgo/internal/obs"
	"madgo/internal/route"
	"madgo/internal/vtime"
	"madgo/internal/vtime/vsync"
)

// Gateway is the forwarding engine running on a node that bridges networks:
// per ingress network a polling thread that becomes the receive thread of
// every message it relays, per egress link a send thread, and between them
// rings of staging slots with pooled buffers (Figure 4). The pipeline is per
// direction, not per message: the receive thread goes back to its
// announcements as soon as a message's last fragment is queued, so the
// receive of message k+1 overlaps the send of message k.
type Gateway struct {
	vc   *VirtualChannel
	node *mad.Node
	name string

	// rings holds the receive-side pipeline state, one per ingress network
	// that has announced a message. Each ring has exactly one relaying
	// daemon, its fair daemon, which receives one message at a time; the
	// slots of a ring may still be on their way out for earlier messages.
	rings map[string]*relayRing

	// listens marks the ingress networks the gateway polls (listen).
	listens map[string]bool

	// senders holds the send threads, one per egress link.
	senders map[*mad.Link]*gwSender

	met gwMetrics

	// Relay statistics with no counter series: messages, and the stalls the
	// {gateway} stall histogram times when a registry is armed.
	messages int64
	stalls   int64

	// eng is the node's reliability engine in reliable mode, which counts
	// its relayed traffic here and its recovery work in its own counters.
	eng *relEngine
}

// relayRing is the receive side of one ingress network's pipeline: the
// arrival scheduler its polling daemon files announcements with, the packet
// slots its receive thread fills and the egress senders give back, the branch
// records of the message in hand, and a scratch header. It lives as long as
// the gateway, so steady-state relays allocate nothing.
//
// The scheduler keeps one deficit-round-robin queue per ingress sender, and
// the ring's fair daemon relays them in DRR order, charging each flow the
// bytes it relayed. First come, first relayed would be message-fair, so a
// backlogged elephant sender would capture a byte share proportional to its
// message size; with one sender the two are the same order.
type relayRing struct {
	drr        *flow.DRR[mad.Arrival] // the fair daemon, its one consumer, parks in Next
	lastRounds int64

	free  *vsync.Chan[*relaySlot]
	slots []relaySlot // PipelineDepth of them, each either in free or in flight

	hdr [stripeHeaderLen]byte // GTM/stripe header scratch, one receive at a time

	// branches are the egress branches of the message in hand; the array
	// grows to the widest fan-out the ring has served. hdrDests are the
	// destinations of the multicast header in hand, decoded, which
	// mcastSplit sorts by next hop.
	branches []relayBranch
	hdrDests []mad.Rank
}

// relaySlot is one staged ingress fragment, the unit handed from the receive
// thread to the egress senders. The ring owns PipelineDepth of them, and a
// slot outlives the relay of its message: it carries everything its release
// needs.
//
// Ownership: the receive thread takes a slot off the ring's free list, fills
// it with a buffer of the class the message's buffer election names — taken
// and received into, or the ingress slot handed over —, sets refs to the
// branch count and queues it on every branch's sender.
// Each sender decrements refs after its send and swap; the one that reaches
// zero recycles the slot — returns the buffers to their classes, puts the slot
// back on the free list — so a slot is recycled exactly once however many
// branches it fed.
type relaySlot struct {
	ring *relayRing
	pool bufPool // where buf came from and goes back to
	buf  []byte  // staging buffer backing the slot
	data []byte
	aux  []byte // copy-always staging buffer from the wire pool, released with the slot
	refs int    // branch sends still owing
}

// bufPool is a class of the virtual channel's pool: its own memory, or an
// egress driver's static buffers on the gateway's host.
type bufPool interface {
	Get(n int) []byte
	Put(b []byte)
}

// relayBranch is one egress decision the relay made for the message in
// hand: the link's sender, whose enqueue right the relay holds until the
// message's last fragment is queued. Unicast is the one-branch case.
type relayBranch struct {
	tx *gwSender
	// hdr is the rewritten destination-set header of a replicated
	// (multicast) branch, a wire-pool buffer (mcastSplit); nil on the unicast
	// branch, which re-emits the first transfer unchanged (see replicated).
	hdr []byte
}

// replicated reports whether the branch belongs to a multicast fan-out. A
// replicated branch opens with its own header, and its sends are counted and
// recorded as replication.
func (b *relayBranch) replicated() bool { return b.hdr != nil }

func newGateway(vc *VirtualChannel, node *mad.Node) *Gateway {
	g := &Gateway{vc: vc, node: node, name: node.Name,
		rings: make(map[string]*relayRing), listens: make(map[string]bool),
		senders: make(map[*mad.Link]*gwSender)}
	vc.sess.Platform.Instrument(g)
	return g
}

// gwMetrics are one gateway's counts and histogram handles: branches and local
// labelled {node}, the rest {gateway}.
type gwMetrics struct {
	packets, bytes, rounds          obs.Counter // relayed ingress transfers, DRR rounds
	swap, stall                     *obs.Histogram
	mcastRelays, branches, local    obs.Counter
	replicatedPkts, replicatedBytes obs.Counter
}

// BindMetrics binds the gateway's metrics in m.
func (g *Gateway) BindMetrics(m *obs.Registry) {
	gw, node, c := obs.Labels{"gateway": g.name}, obs.Labels{"node": g.name}, &g.met
	m.BindCounter(&c.packets, "madgo_gateway_relayed_packets_total", gw)
	m.BindCounter(&c.bytes, "madgo_gateway_relayed_bytes_total", gw)
	m.BindCounter(&c.rounds, "madgo_flow_sched_rounds_total", gw)
	c.swap = m.BindHistogram("madgo_gateway_swap_seconds", gw)
	c.stall = m.BindHistogram("madgo_gateway_stall_seconds", gw)
	m.BindCounter(&c.mcastRelays, "madgo_mcast_relays_total", gw)
	m.BindCounter(&c.branches, "madgo_mcast_branches_total", node)
	m.BindCounter(&c.local, "madgo_mcast_local_deliveries_total", node)
	m.BindCounter(&c.replicatedPkts, "madgo_mcast_replicated_packets_total", gw)
	m.BindCounter(&c.replicatedBytes, "madgo_mcast_replicated_bytes_total", gw)
}

// gwTx is one transfer queued on an egress link's sender, and what to
// recycle after it. The first transfer of a message (a whole frame, or the
// header of a longer one) carries SOM, the last one EOM; a bare terminator is
// the EOM transfer with no data.
type gwTx struct {
	meta  mad.TxMeta
	data  []byte
	msgID uint64
	// slot is the staged fragment data lives in: its send is traced and
	// followed by a buffer swap, and the sender drops its reference. Nil for
	// memory the gateway hands on (a driver slot, a header's wire-pool
	// buffer, a replicated frame).
	slot *relaySlot
	// replicated: the transfer feeds one branch of a multicast fan-out.
	replicated bool
}

// gwSender is the send thread of one egress link: a daemon draining one
// bounded FIFO of transfers, whatever message, ingress ring or framing they
// belong to. It takes the link at a message's first transfer and gives it
// back after the last, so everything the gateway puts on a link leaves in
// the order it was queued: a whole frame is never overtaken by a message
// received after it, and the send of message k overlaps the receive of
// message k+1 — the relay thread never waits for a send unless the queue, or
// its ring, is full (§2.2.2: "one thread receives packet k+1 while the other
// retransmits packet k", per direction). The queue holds PipelineDepth
// transfers, so at most that many whole frames buffer in the gateway before
// backpressure reaches the ingress side again; staged fragments are bounded
// by their rings.
type gwSender struct {
	out *mad.Link
	q   *vsync.Chan[gwTx]
	// enq is the right to queue: a relay holds it from a message's first
	// transfer to its last, so two ingress rings never interleave messages
	// on one link.
	enq    vsync.Mutex
	outNet string
}

// sendThread is the loop of every send thread, the gateway's egress senders
// and the reliable engine's send daemons alike: it hands
// what q holds to send, one at a time and in order, and returns once q is
// closed and drained. A bounded q stalls its producers while the thread is
// busy, an unbounded one (vsync.Unbounded) never does.
func sendThread[T any](p *vtime.Proc, q *vsync.Chan[T], send func(*vtime.Proc, T)) {
	for v, ok := q.Recv(p); ok; v, ok = q.Recv(p) {
		send(p, v)
	}
}

// sender returns (creating, with its daemon) the sender of one egress link.
func (g *Gateway) sender(out *mad.Link) *gwSender {
	if e, ok := g.senders[out]; ok {
		return e
	}
	name := fmt.Sprintf("gwtx:%s>%s", g.name, out.Dst.Name)
	depth := g.vc.cfg.PipelineDepth
	outNet := out.Channel.Network().Name
	e := &gwSender{out: out, q: vsync.NewChan[gwTx](name, depth), outNet: outNet}
	g.senders[out] = e
	g.vc.sess.Platform.Sim.SpawnDaemon(name, func(sp *vtime.Proc) {
		sendThread(sp, e.q, func(sp *vtime.Proc, tx gwTx) { g.egress(sp, e, tx) })
	})
	return e
}

// egress is the send thread's send: it puts one queued transfer on the link,
// and a buffer swap after a staged fragment. Its flight events carry
// TagSend, the thread's half of the pipeline lanes.
func (g *Gateway) egress(sp *vtime.Proc, e *gwSender, tx gwTx) {
	vc := g.vc
	m := &g.met
	if tx.meta.SOM {
		e.out.Acquire(sp)
	}
	t0 := sp.Now()
	e.out.Send(sp, tx.meta, tx.data)
	if s := tx.slot; s != nil {
		fr, n := vc.flightRing(g.name), len(tx.data)
		kind := flight.KindSend
		if tx.replicated {
			kind = flight.KindReplicate
			m.replicatedPkts.Add(1)
			m.replicatedBytes.Add(int64(n))
		}
		fr.RecordTag(kind, flight.TagSend, sp.Now(), vtime.Since(sp.Now(), t0), tx.msgID, n, e.outNet)
		t0 = sp.Now()
		sp.Sleep(g.node.Host.CPU.SwapOverhead)
		m.swap.ObserveDuration(vtime.Since(sp.Now(), t0))
		fr.RecordTag(flight.KindSwap, flight.TagSend, sp.Now(), vtime.Since(sp.Now(), t0), tx.msgID, 0, e.outNet)
		s.refs--
		if s.refs == 0 {
			g.recycle(sp, s)
		}
	}
	if tx.meta.EOM {
		e.out.Release(sp)
	}
}

// ring makes the pipeline ring of one ingress network, with its fair daemon,
// when the network announces its first message. It holds PipelineDepth
// packet slots, stocked once: the receive thread can run at most depth
// packets ahead of the slowest egress sender, across messages as within one.
func (g *Gateway) ring(inNet string) *relayRing {
	depth := g.vc.cfg.PipelineDepth
	r := &relayRing{
		drr:   flow.NewDRR[mad.Arrival](int64(g.vc.cfg.MTU)),
		free:  vsync.NewChan[*relaySlot](fmt.Sprintf("gwfree:%s:%s", g.name, inNet), depth),
		slots: make([]relaySlot, depth),
	}
	for i := range r.slots {
		r.slots[i].ring = r
		r.free.TrySend(&r.slots[i])
	}
	g.rings[inNet] = r
	g.vc.sess.Platform.Sim.SpawnDaemon(fmt.Sprintf("gwfair:%s:%s", g.name, inNet), func(p *vtime.Proc) { g.fair(p, r) })
	return r
}

// listen spawns the gateway's polling thread on one network's special
// channel, once, making the channel if no route has needed it yet. The thread
// files every announcement with the network's ring (ring makes it on the
// first), in its ingress sender's queue: announcements are cheap, the data
// transfer happens when the fair daemon relays the message.
func (g *Gateway) listen(nwName string) {
	if g.listens[nwName] {
		return
	}
	g.listens[nwName] = true
	vc := g.vc
	spc := vc.special[nwName]
	if spc == nil {
		nw, _ := vc.tp.Network(nwName)
		spc = vc.newChannel("spc:", nw)
		vc.special[nwName] = spc
	}
	ep := spc.At(g.node)
	vc.sess.Platform.Sim.SpawnDaemon(fmt.Sprintf("gwpoll:%s:%s", g.name, nwName), func(p *vtime.Proc) {
		var r *relayRing
		for {
			a := ep.NextArrival(p)
			if framingOf(a.Kind()) == nil {
				panic("fwd: non-GTM message on special channel " + spc.Name)
			}
			if r == nil {
				r = g.ring(nwName)
			}
			r.drr.Push(a.Link.Src.Name, a)
		}
	})
}

// fair is a ring's fair daemon: it relays the ring's announcements one
// message at a time in DRR order.
func (g *Gateway) fair(p *vtime.Proc, r *relayRing) {
	burst := func(a mad.Arrival) bool { return framingOf(a.Kind()).burst }
	for {
		// A suspended visit goes first (Next): relay returns when a message's
		// last fragment is queued, and where that does not wait for the egress
		// side (ingress no faster than egress) a closed-loop sender's next
		// announcement lands a few microseconds later: a flow of sub-quantum
		// messages would get one message a round where a backlogged one gets
		// a quantum's worth.
		key, a := r.drr.Next(p, burst)
		r.drr.Charge(key, g.relay(p, r, a))
		// Classic DRR serves a flow until its deficit runs out, not one item
		// per visit: a flow whose messages are smaller than the quantum could
		// otherwise never use its full byte share (the cap on banked deficit
		// forfeits the remainder), handing large-message flows a permanent
		// rate advantage. Which kinds extend a visit is framing.burst.
		for burst(a) && r.drr.Deficit(key) >= 0 {
			var ok bool
			if a, ok = r.drr.PopFrom(key, burst); !ok {
				r.drr.Suspend(key)
				break
			}
			r.drr.Charge(key, g.relay(p, r, a))
		}
		if n := r.drr.Rounds(); n > r.lastRounds {
			g.met.rounds.Add(n - r.lastRounds)
			r.lastRounds = n
		}
	}
}

// Messages returns the number of messages this gateway relayed.
func (g *Gateway) Messages() int64 { return g.messages }

// Packets returns the number of packets this gateway relayed.
func (g *Gateway) Packets() int64 { return g.met.packets.Count() }

// Bytes returns the payload bytes this gateway relayed.
func (g *Gateway) Bytes() int64 { return g.met.bytes.Count() }

// Stalls returns how many times a receive thread of this gateway had to
// wait for its egress side — for a free staging slot, or for room in an
// egress sender's queue — the pipeline bubbles a deeper ring eliminates.
// Always zero in reliable mode.
func (g *Gateway) Stalls() int64 { return g.stalls }

// Retransmits returns the number of per-hop packet retransmissions this
// gateway's node performed.
func (g *Gateway) Retransmits() int64 { return g.relCount(relRetransmits) }

// Failovers returns how many times this gateway's node presumed a neighbour
// dead and rerouted around it.
func (g *Gateway) Failovers() int64 { return g.relCount(relFailovers) }

// relCount reads one of the node's reliability counters: always zero in
// streaming mode, which has no engine, and on fault-free reliable runs.
func (g *Gateway) relCount(i int) int64 {
	if g.eng == nil {
		return 0
	}
	return g.eng.counters[i].Count()
}

// FlowStats counts the relay schedulers every gateway runs.
type FlowStats struct {
	// Accounts, CreditsGranted, CreditsSpent, Stalls and StallTime are
	// always zero: gateways keep no credit accounts. No JSON prints them.
	Accounts                     int            `json:"-"` // benchmark/ only: ROADMAP 8
	CreditsGranted, CreditsSpent int64          `json:"-"` // benchmark/ only: ROADMAP 8
	Stalls                       int64          `json:"-"` // benchmark/ only: ROADMAP 8
	StallTime                    vtime.Duration `json:"-"` // benchmark/ only: ROADMAP 8
	// SchedRounds is how many full deficit-round-robin passes the streaming
	// gateways' fair daemons and the reliable engines' relay daemons
	// completed.
	SchedRounds int64
	// Backpressure counts reliable-mode relay admissions refused because
	// the relay queue was full, and completing fragments refused because the
	// application left its arrival queue full (the upstream ARQ retransmits —
	// no loss).
	Backpressure int64
}

// FlowStats returns the relay schedulers' counters, summed over every
// gateway and reliable engine.
func (vc *VirtualChannel) FlowStats() FlowStats {
	var s FlowStats
	for _, g := range vc.gates {
		for _, r := range g.rings {
			s.SchedRounds += r.drr.Rounds()
		}
	}
	for _, e := range vc.rel {
		s.SchedRounds += e.relayDRR.Rounds()
	}
	s.Backpressure = vc.relCount(relBackpressure)
	return s
}

// Gateway returns the engine running on the named node (tests and tools).
func (vc *VirtualChannel) Gateway(name string) *Gateway {
	gw, ok := vc.gates[name]
	if !ok {
		panic("fwd: no gateway on " + name)
	}
	return gw
}

// GatewayOK returns the engine running on the named node, or ok=false when
// the node runs none.
func (vc *VirtualChannel) GatewayOK(name string) (*Gateway, bool) {
	gw, ok := vc.gates[name]
	return gw, ok
}

// hopLink returns the link a node sends on toward one next hop of a route
// or multicast branch — "the right solution" of §2.2.2: the regular
// channel when the hop ends at the message's final destination, the
// network's special channel when the next node relays further.
func (vc *VirtualChannel) hopLink(from *mad.Node, hop route.Hop, relays bool) *mad.Link {
	ch := vc.regular[hop.Network]
	if relays {
		ch = vc.special[hop.Network]
		if ch == nil {
			panic("fwd: next-gateway hop without special channel on " + hop.Network)
		}
	}
	return ch.Link(from.Rank, vc.NodeRank(hop.To))
}

// relayFrame is what the relay learned from the first transfer of the
// message in hand: the per-frame context classify builds and route and emit
// read.
type relayFrame struct {
	kind       mad.Kind
	streamOpen // the first transfer and what it says: routing fields, header length, the payload's share
}

// classify receives the first transfer of an announced message and decodes
// its self-description, by the same two calls as the final receiver: a
// fixed-length header lands in the ring's scratch, a compact frame or a
// destination-set header is taken as a driver-slot handoff. The gateway reads
// the routing fields and re-emits everything else unchanged: it stays
// oblivious to the striping schedule of a rail (whose header extends the GTM
// one) and to whether a compact frame's payload is one small message or an
// aggregate of many. A fixed-length header leaves in the wire-pool buffer it
// arrived in, which the copy into scratch emptied: the frame's head is that
// buffer, not the scratch the ring's next message overwrites.
func (g *Gateway) classify(p *vtime.Proc, r *relayRing, a mad.Arrival) relayFrame {
	f := relayFrame{kind: a.Kind()}
	meta, head, spent := recvFirst(p, a.Link, f.kind, r.hdr[:])
	var ok bool
	if f.streamOpen, ok = parseStream(f.kind, meta, head, r.hdrDests); !ok {
		panic(fmt.Sprintf("fwd: malformed %v header at gateway %s", f.kind, g.name))
	}
	if spent != nil {
		f.head = spent
	}
	return f
}

// route turns the frame's destination into the ring's egress branches —
// one, from the routing table's next hop, for the unicast kinds; the
// destination set re-partitioned by next hop (mcastSplit) for multicast —
// and reports whether this node is itself a destination. A multicast header
// that travelled alone goes back to the pool here: every branch has its own.
func (g *Gateway) route(p *vtime.Proc, r *relayRing, f *relayFrame, inNet string) (branches []relayBranch, local bool) {
	vc := g.vc
	r.branches = r.branches[:0]
	if f.kind == mad.KindMcast {
		r.hdrDests = f.dests
		local = g.mcastSplit(r, f)
		if !f.meta.EOM {
			vc.bufs.Put(f.head)
		}
		g.met.mcastRelays.Add(1)
		g.met.branches.Add(int64(len(r.branches)))
		vc.hop(p, f.id, g.name, "relay",
			obs.Detail{Form: "mcast ${net} -> ${a} branches (${b} dests)", Net: inNet, A: len(r.branches), B: len(f.dests)}, 0)
		return r.branches, local
	}
	dstName := vc.sess.Node(f.dst).Name
	hop, ok := vc.tbl.NextHop(g.name, dstName)
	if !ok {
		panic(fmt.Sprintf("fwd: gateway %s has no route to %s", g.name, dstName))
	}
	vc.hop(p, f.id, g.name, "relay", obs.Detail{Form: "${note} -> ${peer} via ${net}", Note: inNet, Peer: hop.To, Net: hop.Network}, 0)
	r.branches = append(r.branches, relayBranch{tx: g.sender(vc.hopLink(g.node, hop, hop.To != dstName))})
	return r.branches, false
}

// relay receives one announced message and queues it for egress, the
// gateway's one loop whatever the frame kind and however many ways the
// message fans out:
//
//	classify  read the self-description off the first transfer
//	route     egress branches from the routing table, plus local delivery
//	emit      queue the first transfer — a whole frame, or the header of a
//	          longer message — on each branch's sender, then run the receive
//	          side of the pipeline over the rest
//
// It returns when the last ingress transfer is queued, not when it is sent:
// the senders finish the message while this thread receives the next one. It
// returns the ingress payload bytes relayed — independent of the branch
// count — which the fair daemon charges against the ingress sender's deficit.
func (g *Gateway) relay(p *vtime.Proc, r *relayRing, a mad.Arrival) int64 {
	vc := g.vc
	in := a.Link
	in.AcquireRecv(p)
	defer in.ReleaseRecv(p)
	bytesBefore := g.met.bytes.Count()
	inNet := in.Channel.Network().Name

	f := g.classify(p, r, a)
	branches, local := g.route(p, r, &f, inNet)
	g.messages++
	// Payload that rode along with the header is relayed ingress payload
	// like any pipelined packet.
	if n := len(f.payload); n > 0 {
		g.met.packets.Add(1)
		g.met.bytes.Add(int64(n))
	}

	for _, b := range branches {
		b.tx.enq.Lock(p)
	}
	for _, b := range branches {
		// The unicast branch re-emits the first transfer unchanged; a
		// replicated one opens with its own header, glued to the payload when
		// the first transfer was the whole message. Either is memory this
		// gateway never writes again — the driver slot or header buffer it
		// received, a branch's own header or frame — and is handed on.
		meta := mad.TxMeta{SOM: true, EOM: f.meta.EOM, Kind: f.kind, Blocks: f.meta.Blocks, Owned: true}
		first := f.head
		switch {
		case b.replicated() && f.meta.EOM:
			meta.Blocks, first = g.replicateFrame(p, &f, &b, f.payload)
		case b.replicated():
			meta.Blocks, first = vc.mcastst.hdrDesc(len(b.hdr)), b.hdr
		}
		b.tx.q.Send(p, gwTx{meta: meta, data: first, msgID: f.id})
	}
	var capture *heldMsg // what this gateway holds for its node, a destination too
	if local {
		capture = vc.hold(f.src, f.mtu, f.id)
	}
	switch {
	case !f.meta.EOM:
		g.pipeline(p, r, in, &f, branches, capture)
	case f.kind == mad.KindMcast:
		// A compact frame, whose one receiver this gateway is, as every branch
		// sends a copy: the capture keeps its buffer, if any, its pair goes back.
		if local {
			capture.park(f.head, f.payload, f.descs)
		} else {
			vc.bufs.Put(f.head)
		}
		vc.bufs.PutPair(f.meta.Blocks)
	}
	for _, b := range branches {
		b.tx.enq.Unlock(p)
	}
	if local {
		// Through the node's merged arrival queue, which wakes a
		// BeginUnpacking blocked there like any other arrival.
		g.met.local.Add(1)
		vc.merged[g.node.Rank].Send(p, incoming{held: capture})
	}
	return g.met.bytes.Count() - bytesBefore
}

// pipeline is the receive side of the paper's packet-forwarding pipeline
// (Figure 5): the polling thread becomes the receive thread, the egress
// links' senders retransmit, and PipelineDepth packet slots rotate between
// them. Each buffer switch costs the host's software overhead (§3.3.1
// measures ≈40 µs). A fragment is received once whatever the branch count;
// the slot's reference count (relaySlot) bounds how far ingress runs ahead
// of the slowest branch. It copies each fragment into capture, when this node
// is itself a destination of the message.
//
// Buffer election (§2.3), for a message leaving this gateway on one branch:
//   - egress static (and zero-copy on): buffers come from the egress
//     driver's static class of the pool, packets land in them directly, and
//     are sent in place;
//   - ingress static, egress dynamic: packets are taken as driver-slot
//     handoffs and sent straight from the ingress slot, a landing slot of the
//     pool that is recycled like a staging buffer;
//   - both static: the posted receive falls back to a real copy out of the
//     ingress slot — the unavoidable one;
//   - both dynamic: packets land in plain pipeline buffers with no copy.
//
// A message fanning out on several branches uses plain pipeline buffers
// whatever the drivers: its fragments leave on several links at once, so no
// single egress driver's static buffers (nor the one ingress slot) can back
// them.
//
// Buffers come from the pool (vc.bufs), not the allocator: a slot holds one
// for each fragment and its release gives it back, so once the pool holds a
// ring's worth a relay allocates nothing. When the receive thread has to
// wait for a free slot — the send side is the bottleneck and every buffer is
// in flight, for this message or an earlier one — the wait is recorded as a
// KindStall flight event, which the receive lane (package trace) shows as a
// "stall" span and trace.Log.Lanes accounts to its stall fraction; the
// deeper the ring, the fewer such bubbles. The receive thread's events carry
// TagRecv.
func (g *Gateway) pipeline(p *vtime.Proc, r *relayRing, in *mad.Link, f *relayFrame, branches []relayBranch, capture *heldMsg) {
	vc := g.vc
	cfg := vc.cfg
	m := &g.met
	fr := vc.flightRing(g.name)
	host := g.node.Host
	inNet := in.Channel.Network().Name
	msgID := f.id

	// The message's buffer election: the class its slots' buffers belong
	// to, and whether they are the ingress slots handed over.
	var pool bufPool = &vc.bufs
	handOff := false
	if len(branches) == 1 && cfg.ZeroCopy {
		if out := branches[0].tx.out; out.NIC().StaticBuffers {
			pool = vc.bufs.Static(out.Channel.Driver(), host)
		} else {
			handOff = in.NIC().StaticBuffers
		}
	}
	// stalled records a pipeline bubble: the egress side is the bottleneck —
	// every staging buffer in flight, or a sender's queue full — and the
	// receive thread has waited for it since t0.
	stalled := func(t0 vtime.Time) {
		if wait := vtime.Since(p.Now(), t0); wait > 0 {
			g.stalls++
			m.stall.ObserveDuration(wait)
			fr.RecordTag(flight.KindStall, flight.TagRecv, p.Now(), wait, msgID, 0, inNet)
		}
	}

	var lastRecvStart vtime.Time
	first := true
	for {
		t0 := p.Now()
		s, _ := r.free.Recv(p)
		stalled(t0)
		// Incoming-flow regulation (the paper's proposed future work):
		// space receive starts to at most InflowLimit bytes/s.
		if cfg.InflowLimit > 0 && !first {
			minPeriod := vtime.DurationOfBytes(int64(f.mtu), cfg.InflowLimit)
			if elapsed := p.Now().Sub(lastRecvStart); elapsed < minPeriod {
				p.Sleep(minPeriod - elapsed)
			}
		}
		lastRecvStart = p.Now()
		first = false

		t0 = p.Now()
		var meta mad.TxMeta
		s.pool = pool
		if handOff {
			meta, s.buf = in.Recv(p)
			s.data = s.buf
		} else {
			s.buf = pool.Get(f.mtu)
			var n int
			meta, n = in.RecvInto(p, s.buf)
			s.data = s.buf[:n]
		}
		if len(meta.Blocks) == 0 {
			if !framingOf(f.kind).bracketed {
				panic(fmt.Sprintf("fwd: protocol error: bare terminator on a %v stream at %s", f.kind, g.name))
			}
			t0 = p.Now()
			for _, b := range branches {
				b.tx.q.Send(p, gwTx{meta: mad.TxMeta{Kind: f.kind, EOM: true}, msgID: msgID})
			}
			stalled(t0)
			// The slot taken for the terminator goes to no sender.
			g.recycle(p, s)
			return
		}
		if !cfg.ZeroCopy {
			// Copy-always ablation: stage through an extra buffer like a
			// forwarding layer naively placed above Madeleine would.
			s.aux = vc.bufs.Get(len(s.data))
			host.Memcpy(p, len(s.data))
			copy(s.aux, s.data)
			s.data = s.aux
		}
		n := len(s.data)
		fr.RecordTag(flight.KindRecv, flight.TagRecv, p.Now(), vtime.Since(p.Now(), t0), msgID, n, inNet)
		m.packets.Add(1)
		m.bytes.Add(int64(n))
		t0 = p.Now()
		p.Sleep(host.CPU.SwapOverhead)
		m.swap.ObserveDuration(vtime.Since(p.Now(), t0))
		fr.RecordTag(flight.KindSwap, flight.TagRecv, p.Now(), vtime.Since(p.Now(), t0), msgID, 0, inNet)
		if capture != nil {
			// The slot is recycled by the branch senders; the local copy, a
			// buffer the capture returns, is the gateway-member's delivery cost.
			host.Memcpy(p, n)
			own := vc.bufs.Get(n)
			copy(own, s.data)
			capture.park(own, own, meta.Blocks[:1])
		}
		s.refs = len(branches)
		t0 = p.Now()
		for _, b := range branches {
			descs := meta.Blocks
			if b.replicated() {
				descs = append(vc.bufs.GetPair(1), descs...)
			}
			b.tx.q.Send(p, gwTx{meta: mad.TxMeta{Kind: f.kind, EOM: meta.EOM, Blocks: descs},
				data: s.data, msgID: msgID, slot: s, replicated: b.replicated()})
		}
		if f.kind == mad.KindMcast {
			vc.bufs.PutPair(meta.Blocks) // every branch sends a copy of its own
		}
		stalled(t0)
		if len(branches) == 0 {
			// A frame whose every remaining destination is this node. The
			// planner never emits one (a lone local destination travels the
			// regular channel), but a recycled slot keeps even that shape
			// live.
			g.recycle(p, s)
		}
		if meta.EOM {
			return
		}
	}
}

// recycle returns a slot nobody refers to any more to its ring's free list
// and its buffers to their pools: the ingress transfer behind it has fully
// drained through egress.
func (g *Gateway) recycle(p *vtime.Proc, s *relaySlot) {
	g.vc.bufs.Put(s.aux)
	s.pool.Put(s.buf)
	s.buf, s.aux, s.data = nil, nil, nil
	s.ring.free.Send(p, s)
}
