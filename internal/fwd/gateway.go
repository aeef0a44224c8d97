package fwd

import (
	"fmt"

	"madgo/internal/flight"
	"madgo/internal/flow"
	"madgo/internal/hw"
	"madgo/internal/mad"
	"madgo/internal/obs"
	"madgo/internal/route"
	"madgo/internal/vtime"
	"madgo/internal/vtime/vsync"
)

// Gateway is the forwarding engine running on a node that bridges networks:
// one polling thread per special channel, and for every relayed message a
// receive/retransmit pipeline over a ring of pooled staging buffers
// (Figure 4).
type Gateway struct {
	vc   *VirtualChannel
	node *mad.Node
	name string

	// rings holds the persistent pipeline state, one per ingress network.
	// Each ingress network has exactly one relaying daemon (the polling
	// daemon itself, or the fair-scheduling daemon in flow-control mode)
	// and relay() forwards messages to completion before returning to it,
	// so a ring is only ever used by one message at a time.
	rings map[string]*relayRing

	// scheds holds the flow-mode arrival schedulers, one per ingress
	// network; empty unless Config.FlowControl is set.
	scheds map[string]*gwSched

	// txq holds the per-egress-link asynchronous senders for whole frames
	// (a message that arrived in one transfer: compact eager, aggregate or
	// compact multicast), so the polling thread can go back to posting
	// ingress receives while a frame is still streaming out.
	txq map[*mad.Link]*gwEgress

	met gwMetrics

	// Relay statistics with no counter series: messages, and the stalls the
	// {gateway} stall histogram times when a registry is armed.
	messages int64
	stalls   int64

	// eng is the node's reliability engine in reliable mode; the stat
	// accessors read from it instead of the streaming counters.
	eng *relEngine
}

// relayRing is the reusable pipeline state of one ingress network: the
// packet slots the receive thread and the branch senders rotate, the
// staging-buffer free lists the slots are stocked from, the branch records
// with their queues, and a scratch header. Keeping it across messages makes
// steady-state relays allocation-free.
type relayRing struct {
	free  *vsync.Chan[*relaySlot]
	slots []relaySlot // PipelineDepth of them, each either in free or in flight

	pool   *bufPool            // dynamic staging buffers
	stage  *bufPool            // copy-always ablation staging buffers
	static map[string]*bufPool // per-egress-network driver static buffers

	hdr [stripeHeaderLen]byte // GTM/stripe header scratch, one relay at a time

	// branches are the egress branch records, reused from message to
	// message; the list grows to the widest fan-out the ring has served.
	branches []*relayBranch

	// Names the pipeline would otherwise format for every relayed message:
	// the receive thread's trace actor, and per egress network the send
	// thread's.
	recvActor string
	senders   map[string]relaySender
}

// relaySender names the send thread a ring spawns toward one egress network.
type relaySender struct {
	actor string // trace actor, "<gateway>:send:<net>"
	proc  string // process name, "gwsend:<gateway>:<net>"
}

// relaySlot is one staged ingress fragment, the unit handed from the receive
// thread to the branch senders. The ring owns PipelineDepth of them.
//
// Ownership: the receive thread takes a slot off the ring's free list, fills
// it, sets refs to the branch count and queues it on every branch. Each
// branch sender decrements refs after its send and swap; the one that
// reaches zero recycles the slot — releases aux, puts the slot back on the
// free list — and returns the ingress transfer's flow credit upstream, so a
// slot is recycled and its credit granted exactly once however many
// branches it fed.
type relaySlot struct {
	buf  []byte // staging buffer backing the slot (nil when data rides the ingress slot)
	data []byte
	desc []mad.BlockDesc
	aux  []byte // pooled copy-always staging buffer, released with the slot
	eom  bool
	refs int // branch sends still owing
}

// relayBranch is one egress decision the relay made for the message in
// hand: the link, the downstream gateway credits are spent toward, and the
// queue its sender drains. Unicast is the one-branch case.
type relayBranch struct {
	out    *mad.Link
	nextGW string // non-empty when the next hop relays further and takes flow credits
	// hdr is the rewritten destination-set header of a replicated
	// (multicast) branch; nil on the unicast branch, whose header the relay
	// thread re-emits unchanged (see replicated).
	hdr []byte

	// What the send thread needs of the message in hand; the pipeline sets
	// them before it spawns the thread.
	kind  mad.Kind
	msgID uint64
	up    string // the ingress sender, whose flow credits a recycled slot returns

	names relaySender
	q     *vsync.Chan[*relaySlot] // staged fragments awaiting this branch; nil is the bare terminator
	send  func(*vtime.Proc)       // branchSend on this record, bound once: spawning the send thread allocates no closure
	proc  *vtime.Proc
}

// replicated reports whether the branch belongs to a multicast fan-out. A
// replicated branch's sender takes the egress link and emits the branch's
// own header, so slow branches do not hold up the header of fast ones, and
// its sends are counted and recorded as replication; the unicast branch's
// link is taken and its header re-emitted by the relay thread before the
// first ingress receive (§2.2.2).
func (b *relayBranch) replicated() bool { return b.hdr != nil }

func newGateway(vc *VirtualChannel, node *mad.Node) *Gateway {
	g := &Gateway{vc: vc, node: node, name: node.Name,
		rings: make(map[string]*relayRing), scheds: make(map[string]*gwSched),
		txq: make(map[*mad.Link]*gwEgress)}
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

// gwEgressTx is one whole frame queued for asynchronous retransmission on an
// egress link.
type gwEgressTx struct {
	meta   mad.TxMeta
	data   []byte
	msgID  uint64
	nextGW string
}

// gwEgress decouples a gateway's egress send from its ingress receive at
// whole-frame grain — the store-and-forward analogue of the packet
// pipeline's double buffering. A single-transfer compact frame is fully in
// gateway memory when the relay sees it, so nothing forces the polling
// thread to sit through the outbound transmission: it hands the frame to
// this per-egress-link daemon and immediately posts the next ingress
// receive. Without the handoff, a post-gated upstream (SCI) cannot even
// start streaming frame k+1 until the gateway finishes sending frame k, and
// the two transfer times serialise per frame. The queue depth is
// PipelineDepth, so at most that many frames buffer in the gateway before
// backpressure reaches the ingress side again.
type gwEgress struct {
	q        *vsync.Chan[gwEgressTx]
	inflight int
	idle     []*vtime.Waker
}

// egress returns (creating, with its sender daemon) the asynchronous sender
// of one egress link.
func (g *Gateway) egress(out *mad.Link) *gwEgress {
	if e, ok := g.txq[out]; ok {
		return e
	}
	e := &gwEgress{q: vsync.NewChan[gwEgressTx](
		fmt.Sprintf("gwtx:%s>%s", g.name, out.Dst.Name), g.vc.cfg.PipelineDepth)}
	g.txq[out] = e
	g.vc.sess.Platform.Sim.SpawnDaemon(fmt.Sprintf("gwtx:%s>%s", g.name, out.Dst.Name),
		func(p *vtime.Proc) {
			for {
				tx, ok := e.q.Recv(p)
				if !ok {
					return
				}
				out.Acquire(p)
				if tx.nextGW != "" {
					g.vc.flowSpend(p, tx.nextGW, g.name, tx.msgID)
				}
				out.Send(p, tx.meta, tx.data)
				out.Release(p)
				e.inflight--
				if e.inflight == 0 {
					for _, w := range e.idle {
						w.Wake()
					}
					e.idle = nil
				}
			}
		})
	return e
}

// sendEgress queues one frame on the egress daemon (blocking only when
// PipelineDepth frames are already buffered).
func (g *Gateway) sendEgress(p *vtime.Proc, out *mad.Link, tx gwEgressTx) {
	e := g.egress(out)
	e.inflight++
	e.q.Send(p, tx)
}

// fenceEgress blocks until every asynchronously queued frame on the link
// has been fully sent. Streaming relays (a header and pipelined packets)
// call it before acquiring the link, so a queued frame can never be
// overtaken by a message the gateway received after it.
func (g *Gateway) fenceEgress(p *vtime.Proc, out *mad.Link) {
	e, ok := g.txq[out]
	if !ok {
		return
	}
	for e.inflight > 0 {
		w := new(vtime.Waker)
		p.InitBlocker(w, "gw egress fence", g.name)
		e.idle = append(e.idle, w)
		w.Wait()
	}
}

// gwSched is the flow-control arrival scheduler of one ingress network. The
// polling daemon classifies announcements per ingress sender into the
// deficit-round-robin queues and the fair-relay daemon serves them in DRR
// order — replacing the baseline's FIFO "whoever announced first relays
// next" token grab, under which a backlogged elephant sender captures a
// byte share proportional to its message size.
type gwSched struct {
	drr        *flow.DRR[mad.Arrival]
	pending    *vsync.Sem // counts queued announcements; wakes the fair daemon
	lastRounds int64
}

// ring returns (creating on first use) the pipeline ring of one ingress
// network. It holds PipelineDepth packet slots: the ring can hold at most
// one full rotation, so the receive thread can run at most depth packets
// ahead of the slowest branch sender.
func (g *Gateway) ring(inNet string) *relayRing {
	if r, ok := g.rings[inNet]; ok {
		return r
	}
	depth := g.vc.cfg.PipelineDepth
	r := &relayRing{
		free:   vsync.NewChan[*relaySlot](fmt.Sprintf("gwfree:%s:%s", g.name, inNet), depth),
		slots:  make([]relaySlot, depth),
		pool:   newBufPool(nil),
		stage:  newBufPool(nil),
		static: make(map[string]*bufPool),

		recvActor: fmt.Sprintf("%s:recv:%s", g.name, inNet),
		senders:   make(map[string]relaySender),
	}
	g.rings[inNet] = r
	return r
}

// branch returns the ring's i-th branch record reset for a new message
// toward out, creating the record and its queue the first time a message
// fans out that wide. A queue is as deep as the ring, so queueing a slot
// never blocks on a branch that keeps up.
func (g *Gateway) branch(r *relayRing, i int, out *mad.Link, nextGW string, hdr []byte) {
	if i == len(r.branches) {
		b := &relayBranch{
			q: vsync.NewChan[*relaySlot](fmt.Sprintf("gwq:%s:%d", r.recvActor, i), g.vc.cfg.PipelineDepth)}
		b.send = func(sp *vtime.Proc) { g.branchSend(sp, r, b) }
		r.branches = append(r.branches, b)
	}
	b := r.branches[i]
	b.out, b.nextGW, b.hdr = out, nextGW, hdr
	outNet := out.Channel.Network().Name
	names, ok := r.senders[outNet]
	if !ok {
		names = relaySender{
			actor: fmt.Sprintf("%s:send:%s", g.name, outNet),
			proc:  fmt.Sprintf("gwsend:%s:%s", g.name, outNet),
		}
		r.senders[outNet] = names
	}
	b.names = names
}

// staticPool returns the ring's free list of egress-driver static buffers
// for one egress link, creating it with an AllocStatic-backed allocator on
// first use.
func (r *relayRing) staticPool(out *mad.Link, host *hw.Host) *bufPool {
	name := out.Channel.Network().Name
	if bp, ok := r.static[name]; ok {
		return bp
	}
	drv := out.Channel.Driver()
	bp := newBufPool(func(n int) []byte { return drv.AllocStatic(host, n).Data })
	r.static[name] = bp
	return bp
}

// start spawns the polling threads: one per special channel the gateway is
// attached to. Each thread waits for message announcements and relays the
// messages one after the other — or, with flow control armed, files them
// with the fair scheduler of startFair.
func (g *Gateway) start() {
	tn, _ := g.vc.tp.Node(g.name)
	for _, nwName := range tn.Networks {
		spc, ok := g.vc.special[nwName]
		if !ok {
			continue
		}
		if g.vc.flowc != nil {
			g.startFair(spc, nwName)
			continue
		}
		g.poll(spc, nwName, func(p *vtime.Proc, a mad.Arrival) { g.relay(p, a) })
	}
}

// poll spawns the gwpoll daemon of one ingress network: it waits for
// message announcements on the special channel and hands each arrival note
// to note.
func (g *Gateway) poll(spc *mad.Channel, nwName string, note func(*vtime.Proc, mad.Arrival)) {
	ep := spc.At(g.node)
	g.vc.sess.Platform.Sim.SpawnDaemon(fmt.Sprintf("gwpoll:%s:%s", g.name, nwName), func(p *vtime.Proc) {
		for {
			a := ep.NextArrival(p)
			if !relayableKind(a.Kind()) {
				panic("fwd: non-GTM message on special channel " + spc.Name)
			}
			note(p, a)
		}
	})
}

// relayableKind reports whether a message kind is a self-described stream a
// gateway can relay: plain GTM, a striped rail, the compact eager and
// aggregate framings, or a multicast stream (which the gateway replicates
// rather than relays one-to-one).
func relayableKind(k mad.Kind) bool {
	switch k {
	case mad.KindGTM, mad.KindStripe, mad.KindEager, mad.KindAgg, mad.KindMcast:
		return true
	}
	return false
}

// burstableKind reports whether a message kind may extend a DRR visit
// until the flow's deficit runs out. Stripe rails are excluded (see the
// comment at the burst loop); everything the GTM frames normally —
// including the compact and aggregate forms — bursts.
func burstableKind(k mad.Kind) bool {
	switch k {
	case mad.KindGTM, mad.KindEager, mad.KindAgg:
		return true
	}
	return false
}

// startFair spawns the flow-control daemon pair for one ingress network:
// gwpoll only classifies announcements into the per-sender DRR queues
// (announcements are cheap — the data transfer happens lazily when the
// relay receives), and gwfair serves them one message to completion in DRR
// order, charging each flow the bytes it actually relayed.
func (g *Gateway) startFair(spc *mad.Channel, nwName string) {
	sc := &gwSched{
		drr:     flow.NewDRR[mad.Arrival](int64(g.vc.cfg.MTU)),
		pending: vsync.NewSem(0),
	}
	g.scheds[nwName] = sc
	g.poll(spc, nwName, func(_ *vtime.Proc, a mad.Arrival) {
		sc.drr.Push(a.Link.Src.Name, a)
		sc.pending.Release(1)
	})
	g.vc.sess.Platform.Sim.SpawnDaemon(fmt.Sprintf("gwfair:%s:%s", g.name, nwName), func(p *vtime.Proc) {
		for {
			sc.pending.Acquire(p, 1)
			key, a, ok := sc.drr.Pop()
			if !ok {
				panic("fwd: gateway scheduler woken with empty queues on " + g.name)
			}
			sc.drr.Charge(key, g.relay(p, a))
			// Classic DRR serves a flow until its deficit runs out, not
			// one item per visit: a flow whose messages are smaller than
			// the quantum could otherwise never use its full byte share
			// (the cap on banked deficit forfeits the remainder), handing
			// large-message flows a permanent rate advantage. Only plain
			// GTM messages extend a visit: stripe rails pair with a
			// sibling rail on another gateway, and bursting would let the
			// two gateways' service orders diverge further than the
			// sink's bounded reassembly can absorb (a rail message is at
			// least stripe-threshold sized, so it fills its quantum in
			// one service anyway). The compact eager and aggregate
			// framings burst like plain GTM: they are exactly the mice
			// whose fair byte share the deficit extension exists for.
			if burstableKind(a.Kind()) {
				for sc.drr.Deficit(key) >= 0 {
					if !sc.pending.TryAcquire(1) {
						break
					}
					a, ok := sc.drr.PopFrom(key, func(n mad.Arrival) bool {
						return burstableKind(n.Kind())
					})
					if !ok {
						sc.pending.Release(1)
						break
					}
					sc.drr.Charge(key, g.relay(p, a))
				}
			}
			if r := sc.drr.Rounds(); r > sc.lastRounds {
				g.met.rounds.Add(r - sc.lastRounds)
				sc.lastRounds = r
			}
		}
	})
}

// Messages returns the number of messages this gateway relayed.
func (g *Gateway) Messages() int64 {
	if g.eng != nil {
		return g.eng.relayedMsgs
	}
	return g.messages
}

// Packets returns the number of packets this gateway relayed.
func (g *Gateway) Packets() int64 {
	if g.eng != nil {
		return g.eng.relayedPkts
	}
	return g.met.packets.Count()
}

// Bytes returns the payload bytes this gateway relayed.
func (g *Gateway) Bytes() int64 {
	if g.eng != nil {
		return g.eng.relayedBytes
	}
	return g.met.bytes.Count()
}

// Stalls returns how many times a receive thread of this gateway had to
// wait for a free staging buffer — the pipeline bubbles a deeper ring
// eliminates. Always zero in reliable mode.
func (g *Gateway) Stalls() int64 { return g.stalls }

// PoolStats aggregates the staging-buffer free-list counters over every
// ring of this gateway.
func (g *Gateway) PoolStats() PoolStats {
	var s PoolStats
	for _, r := range g.rings {
		s.observe(r.pool)
		s.observe(r.stage)
		for _, bp := range r.static {
			s.observe(bp)
		}
	}
	return s
}

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
// or distribution tree — "the right solution" of §2.2.2: the regular
// channel when the hop ends at the message's final destination, the
// network's special channel when the next node relays further. In the
// second case it also names that next gateway, toward which every transfer
// first spends a flow credit: relaying makes a node a sender in its own
// right, which is how backpressure propagates sender-ward along a gateway
// chain (a plain receiver grants no credits back, so none are spent toward
// it).
func (vc *VirtualChannel) hopLink(from *mad.Node, hop route.Hop, relays bool) (link *mad.Link, nextGW string) {
	ch := vc.regular[hop.Network]
	if relays {
		ch = vc.special[hop.Network]
		if ch == nil {
			panic("fwd: next-gateway hop without special channel on " + hop.Network)
		}
		nextGW = hop.To
	}
	return ch.Link(from.Rank, vc.NodeRank(hop.To)), nextGW
}

// relayFrame is what the relay learned from the first transfer of the
// message in hand: the per-frame context classify builds and route and emit
// read.
type relayFrame struct {
	kind       mad.Kind
	meta       mad.TxMeta // metadata of the first transfer
	head       []byte     // the first transfer: the header, then any payload that rode along
	streamOpen            // what it says: routing fields, header length, the payload's share
	up         string     // the ingress sender, whose flow credits the relay returns
}

// classify receives the first transfer of an announced message and decodes
// its self-description, by the same two calls as the final receiver: a
// fixed-length header lands in the ring's scratch, a compact frame or a
// destination-set header is taken as a driver-slot handoff. The gateway reads
// the routing fields and re-emits everything else unchanged: it stays
// oblivious to the striping schedule of a rail (whose header extends the GTM
// one) and to whether a compact frame's payload is one small message or an
// aggregate of many.
func (g *Gateway) classify(p *vtime.Proc, r *relayRing, a mad.Arrival) relayFrame {
	f := relayFrame{kind: a.Kind(), up: a.Link.Src.Name}
	f.meta, f.head = recvFirst(p, a.Link, f.kind, r.hdr[:])
	var ok bool
	if f.streamOpen, ok = parseStream(f.kind, f.meta, f.head); !ok {
		panic(fmt.Sprintf("fwd: malformed %v header at gateway %s", f.kind, g.name))
	}
	return f
}

// route turns the frame's destination into the ring's egress branches —
// one, from the routing table's next hop, for the unicast kinds; the
// destination set re-partitioned by next hop (mcastSplit) for multicast —
// and reports whether this node is itself a destination.
func (g *Gateway) route(p *vtime.Proc, r *relayRing, f *relayFrame, inNet string) (branches []*relayBranch, local bool) {
	vc := g.vc
	if f.kind == mad.KindMcast {
		branches, local = g.mcastSplit(r, f)
		g.met.mcastRelays.Add(1)
		g.met.branches.Add(int64(len(branches)))
		vc.hop(p, f.id, g.name, "relay",
			obs.Detail{Form: "mcast ${net} -> ${a} branches (${b} dests)", Net: inNet, A: len(branches), B: len(f.dests)}, 0)
		return branches, local
	}
	dstName := vc.sess.Node(f.dst).Name
	hop, ok := vc.tbl.NextHop(g.name, dstName)
	if !ok {
		panic(fmt.Sprintf("fwd: gateway %s has no route to %s", g.name, dstName))
	}
	vc.hop(p, f.id, g.name, "relay", obs.Detail{Form: "${note} -> ${peer} via ${net}", Note: inNet, Peer: hop.To, Net: hop.Network}, 0)
	out, nextGW := vc.hopLink(g.node, hop, hop.To != dstName)
	g.branch(r, 0, out, nextGW, nil)
	return r.branches[:1], false
}

// relay forwards one announced message, the gateway's one loop whatever the
// frame kind and however many ways the message fans out:
//
//	classify  read the self-description off the first transfer
//	route     egress branches from the routing table, plus local delivery
//	emit      a whole frame goes to the per-link egress daemons, one copy
//	          per branch; anything longer runs the pipeline
//
// It returns the ingress payload bytes relayed — independent of the branch
// count — which the flow-control scheduler charges against the ingress
// sender's deficit.
func (g *Gateway) relay(p *vtime.Proc, a mad.Arrival) int64 {
	vc := g.vc
	in := a.Link
	in.AcquireRecv(p)
	defer in.ReleaseRecv(p)
	bytesBefore := g.met.bytes.Count()
	inNet := in.Channel.Network().Name
	r := g.ring(inNet)

	f := g.classify(p, r, a)
	// The first transfer consumed one of the upstream sender's credits; it
	// has been read out of the ingress slot, so return the credit.
	vc.flowGrant(g.name, f.up, 1)
	branches, local := g.route(p, r, &f, inNet)
	g.messages++
	// Payload that rode along with the header is relayed ingress payload
	// like any pipelined packet.
	if n := len(f.payload); n > 0 {
		g.met.packets.Add(1)
		g.met.bytes.Add(int64(n))
	}

	if f.eom {
		// The first transfer carried the terminator: the whole message is
		// in gateway memory (its driver slot), so the retransmission needs
		// nothing more from this thread. Queue it on each branch's egress
		// daemon and go receive the next frame.
		for _, b := range branches {
			meta := mad.TxMeta{SOM: true, EOM: true, Kind: f.kind, Blocks: f.meta.Blocks}
			frame := f.head
			if b.replicated() {
				meta.Blocks, frame = g.replicateFrame(p, &f, b, f.payload)
			}
			g.sendEgress(p, b.out, gwEgressTx{meta: meta, data: frame, msgID: f.id, nextGW: b.nextGW})
		}
		if local {
			g.mcastDeliverLocal(p, &mcastLocal{f.streamHdr, parkedFrags{
				frags: splitByDescs(make([][]byte, 0, len(f.descs)), f.payload, f.descs), descs: f.descs}})
		}
		return g.met.bytes.Count() - bytesBefore
	}

	if len(branches) == 1 && !branches[0].replicated() {
		// Unicast: this thread holds the egress link for the whole message
		// and re-emits the first transfer unchanged before it receives
		// anything more.
		b := branches[0]
		g.fenceEgress(p, b.out)
		b.out.Acquire(p)
		defer b.out.Release(p)
		if b.nextGW != "" {
			vc.flowSpend(p, b.nextGW, g.name, f.id)
		}
		b.out.Send(p, mad.TxMeta{SOM: true, Kind: f.kind, Blocks: f.meta.Blocks}, f.head)
	}
	g.pipeline(p, r, in, &f, branches, local)
	return g.met.bytes.Count() - bytesBefore
}

// pipeline implements the paper's packet-forwarding pipeline (Figure 5):
// the polling thread becomes the receive thread, one spawned thread per
// egress branch retransmits, and PipelineDepth packet slots rotate between
// them. Each buffer switch costs the host's software overhead (§3.3.1
// measures ≈40 µs). A fragment is received once whatever the branch count;
// the slot's reference count (relaySlot) bounds how far ingress runs ahead
// of the slowest branch.
//
// Buffer election (§2.3), for a message leaving this gateway on one branch:
//   - egress static (and zero-copy on): buffers come from the egress
//     driver, packets land in them directly, and are sent in place;
//   - ingress static, egress dynamic: packets are taken as driver-slot
//     handoffs and sent straight from the ingress slot;
//   - both static: the posted receive falls back to a real copy out of the
//     ingress slot — the unavoidable one;
//   - both dynamic: packets land in plain pipeline buffers with no copy.
//
// A message fanning out on several branches uses plain pipeline buffers
// whatever the drivers: its fragments leave on several links at once, so no
// single egress driver's static buffers (nor the one ingress slot) can back
// them.
//
// Buffers come from the ring's free lists, not the allocator: the slots are
// stocked from the pools at message start and drained back at message end,
// so after the first message a relay allocates nothing. When the receive
// thread has to wait for a free slot — the send side is the bottleneck and
// every buffer is in flight — the wait is recorded as a "stall" span, which
// obs.AnalyzeLanes accounts to the lane's stall fraction; the deeper the
// ring, the fewer such bubbles.
// With flow control armed, the pipeline is also where credits move: every
// slot returned to the free list means one ingress transfer fully drained
// through every egress branch, so one credit goes back to the upstream
// sender, and every egress transfer toward a downstream gateway (nextGW
// non-empty) spends one of this gateway's own credits first.
func (g *Gateway) pipeline(p *vtime.Proc, r *relayRing, in *mad.Link, f *relayFrame, branches []*relayBranch, local bool) {
	vc := g.vc
	cfg := vc.cfg
	tr := cfg.Tracer
	m := &g.met
	fr := vc.flightRing(g.name)
	host := g.node.Host
	inNet := in.Channel.Network().Name
	recvActor := r.recvActor

	// Stock the ring for this message's buffer-election mode.
	slotMode := false
	var statics *bufPool
	if len(branches) == 1 && cfg.ZeroCopy {
		if out := branches[0].out; out.NIC().StaticBuffers {
			statics = r.staticPool(out, host)
		} else {
			slotMode = in.NIC().StaticBuffers
		}
	}
	for i := range r.slots {
		s := &r.slots[i]
		switch {
		case slotMode:
			s.buf = nil // the slot is a token only; data rides ingress slots
		case statics != nil:
			s.buf = statics.get(f.mtu)
		default:
			s.buf = r.pool.get(f.mtu)
		}
		r.free.TrySend(s)
	}

	// A process per message and branch, not a daemon: a parked daemon would
	// be woken by an event of its own and reorder the instant the relay
	// starts in. Ordering is the whole reason: the spawn runs on a finished
	// send thread's goroutine and allocates one process record, no more than
	// waking a daemon would cost (DESIGN.md §20).
	msgID, up := f.id, f.up
	for _, b := range branches {
		b.kind, b.msgID, b.up = f.kind, msgID, up
		b.proc = vc.sess.Platform.Sim.Spawn(b.names.proc, b.send)
	}
	var capture *mcastLocal
	if local {
		capture = &mcastLocal{h: f.streamHdr}
	}

	var lastRecvStart vtime.Time
	first := true
	for {
		t0 := p.Now()
		s, _ := r.free.Recv(p)
		if wait := vtime.Since(p.Now(), t0); wait > 0 {
			// Pipeline bubble: every staging buffer was in flight on the
			// egress side and the receive thread had to wait.
			g.stalls++
			tr.Record(recvActor, "stall", 0, t0, p.Now())
			m.stall.ObserveDuration(wait)
			fr.Record(flight.KindStall, p.Now(), wait, msgID, 0, inNet)
		}
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
		if slotMode {
			meta, s.data = in.Recv(p)
		} else {
			var n int
			meta, n = in.RecvInto(p, s.buf)
			s.data = s.buf[:n]
		}
		if len(meta.Blocks) == 0 {
			if !framingOf(f.kind).bracketed {
				panic(fmt.Sprintf("fwd: protocol error: bare terminator on a %v stream at %s", f.kind, g.name))
			}
			for _, b := range branches {
				b.q.Send(p, nil)
			}
			// The slot taken for the terminator was never handed to the
			// senders; recycle it directly so the drain below sees the
			// whole ring. The terminator transfer also consumed a sender
			// credit.
			r.free.TrySend(s)
			vc.flowGrant(g.name, up, 1)
			break
		}
		s.desc, s.eom, s.aux = meta.Blocks, meta.EOM, nil
		if !cfg.ZeroCopy {
			// Copy-always ablation: stage through an extra buffer like a
			// forwarding layer naively placed above Madeleine would.
			s.aux = r.stage.get(len(s.data))
			host.Memcpy(p, len(s.data))
			copy(s.aux, s.data)
			s.data = s.aux
		}
		n := len(s.data)
		tr.Record(recvActor, "recv", n, t0, p.Now())
		fr.Record(flight.KindRecv, p.Now(), vtime.Since(p.Now(), t0), msgID, n, inNet)
		m.packets.Add(1)
		m.bytes.Add(int64(n))
		t0 = p.Now()
		p.Sleep(host.CPU.SwapOverhead)
		tr.Record(recvActor, "swap", 0, t0, p.Now())
		m.swap.ObserveDuration(vtime.Since(p.Now(), t0))
		fr.Record(flight.KindSwap, p.Now(), vtime.Since(p.Now(), t0), msgID, 0, inNet)
		if local {
			// The slot is recycled by the branch senders; the local copy
			// is the gateway-member's delivery cost.
			host.Memcpy(p, n)
			capture.frags = append(capture.frags, append([]byte(nil), s.data...))
			capture.descs = append(capture.descs, meta.Blocks[0])
		}
		s.refs = len(branches)
		for _, b := range branches {
			b.q.Send(p, s)
		}
		if len(branches) == 0 {
			// A frame whose every remaining destination is this node. The
			// planner never emits one (a lone local destination travels the
			// regular channel), but a recycled slot and a returned credit
			// keep even that shape live.
			g.recycle(p, r, s, up)
		}
		if meta.EOM {
			break
		}
	}
	for _, b := range branches {
		p.Join(b.proc)
	}

	// Drain the ring back into this mode's free list so the next message —
	// possibly with a different MTU or egress — restocks cleanly.
	for {
		s, ok := r.free.TryRecv()
		if !ok {
			break
		}
		switch {
		case slotMode:
			// tokens, nothing to recycle
		case statics != nil:
			statics.put(s.buf)
		default:
			r.pool.put(s.buf)
		}
	}
	if local {
		g.mcastDeliverLocal(p, capture)
	}
}

// recycle returns a slot nobody refers to any more to the ring's free list:
// the ingress transfer behind it has fully drained through egress, so its
// credit goes back to the upstream sender.
func (g *Gateway) recycle(p *vtime.Proc, r *relayRing, s *relaySlot, up string) {
	if s.aux != nil {
		r.stage.put(s.aux)
	}
	r.free.Send(p, s)
	g.vc.flowGrant(g.name, up, 1)
}

// branchSend is the send thread of one egress branch: it drains the
// branch's queue onto the egress link until the message's terminator, a
// buffer swap after every send.
func (g *Gateway) branchSend(sp *vtime.Proc, r *relayRing, b *relayBranch) {
	kind, msgID, up := b.kind, b.msgID, b.up
	vc := g.vc
	tr := vc.cfg.Tracer
	m := &g.met
	fr := vc.flightRing(g.name)
	outNet := b.out.Channel.Network().Name
	sendKind := flight.KindSend
	if b.replicated() {
		sendKind = flight.KindReplicate
		g.fenceEgress(sp, b.out)
		b.out.Acquire(sp)
		defer b.out.Release(sp)
		if b.nextGW != "" {
			vc.flowSpend(sp, b.nextGW, g.name, msgID)
		}
		b.out.Send(sp, mad.TxMeta{SOM: true, Kind: kind,
			Blocks: []mad.BlockDesc{headerDesc(len(b.hdr))}}, b.hdr)
	}
	for {
		s, _ := b.q.Recv(sp)
		if b.nextGW != "" {
			vc.flowSpend(sp, b.nextGW, g.name, msgID)
		}
		if s == nil {
			// Bare terminator of the seed framing. The compact framings
			// never produce one: their terminator rides on the last data
			// packet (s.eom below).
			b.out.Send(sp, mad.TxMeta{Kind: kind, EOM: true}, nil)
			return
		}
		t0 := sp.Now()
		b.out.Send(sp, mad.TxMeta{Kind: kind, EOM: s.eom, Blocks: s.desc}, s.data)
		tr.Record(b.names.actor, "send", len(s.data), t0, sp.Now())
		fr.Record(sendKind, sp.Now(), vtime.Since(sp.Now(), t0), msgID, len(s.data), outNet)
		if b.replicated() {
			m.replicatedPkts.Add(1)
			m.replicatedBytes.Add(int64(len(s.data)))
		}
		t0 = sp.Now()
		sp.Sleep(g.node.Host.CPU.SwapOverhead)
		tr.Record(b.names.actor, "swap", 0, t0, sp.Now())
		m.swap.ObserveDuration(vtime.Since(sp.Now(), t0))
		fr.Record(flight.KindSwap, sp.Now(), vtime.Since(sp.Now(), t0), msgID, 0, outNet)
		eom := s.eom
		s.refs--
		if s.refs == 0 {
			g.recycle(sp, r, s, up)
		}
		if eom {
			return
		}
	}
}
