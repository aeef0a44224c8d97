package fwd

import (
	"fmt"

	"madgo/internal/flight"
	"madgo/internal/flow"
	"madgo/internal/hw"
	"madgo/internal/mad"
	"madgo/internal/obs"
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
	// and forward() relays messages to completion before returning to it,
	// so a ring is only ever used by one message at a time.
	rings map[string]*relayRing

	// scheds holds the flow-mode arrival schedulers, one per ingress
	// network; empty unless Config.FlowControl is set.
	scheds map[string]*gwSched

	// txq holds the per-egress-link asynchronous senders for fully
	// received single-transfer frames (compact eager and aggregate), so
	// the polling thread can go back to posting ingress receives while a
	// frame is still streaming out.
	txq map[*mad.Link]*gwEgress

	// Relay statistics (diagnostics and tests).
	messages int64
	packets  int64
	bytes    int64
	stalls   int64

	// eng is the node's reliability engine in reliable mode; the stat
	// accessors read from it instead of the streaming counters.
	eng *relEngine
}

// relayRing is the reusable pipeline state of one ingress network: the
// free/full buffer channels the two threads rotate, the staging-buffer free
// lists the ring is stocked from, and a scratch header. Keeping it across
// messages makes steady-state relays allocation-free.
type relayRing struct {
	free *vsync.Chan[[]byte]
	full *vsync.Chan[relayPacket]

	pool   *bufPool            // dynamic staging buffers
	stage  *bufPool            // copy-always ablation staging buffers
	static map[string]*bufPool // per-egress-network driver static buffers

	hdr [stripeHeaderLen]byte // GTM/stripe header scratch, one relay at a time

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

func newGateway(vc *VirtualChannel, node *mad.Node) *Gateway {
	return &Gateway{vc: vc, node: node, name: node.Name,
		rings: make(map[string]*relayRing), scheds: make(map[string]*gwSched),
		txq: make(map[*mad.Link]*gwEgress)}
}

// gwEgressTx is one fully received single-transfer frame queued for
// asynchronous retransmission on an egress link.
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
// has been fully sent. Inline relays (multi-transfer messages re-emitting a
// header and pipelining packets) call it before acquiring the link, so a
// queued frame can never be overtaken by a message the gateway received
// after it.
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
	drr        *flow.DRR[*mad.Arrival]
	pending    *vsync.Sem // counts queued announcements; wakes the fair daemon
	lastRounds int64
}

// ring returns (creating on first use) the pipeline ring of one ingress
// network. The channel capacity is PipelineDepth: the ring can hold at most
// one full rotation, so the receive thread can run at most depth packets
// ahead of the send thread.
func (g *Gateway) ring(inNet string) *relayRing {
	if r, ok := g.rings[inNet]; ok {
		return r
	}
	depth := g.vc.cfg.PipelineDepth
	r := &relayRing{
		free:   vsync.NewChan[[]byte](fmt.Sprintf("gwfree:%s:%s", g.name, inNet), depth),
		full:   vsync.NewChan[relayPacket](fmt.Sprintf("gwfull:%s:%s", g.name, inNet), depth),
		pool:   newBufPool(nil),
		stage:  newBufPool(nil),
		static: make(map[string]*bufPool),

		recvActor: fmt.Sprintf("%s:recv:%s", g.name, inNet),
		senders:   make(map[string]relaySender),
	}
	g.rings[inNet] = r
	return r
}

// sender returns the ring's names for the send thread toward one egress
// network, formatting them on first use.
func (r *relayRing) sender(gw, outNet string) relaySender {
	s, ok := r.senders[outNet]
	if !ok {
		s = relaySender{
			actor: fmt.Sprintf("%s:send:%s", gw, outNet),
			proc:  fmt.Sprintf("gwsend:%s:%s", gw, outNet),
		}
		r.senders[outNet] = s
	}
	return s
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
// messages one after the other.
func (g *Gateway) start() {
	sim := g.vc.sess.Platform.Sim
	tn, _ := g.vc.tp.Node(g.name)
	for _, nwName := range tn.Networks {
		spc, ok := g.vc.special[nwName]
		if !ok {
			continue
		}
		ep := spc.At(g.node)
		nwName := nwName
		if g.vc.flowc != nil {
			g.startFair(ep, spc, nwName)
			continue
		}
		sim.SpawnDaemon(fmt.Sprintf("gwpoll:%s:%s", g.name, nwName), func(p *vtime.Proc) {
			for {
				a := ep.WaitArrival(p)
				if !relayableKind(a.Kind()) {
					panic("fwd: non-GTM message on special channel " + spc.Name)
				}
				g.forward(p, a)
			}
		})
	}
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
func (g *Gateway) startFair(ep *mad.Endpoint, spc *mad.Channel, nwName string) {
	sim := g.vc.sess.Platform.Sim
	sc := &gwSched{
		drr:     flow.NewDRR[*mad.Arrival](int64(g.vc.cfg.MTU)),
		pending: vsync.NewSem(0),
	}
	g.scheds[nwName] = sc
	m := g.vc.metrics()
	gwLabels := obs.Labels{"gateway": g.name}
	sim.SpawnDaemon(fmt.Sprintf("gwpoll:%s:%s", g.name, nwName), func(p *vtime.Proc) {
		for {
			a := ep.WaitArrival(p)
			if !relayableKind(a.Kind()) {
				panic("fwd: non-GTM message on special channel " + spc.Name)
			}
			sc.drr.Push(a.Link.Src.Name, a)
			sc.pending.Release(1)
		}
	})
	sim.SpawnDaemon(fmt.Sprintf("gwfair:%s:%s", g.name, nwName), func(p *vtime.Proc) {
		for {
			sc.pending.Acquire(p, 1)
			key, a, ok := sc.drr.Pop()
			if !ok {
				panic("fwd: gateway scheduler woken with empty queues on " + g.name)
			}
			sc.drr.Charge(key, g.forward(p, a))
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
					a, ok := sc.drr.PopFrom(key, func(n *mad.Arrival) bool {
						return burstableKind(n.Kind())
					})
					if !ok {
						sc.pending.Release(1)
						break
					}
					sc.drr.Charge(key, g.forward(p, a))
				}
			}
			if r := sc.drr.Rounds(); r > sc.lastRounds {
				m.Add("madgo_flow_sched_rounds_total", gwLabels, float64(r-sc.lastRounds))
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
	return g.packets
}

// Bytes returns the payload bytes this gateway relayed.
func (g *Gateway) Bytes() int64 {
	if g.eng != nil {
		return g.eng.relayedBytes
	}
	return g.bytes
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
// gateway's node performed. Always zero in streaming mode and on fault-free
// reliable runs.
func (g *Gateway) Retransmits() int64 {
	if g.eng != nil {
		return g.eng.retransmits
	}
	return 0
}

// Failovers returns how many times this gateway's node presumed a neighbour
// dead and rerouted around it. Always zero in streaming mode and on
// fault-free reliable runs.
func (g *Gateway) Failovers() int64 {
	if g.eng != nil {
		return g.eng.failovers
	}
	return 0
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

// forward relays one self-described message: read its header, choose the
// egress channel from the routing table (special channel toward another
// gateway, regular channel toward the final destination — §2.2.2's "right
// solution"), re-emit the header, then pipeline the packets. It returns the
// payload bytes relayed, which the flow-control scheduler charges against
// the ingress sender's deficit.
func (g *Gateway) forward(p *vtime.Proc, a *mad.Arrival) int64 {
	if k := a.Kind(); k == mad.KindEager || k == mad.KindAgg {
		return g.forwardEager(p, a)
	}
	if a.Kind() == mad.KindMcast {
		return g.forwardMcast(p, a)
	}
	vc := g.vc
	in := a.Link
	in.AcquireRecv(p)
	defer in.ReleaseRecv(p)
	bytesBefore := g.bytes

	r := g.ring(in.Channel.Network().Name)
	// A striped rail carries a longer header, but its leading fields are
	// byte-compatible with the GTM header — the gateway reads the routing
	// fields and relays the rest of the stream unchanged, oblivious to
	// the striping schedule.
	hdrLen := gtmHeaderLen
	if a.Kind() == mad.KindStripe {
		hdrLen = stripeHeaderLen
	}
	hdr := r.hdr[:hdrLen]
	meta, _ := in.RecvInto(p, hdr)
	if !meta.SOM || meta.Kind != a.Kind() || len(meta.Blocks) != 1 {
		panic("fwd: malformed GTM header at gateway " + g.name)
	}
	_, dstRank, mtu, msgID, ok := decodeGTMHeader(hdr[:gtmHeaderLen])
	if !ok {
		panic("fwd: malformed GTM header at gateway " + g.name)
	}
	// The header transfer consumed one of the upstream sender's credits;
	// it has been read out of the ingress slot, so return the credit.
	up := in.Src.Name
	vc.flowGrant(g.name, up, 1)
	dstName := vc.sess.Node(dstRank).Name
	hop, ok := vc.tbl.NextHop(g.name, dstName)
	if !ok {
		panic(fmt.Sprintf("fwd: gateway %s has no route to %s", g.name, dstName))
	}
	if m := vc.metrics(); m != nil {
		m.RecordHop(msgID, p.Now(), g.name, "relay",
			fmt.Sprintf("%s -> %s via %s", in.Channel.Network().Name, hop.To, hop.Network), 0)
	}
	var outCh *mad.Channel
	nextGW := ""
	if hop.To == dstName {
		outCh = vc.regular[hop.Network]
	} else {
		outCh = vc.special[hop.Network]
		if outCh == nil {
			panic("fwd: next-gateway hop without special channel on " + hop.Network)
		}
		// Relaying toward another gateway makes this gateway a sender in
		// its own right: it spends credits toward the next hop, which is
		// how backpressure propagates sender-ward across a gateway chain.
		nextGW = hop.To
	}
	out := outCh.Link(g.node.Rank, vc.NodeRank(hop.To))
	g.fenceEgress(p, out)
	out.Acquire(p)
	defer out.Release(p)
	if nextGW != "" {
		vc.flowSpend(p, nextGW, g.name, msgID)
	}
	out.Send(p, mad.TxMeta{SOM: true, Kind: meta.Kind,
		Blocks: []mad.BlockDesc{{Size: hdrLen, S: mad.SendCheaper, R: mad.ReceiveExpress}}}, hdr)

	g.pipeline(p, r, in, out, mtu, msgID, meta.Kind, up, nextGW)
	g.messages++
	return g.bytes - bytesBefore
}

// forwardEager relays a compact (eager or aggregate) message. The first
// transfer is the self-description header glued to the first data fragment,
// so it is variable-length: the gateway takes it as a driver-slot handoff,
// reads the routing fields off the front, and re-emits the whole frame
// unchanged — oblivious to whether the payload is one small message or an
// aggregate of many. A single-transfer message (EOM on the first frame) is
// fully relayed here; a longer one hands its remaining fragments to the
// ordinary pipeline, whose terminator now rides on the last data transfer
// instead of a trailing empty one.
func (g *Gateway) forwardEager(p *vtime.Proc, a *mad.Arrival) int64 {
	vc := g.vc
	in := a.Link
	in.AcquireRecv(p)
	defer in.ReleaseRecv(p)
	bytesBefore := g.bytes

	meta, slot := in.Recv(p)
	if !meta.SOM || meta.Kind != a.Kind() || len(meta.Blocks) < 1 || len(meta.Blocks) > 2 ||
		meta.Blocks[0].Size != gtmHeaderLen {
		panic("fwd: malformed compact header at gateway " + g.name)
	}
	_, dstRank, mtu, msgID, frag, ok := decodeGTMCompact(slot)
	if !ok {
		panic("fwd: malformed compact header at gateway " + g.name)
	}
	// The compact first transfer consumed one upstream credit; its slot is
	// consumed here, so the credit goes straight back.
	up := in.Src.Name
	vc.flowGrant(g.name, up, 1)
	dstName := vc.sess.Node(dstRank).Name
	hop, ok := vc.tbl.NextHop(g.name, dstName)
	if !ok {
		panic(fmt.Sprintf("fwd: gateway %s has no route to %s", g.name, dstName))
	}
	if m := vc.metrics(); m != nil {
		m.RecordHop(msgID, p.Now(), g.name, "relay",
			fmt.Sprintf("%s -> %s via %s", in.Channel.Network().Name, hop.To, hop.Network), 0)
	}
	var outCh *mad.Channel
	nextGW := ""
	if hop.To == dstName {
		outCh = vc.regular[hop.Network]
	} else {
		outCh = vc.special[hop.Network]
		if outCh == nil {
			panic("fwd: next-gateway hop without special channel on " + hop.Network)
		}
		nextGW = hop.To
	}
	out := outCh.Link(g.node.Rank, vc.NodeRank(hop.To))
	if n := len(frag); n > 0 {
		g.packets++
		g.bytes += int64(n)
		m := vc.metrics()
		gwLabels := obs.Labels{"gateway": g.name}
		m.Add("madgo_gateway_relayed_packets_total", gwLabels, 1)
		m.Add("madgo_gateway_relayed_bytes_total", gwLabels, float64(n))
	}
	g.messages++
	txMeta := mad.TxMeta{SOM: true, EOM: meta.EOM, Kind: meta.Kind, Blocks: meta.Blocks}
	if meta.EOM {
		// The whole message is in gateway memory (its driver slot), so the
		// retransmission needs nothing more from this thread: queue it on
		// the egress daemon and go receive the next frame.
		g.sendEgress(p, out, gwEgressTx{meta: txMeta, data: slot, msgID: msgID, nextGW: nextGW})
		return g.bytes - bytesBefore
	}
	g.fenceEgress(p, out)
	out.Acquire(p)
	defer out.Release(p)
	if nextGW != "" {
		vc.flowSpend(p, nextGW, g.name, msgID)
	}
	out.Send(p, txMeta, slot)
	r := g.ring(in.Channel.Network().Name)
	g.pipeline(p, r, in, out, mtu, msgID, meta.Kind, up, nextGW)
	return g.bytes - bytesBefore
}

// relayPacket is the unit handed from the receive thread to the send
// thread.
type relayPacket struct {
	data []byte
	desc []mad.BlockDesc
	buf  []byte // ring buffer to recycle (nil in slot mode)
	aux  []byte // pooled copy-always staging buffer, released after send
	eom  bool
}

// pipeline implements the paper's packet-forwarding pipeline (Figure 5):
// the polling thread becomes the receive thread, a spawned thread
// retransmits, and PipelineDepth buffers rotate between them. Each buffer
// switch costs the host's software overhead (§3.3.1 measures ≈40 µs).
//
// Buffer election (§2.3):
//   - egress static (and zero-copy on): buffers come from the egress
//     driver, packets land in them directly, and are sent in place;
//   - ingress static, egress dynamic: packets are taken as driver-slot
//     handoffs and sent straight from the ingress slot;
//   - both static: the posted receive falls back to a real copy out of the
//     ingress slot — the unavoidable one;
//   - both dynamic: packets land in plain pipeline buffers with no copy.
//
// Buffers come from the ring's free lists, not the allocator: the ring is
// stocked from the pools at message start and drained back at message end,
// so after the first message a relay allocates nothing. When the receive
// thread has to wait for a free buffer — the send side is the bottleneck
// and every buffer is in flight — the wait is recorded as a "stall" span,
// which obs.AnalyzeLanes accounts to the lane's stall fraction; the deeper
// the ring, the fewer such bubbles.
// With flow control armed, the pipeline is also where credits move: every
// buffer returned to the free list means one ingress transfer fully drained
// through egress, so one credit goes back to the upstream sender (up), and
// every egress transfer toward a downstream gateway (nextGW non-empty)
// spends one of this gateway's own credits first.
func (g *Gateway) pipeline(p *vtime.Proc, r *relayRing, in, out *mad.Link, mtu int, msgID uint64, kind mad.Kind, up, nextGW string) {
	vc := g.vc
	cfg := vc.cfg
	tr := cfg.Tracer
	m := vc.metrics()
	fr := vc.flightRing(g.name)
	gwLabels := obs.Labels{"gateway": g.name}
	host := g.node.Host
	inNet := in.Channel.Network().Name
	outNet := out.Channel.Network().Name
	recvActor := r.recvActor
	names := r.sender(g.name, outNet)
	sendActor := names.actor

	ingressStatic := in.NIC().StaticBuffers
	egressStatic := out.NIC().StaticBuffers
	slotMode := ingressStatic && !egressStatic && cfg.ZeroCopy

	// Stock the ring for this message's buffer-election mode.
	var statics *bufPool
	if egressStatic && cfg.ZeroCopy && !slotMode {
		statics = r.staticPool(out, host)
	}
	for i := 0; i < cfg.PipelineDepth; i++ {
		switch {
		case slotMode:
			r.free.TrySend(nil) // tokens only; data rides ingress slots
		case statics != nil:
			r.free.TrySend(statics.get(mtu))
		default:
			r.free.TrySend(r.pool.get(mtu))
		}
	}

	// A process per message, not a daemon: a parked daemon would be woken
	// by an event of its own and reorder the instant the relay starts in.
	sender := vc.sess.Platform.Sim.Spawn(names.proc, func(sp *vtime.Proc) {
		for {
			pkt, _ := r.full.Recv(sp)
			if pkt.eom && pkt.data == nil {
				// Bare terminator of the seed framing. The compact framings
				// never produce one: their terminator rides on the last data
				// packet (pkt.eom with data below).
				if nextGW != "" {
					vc.flowSpend(sp, nextGW, g.name, msgID)
				}
				out.Send(sp, mad.TxMeta{Kind: kind, EOM: true}, nil)
				return
			}
			if nextGW != "" {
				vc.flowSpend(sp, nextGW, g.name, msgID)
			}
			t0 := sp.Now()
			out.Send(sp, mad.TxMeta{Kind: kind, EOM: pkt.eom, Blocks: pkt.desc}, pkt.data)
			tr.Record(sendActor, "send", len(pkt.data), t0, sp.Now())
			fr.Record(flight.KindSend, sp.Now(), vtime.Since(sp.Now(), t0), msgID, len(pkt.data), outNet)
			if pkt.aux != nil {
				r.stage.put(pkt.aux)
			}
			t0 = sp.Now()
			sp.Sleep(host.CPU.SwapOverhead)
			tr.Record(sendActor, "swap", 0, t0, sp.Now())
			m.ObserveDuration("madgo_gateway_swap_seconds", gwLabels, vtime.Since(sp.Now(), t0))
			fr.Record(flight.KindSwap, sp.Now(), vtime.Since(sp.Now(), t0), msgID, 0, outNet)
			r.free.Send(sp, pkt.buf)
			// The ingress transfer behind this buffer has fully drained
			// through egress — its credit goes back to the sender.
			vc.flowGrant(g.name, up, 1)
			if pkt.eom {
				return
			}
		}
	})

	var lastRecvStart vtime.Time
	first := true
	for {
		t0 := p.Now()
		buf, _ := r.free.Recv(p)
		if wait := vtime.Since(p.Now(), t0); wait > 0 {
			// Pipeline bubble: every staging buffer was in flight on the
			// egress side and the receive thread had to wait.
			g.stalls++
			tr.Record(recvActor, "stall", 0, t0, p.Now())
			m.ObserveDuration("madgo_gateway_stall_seconds", gwLabels, wait)
			fr.Record(flight.KindStall, p.Now(), wait, msgID, 0, inNet)
		}
		// Incoming-flow regulation (the paper's proposed future work):
		// space receive starts to at most InflowLimit bytes/s.
		if cfg.InflowLimit > 0 && !first {
			minPeriod := vtime.DurationOfBytes(int64(mtu), cfg.InflowLimit)
			if elapsed := p.Now().Sub(lastRecvStart); elapsed < minPeriod {
				p.Sleep(minPeriod - elapsed)
			}
		}
		lastRecvStart = p.Now()
		first = false

		var pkt relayPacket
		t0 = p.Now()
		if slotMode {
			meta, slot := in.Recv(p)
			if len(meta.Blocks) == 0 {
				pkt = relayPacket{eom: true}
			} else {
				pkt = relayPacket{data: slot, desc: meta.Blocks, eom: meta.EOM}
			}
		} else {
			meta, n := in.RecvInto(p, buf)
			if len(meta.Blocks) == 0 {
				pkt = relayPacket{eom: true}
			} else {
				pkt.eom = meta.EOM
				data := buf[:n]
				if !cfg.ZeroCopy {
					// Copy-always ablation: stage through an
					// extra buffer like a forwarding layer
					// naively placed above Madeleine would.
					stage := r.stage.get(n)
					host.Memcpy(p, n)
					copy(stage, data)
					pkt.aux = stage
					data = stage
				}
				pkt.data = data
				pkt.desc = meta.Blocks
				pkt.buf = buf
			}
		}
		if pkt.data != nil {
			tr.Record(recvActor, "recv", len(pkt.data), t0, p.Now())
			fr.Record(flight.KindRecv, p.Now(), vtime.Since(p.Now(), t0), msgID, len(pkt.data), inNet)
			g.packets++
			g.bytes += int64(len(pkt.data))
			m.Add("madgo_gateway_relayed_packets_total", gwLabels, 1)
			m.Add("madgo_gateway_relayed_bytes_total", gwLabels, float64(len(pkt.data)))
			t0 = p.Now()
			p.Sleep(host.CPU.SwapOverhead)
			tr.Record(recvActor, "swap", 0, t0, p.Now())
			m.ObserveDuration("madgo_gateway_swap_seconds", gwLabels, vtime.Since(p.Now(), t0))
			fr.Record(flight.KindSwap, p.Now(), vtime.Since(p.Now(), t0), msgID, 0, inNet)
		}
		r.full.Send(p, pkt)
		if pkt.eom {
			if pkt.data == nil {
				// The buffer taken for the bare terminator was never handed
				// to the sender; recycle it directly so the drain below sees
				// the whole ring. (A data-carrying terminator travels with
				// its buffer and is recycled by the send thread as usual.)
				r.free.TrySend(buf)
				// The terminator transfer also consumed a sender credit.
				vc.flowGrant(g.name, up, 1)
			}
			break
		}
	}
	p.Join(sender)

	// Drain the ring back into this mode's free list so the next message —
	// possibly with a different MTU or egress — restocks cleanly.
	for {
		b, ok := r.free.TryRecv()
		if !ok {
			break
		}
		switch {
		case slotMode:
			// nil tokens, nothing to recycle
		case statics != nil:
			statics.put(b)
		default:
			r.pool.put(b)
		}
	}
}
