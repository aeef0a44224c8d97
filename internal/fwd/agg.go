package fwd

// Cross-message aggregation: the second half of the eager small-message
// path. The compact framing (stream.go) cuts a small forwarded message from
// three wire transfers to one, but a stream of tiny messages still pays the
// fixed ~40 µs per-transfer software overhead of §3.4.1 once per message.
// The coalescer below amortises it: consecutive sub-MTU messages from one
// node toward one destination are packed into a single MTU-sized aggregate
// frame (codec in package agg) and flushed as ONE wire transfer — one
// per-transfer overhead, one flow-control credit. A frame leaves at once when
// none of its coalescer is on the wire, else behind the one that is (Nagle's
// rule without the timer): a lone message waits for nothing and a stream
// batches as much as its path is busy (DESIGN.md §24).
//
// Transport composition at flush time:
//
//   - streaming, single rail: the frame travels as one compact KindAgg
//     transfer ([GTM header | frame] with two block descriptors), relayed
//     obliviously by gateways (gateway.go, classify);
//   - streaming, ≥2 rails and a frame past the stripe threshold: the frame
//     is striped like any large message, with flagAgg telling the
//     receiver to decode the reassembled bytes as a frame;
//   - reliable mode: the frame is one reliable message under a single ARQ
//     sequence (flagAgg again), so retransmission and failover cover every
//     coalesced sub-message at once.
//
// Ordering: one frame of a coalescer is on its way at a time, and a message
// too large to coalesce waits for the frame in flight and flushes what is
// pending ("ordering" flush) before it bypasses — per-sender delivery order
// toward one destination holds across small/large mixes. At the sink a frame
// takes its turn in the merged arrival queue and its sub-messages are
// delivered FIFO before any new arrival is pulled.

import (
	"fmt"

	"madgo/internal/agg"
	"madgo/internal/flight"
	"madgo/internal/mad"
	"madgo/internal/obs"
	"madgo/internal/vtime"
	"madgo/internal/vtime/vsync"
)

// aggKey identifies one coalescer: the sending node and the final
// destination (aggregation batches per destination, not per next hop, so
// the sink can decode without re-grouping).
type aggKey struct {
	node, dst string
}

// aggRx is a frame a sink is draining: its origin and what is left of it.
// BeginUnpacking pulls the next arrival only when the frames before it are
// drained, so a sink drains one — unless two of its processes unpack at once,
// and the second pulls a frame while the first still reads from the one before.
// Every frame was built by this process group's own coalescer, so
// malformation is a protocol error (MustReader).
type aggRx struct {
	from mad.Rank
	rd   agg.Reader
	fr   *sinkFrame
}

// sinkFrame is what a sink gives back of a frame once the last of its
// sub-messages is ended — not when its reader runs dry: two processes of the
// node may still be reading sub-messages of it — and how many are not ended.
type sinkFrame struct {
	buf  []byte            // the wire-pool buffer the frame lies in
	pair *[2]mad.BlockDesc // the descriptor pair it travelled with, if it came in one transfer
	open int
}

// AggStats aggregates the coalescing layer's counters. All fields are zero
// when Config.Aggregation is off.
type AggStats struct {
	// SubMessages is how many messages were coalesced into frames.
	SubMessages int64
	// Frames is how many aggregate frames were flushed, and FrameBytes
	// their summed wire size.
	Frames     int64
	FrameBytes int64
	// SizeFlushes, IdleFlushes and OrderingFlushes split Frames by how the
	// frame left: full, a sender waiting for room; partial, the path being
	// free; or drained by a large message that had to go around the queue.
	SizeFlushes     int64
	IdleFlushes     int64
	OrderingFlushes int64
	// BypassMessages is how many messages were too large for an empty
	// frame and took the ordinary (eager/GTM/stripe/reliable) path.
	BypassMessages int64
}

// aggState is the virtual channel's aggregation bookkeeping: the lazily
// created coalescers, whose counts AggStats sums, and the frames each sink is
// draining, by rank and oldest first: the readers advance in place. frames are
// spare sink records; striped holds, by frame ID, the buffers of frames the
// rails send by reference, which the sink returns once every rail is in.
type aggState struct {
	co      map[aggKey]*aggCoalescer
	rx      [][]aggRx
	frames  []*sinkFrame
	striped map[uint64][]byte
}

func newAggState(nodes int) *aggState {
	return &aggState{co: make(map[aggKey]*aggCoalescer), rx: make([][]aggRx, nodes), striped: make(map[uint64][]byte)}
}

// aggOpen starts delivering the sub-messages of a frame a sink holds in buf,
// with the descriptor pair it travelled with (nil if none).
func (vc *VirtualChannel) aggOpen(from mad.Rank, frame, buf []byte, pair *[2]mad.BlockDesc) aggRx {
	st := vc.aggst
	var fr *sinkFrame
	if n := len(st.frames); n > 0 {
		fr, st.frames = st.frames[n-1], st.frames[:n-1]
	} else {
		fr = new(sinkFrame)
	}
	rd := agg.MustReader(frame)
	*fr = sinkFrame{buf: buf, pair: pair, open: rd.Count()}
	return aggRx{from: from, rd: rd, fr: fr}
}

// aggEnded notes one sub-message of fr ended, and gives the frame back to
// the wire pool with its last.
func (vc *VirtualChannel) aggEnded(fr *sinkFrame) {
	if fr.open--; fr.open > 0 {
		return
	}
	vc.bufs.put(fr.buf)
	if fr.pair != nil {
		vc.bufs.putPair(fr.pair)
	}
	*fr = sinkFrame{}
	vc.aggst.frames = append(vc.aggst.frames, fr)
}

// AggStats returns the aggregation counters (zero-valued when aggregation
// is off).
func (vc *VirtualChannel) AggStats() AggStats {
	var s AggStats
	if vc.aggst == nil {
		return s
	}
	for _, c := range vc.aggst.co {
		s.SubMessages += c.subs.Count()
		s.FrameBytes += c.frameBytes.Count()
		s.SizeFlushes += c.frames["size"].Count()
		s.IdleFlushes += c.frames["idle"].Count()
		s.OrderingFlushes += c.frames["ordering"].Count()
		s.BypassMessages += c.bypass.Count()
	}
	s.Frames = s.SizeFlushes + s.IdleFlushes + s.OrderingFlushes
	return s
}

// aggCoalescer batches one (node, destination) pair's small messages. mu
// guards the pending frame and is never held across a wire transfer; busy
// says a sealed frame is on its way, and whoever set it owns body and tx
// until it clears it. On cond the daemon waits for work and a free path, a
// bypass or spill for the frame in flight, a sender for room. There is no
// second lock.
type aggCoalescer struct {
	vc   *VirtualChannel
	node *mad.Node
	dst  string
	mtu  int
	// limit is the frame byte budget: the path MTU minus the GTM header
	// the compact transfer prepends.
	limit int

	mu   vsync.Mutex
	cond *vsync.Cond
	busy bool
	full bool // a sender is parked on the pending frame: it has no room for its message
	b    *agg.Builder
	// enq and ids remember each queued sub-message's enqueue instant and
	// message ID for the agg-wait attribution at flush time.
	enq     []vtime.Time
	ids     []uint64
	scratch []agg.Block

	// body is the frame on its way as the one block its transport sends, tx
	// the writer of the compact flush, here so that a flush allocates neither.
	// Of an aggregate stream nothing a gateway still reads lives in tx: the
	// header travels in the frame's buffer, the descriptors in a pair from the
	// wire pool that travels with it.
	body [1]relBlock
	tx   streamTx

	// The coalescer's counts and wait histogram handle, labelled {node} — a
	// series sums the node's coalescers — the frame counts also by reason
	// ("size", "idle", "ordering").
	bypass, subs, frameBytes obs.Counter
	frames                   map[string]*obs.Counter
	wait                     *obs.Histogram
	fr                       *flight.Ring
}

// BindMetrics binds the coalescer's metrics in m.
func (c *aggCoalescer) BindMetrics(m *obs.Registry) {
	node := obs.Labels{"node": c.node.Name}
	m.BindCounter(&c.bypass, "madgo_agg_bypass_total", node)
	m.BindCounter(&c.subs, "madgo_agg_submessages_total", node)
	m.BindCounter(&c.frameBytes, "madgo_agg_frame_bytes_total", node)
	c.wait = m.BindHistogram("madgo_agg_queue_wait_seconds", node)
	for reason, frames := range c.frames {
		m.BindCounter(frames, "madgo_agg_frames_total", obs.Labels{"node": c.node.Name, "reason": reason})
	}
}

// aggCoalescer returns (creating, with its flush daemon) the coalescer of one
// (node, dst) pair.
func (vc *VirtualChannel) aggCoalescer(node *mad.Node, dst string) *aggCoalescer {
	st := vc.aggst
	key := aggKey{node: node.Name, dst: dst}
	if c, ok := st.co[key]; ok {
		return c
	}
	mtu := vc.PathMTU(node.Name, dst)
	c := &aggCoalescer{
		vc: vc, node: node, dst: dst,
		mtu: mtu, limit: mtu - gtmHeaderLen,
		// The builder reserves the GTM header bytes in front of the frame,
		// so a flush detaches a ready-made wire payload with no extra copy.
		b:      agg.NewBuilderPrefix(gtmHeaderLen, 0),
		frames: map[string]*obs.Counter{"size": {}, "idle": {}, "ordering": {}},
		fr:     vc.flightRing(node.Name),
	}
	c.cond = vsync.NewCond(&c.mu)
	st.co[key] = c
	vc.sess.Platform.Instrument(c)
	vc.sess.Platform.Sim.SpawnDaemon(fmt.Sprintf("agg-flush:%s>%s", node.Name, dst), c.run)
	return c
}

// run is the flush daemon: whenever something is pending and nothing of this
// coalescer is on its way, it sends what is pending. It has no timer.
func (c *aggCoalescer) run(p *vtime.Proc) {
	c.mu.Lock(p)
	for {
		for c.busy || c.b.Count() == 0 {
			c.cond.Wait(p)
		}
		reason := "idle"
		if c.full {
			reason = "size"
		}
		c.flush(p, reason)
	}
}

// add coalesces one finished message (or, when it cannot fit even an empty
// frame, sends it the ordinary way behind what is queued). Called from
// aggPacking.end on the application's process.
func (c *aggCoalescer) add(p *vtime.Proc, id uint64, blocks []relBlock, total int) {
	// The bound, not Need: what goes around must not depend on what is queued.
	if agg.HeaderLen+agg.SubSizeParts(len(blocks), total) > c.limit {
		c.goAround(p)
		c.vc.sendBuffered(p, c.node, c.dst, id, blocks, total, false)
		return
	}
	c.mu.Lock(p)
	defer c.mu.Unlock(p)
	for {
		// Afresh after a wait: another sender used the scratch list and queued an ID.
		c.scratch = c.scratch[:0]
		for _, b := range blocks {
			c.scratch = append(c.scratch, agg.Block{Data: b.data, S: uint8(b.s), R: uint8(b.r)})
		}
		if c.b.Len()+c.b.Need(id, c.scratch) <= c.limit {
			break
		}
		c.full = true // the daemon takes it once the frame before is off the wire
		c.cond.Wait(p)
	}
	if c.b.Count() == 0 {
		// A frame lives in one buffer of the wire pool, from here to the sink
		// that ends its last sub-message (DESIGN.md §29).
		c.b.Arm(c.vc.bufs.get(c.mtu))
	}
	// Packing into the frame is the one real copy of the coalesced path.
	c.node.Host.Memcpy(p, total)
	c.b.Add(id, c.scratch)
	c.enq = append(c.enq, p.Now())
	c.ids = append(c.ids, id)
	c.subs.Add(1)
	if c.b.Count() == 1 {
		c.cond.Broadcast()
	}
}

// goAround is what a message too large for a frame does before it takes the
// ordinary path: it waits for the frame in flight and flushes what is pending
// ("ordering"), so everything its sender coalesced is on the wire ahead of it.
func (c *aggCoalescer) goAround(p *vtime.Proc) {
	c.mu.Lock(p)
	for c.busy {
		c.cond.Wait(p)
	}
	c.flush(p, "ordering")
	c.bypass.Add(1)
	c.mu.Unlock(p)
}

// flush seals the pending frame and puts it on the wire as ONE logical
// transfer (single compact transfer, striped frame, or one reliable message).
// Called with mu held and nothing on its way, and returns so; mu is free while
// the frame travels. A no-op on an empty builder.
func (c *aggCoalescer) flush(p *vtime.Proc, reason string) {
	if c.b.Count() == 0 {
		return
	}
	vc := c.vc
	frameID := vc.nextMsgID()
	flen := len(c.b.Finish())
	now := p.Now()
	for i, t := range c.enq {
		wait := vtime.Since(now, t)
		c.fr.Record(flight.KindAggWait, now, wait, c.ids[i], 0, "")
		c.wait.ObserveDuration(wait)
	}
	c.enq = c.enq[:0]
	c.ids = c.ids[:0]
	c.fr.Record(flight.KindAggFlush, now, 0, frameID, flen, reason)
	c.frameBytes.Add(int64(flen))
	c.frames[reason].Add(1)
	vc.hop(p, frameID, c.node.Name, "agg",
		obs.Detail{Form: "flush(${note}) -> ${peer}: ${a} msgs, ${bytes} bytes", Note: reason, Peer: c.dst, A: c.b.Count()}, flen)

	// Detach the sealed buffer for whichever transport carries it: the wire
	// layer references payloads and the ARQ may retransmit, so it must stay
	// untouched while it travels, and the add()-time pack remains the path's
	// only copy. Senders pack the next frame, in a buffer of its own, while
	// this one is on the wire.
	wire := c.b.Detach()
	c.busy, c.full = true, false
	c.cond.Broadcast()
	c.mu.Unlock(p)
	c.body[0] = relBlock{data: wire[gtmHeaderLen:], s: mad.SendCheaper, r: mad.ReceiveCheaper}
	switch {
	case vc.cfg.Reliable:
		// One reliable message, back with its end-to-end ack: the engine
		// copied every fragment into a datagram of its own, so the buffer is
		// free.
		vc.sendBuffered(p, c.node, c.dst, frameID, c.body[:], flen, true)
		vc.bufs.put(wire)
	case len(vc.stripeRoutes(c.node.Name, c.dst)) >= 2 && int64(flen) >= vc.cfg.stripeThreshold():
		// Past the stripe threshold, the rails (below it sendBuffered would
		// send a plain message and lose the aggregate flag). They send the
		// frame by reference; the sink returns it.
		vc.aggst.striped[frameID] = wire
		vc.sendBuffered(p, c.node, c.dst, frameID, c.body[:], flen, true)
	default:
		// Single compact transfer toward the first gateway, the routing
		// header written into the reserved prefix in place. The frame and a
		// descriptor pair are handed over hop by hop to the sink, which
		// returns both.
		_, link := vc.firstHop(c.node, c.dst)
		c.tx = streamTx{vc: vc, link: link, kind: mad.KindAgg, spends: true, spare: vc.bufs.getPair()}
		c.tx.open(p, streamHdr{src: c.node.Rank, dst: vc.NodeRank(c.dst), mtu: c.mtu, id: frameID})
		c.tx.message(p, c.body[:], flen, wire)
	}
	c.mu.Lock(p)
	c.busy = false
	c.cond.Broadcast()
}

// bufPacking is the sender side of a message buffered whole and sent at
// EndPacking by sendBuffered: a reliable message, or one toward a pair with
// two rails. SendSafer pays its snapshot copy at once, the other blocks are
// referenced, which is safe because EndPacking returns once they are sent.
type bufPacking struct {
	handle Packing
	blockBuf
	dst string
}

func (bp *bufPacking) end(p *vtime.Proc) {
	bp.vc.sendBuffered(p, bp.node, bp.dst, bp.id, bp.blks, bp.total, false)
}

// sendBuffered sends a message that was buffered whole, its blocks with the
// modes they were packed with (the receiver mirrors them against the wire
// descriptors): through the reliable engine; across the pair's rails when it
// has two and the message reaches the stripe threshold; else down the single
// rail, in the framing Config.Eager names. aggFrame marks the message as an
// aggregate frame for its receiver to decode.
func (vc *VirtualChannel) sendBuffered(p *vtime.Proc, node *mad.Node, dst string, id uint64, blks []relBlock, total int, aggFrame bool) {
	if vc.cfg.Reliable {
		var flags uint8
		if aggFrame {
			flags = flagAgg
		}
		vc.rel[node.Name].sendMessage(p, dst, blks, id, flags)
		return
	}
	rails := vc.stripeRoutes(node.Name, dst)
	if len(rails) >= 2 && int64(total) >= vc.cfg.stripeThreshold() {
		sx := &stripeSend{blockBuf: blockBuf{vc: vc, node: node, id: id, blks: blks, total: total}, dst: dst, aggFlag: aggFrame, rails: rails}
		vc.planStripe(p, &sx.plan, id, node.Name, dst, rails, int64(total), nil)
		vc.runRails(p, node, sx, len(rails))
		return
	}
	hop, link := vc.firstHop(node, dst)
	if len(rails) >= 2 {
		form := "gtm -> ${peer} via ${net} (below stripe threshold)"
		switch {
		case link == nil:
			form = "direct -> ${peer} via ${net} (below stripe threshold)"
		case vc.cfg.Eager:
			form = "eager -> ${peer} via ${net} (below stripe threshold)"
		}
		vc.hop(p, id, node.Name, "pack", obs.Detail{Form: form, Peer: dst, Net: hop.Network}, 0)
	}
	x := vc.openSingleRail(p, node, dst, hop, link, id)
	replay(p, x, blks)
	x.end(p)
}

// aggPacking is the sender side of an aggregated message: blocks are
// buffered (like the reliable and stripe packings) and handed to the
// coalescer at EndPacking. A message that outgrows the frame budget on a
// streaming single-rail path spills to the ordinary streaming packing
// mid-Pack, so large messages keep their fragment-level pipelining through
// the gateways.
type aggPacking struct {
	handle Packing
	blockBuf
	dst     string
	spilled packer // the streaming path's framing, after a spill
}

func (ax *aggPacking) pack(p *vtime.Proc, data []byte, s mad.SendMode, r mad.RecvMode) {
	if ax.spilled != nil {
		ax.spilled.pack(p, data, s, r)
		return
	}
	vc := ax.vc
	ax.blockBuf.pack(p, data, s, r)
	if !vc.cfg.Reliable && len(vc.stripeRoutes(ax.node.Name, ax.dst)) < 2 &&
		agg.HeaderLen+agg.SubSizeParts(len(ax.blks), ax.total) > vc.PathMTU(ax.node.Name, ax.dst)-gtmHeaderLen {
		ax.spill(p)
	}
}

// spill switches a message that outgrew the frame budget onto the ordinary
// streaming path: what its sender coalesced goes first (ordering), then the
// buffered blocks replay and subsequent packs stream directly. Only reached
// on single-rail streaming routes — reliable and striped sends buffer until
// EndPacking anyway, so they bypass in add() instead.
func (ax *aggPacking) spill(p *vtime.Proc) {
	vc := ax.vc
	vc.aggCoalescer(ax.node, ax.dst).goAround(p)
	hop, link := vc.firstHop(ax.node, ax.dst)
	vc.hop(p, ax.id, ax.node.Name, "pack",
		obs.Detail{Form: "agg spill -> ${peer} via ${net} (outgrew frame budget)", Peer: ax.dst, Net: hop.Network}, ax.total)
	blocks := ax.blks
	ax.blks = nil
	ax.spilled = vc.openSingleRail(p, ax.node, ax.dst, hop, link, ax.id)
	replay(p, ax.spilled, blocks)
}

func (ax *aggPacking) end(p *vtime.Proc) {
	if ax.spilled != nil {
		ax.spilled.end(p)
		return
	}
	ax.vc.aggCoalescer(ax.node, ax.dst).add(p, ax.id, ax.blks, ax.total)
}

// aggPop returns the next sub-message of the frames the sink is draining, and
// its frame; a drained frame leaves the queue.
func (vc *VirtualChannel) aggPop(rank mad.Rank) (*aggRx, agg.Sub, bool) {
	if vc.aggst == nil {
		return nil, agg.Sub{}, false
	}
	for q := vc.aggst.rx[rank]; len(q) > 0; q = vc.aggst.rx[rank] {
		if sub, ok := q[0].rd.Next(); ok {
			return &q[0], sub, true
		}
		q[copy(q, q[1:])] = aggRx{}
		vc.aggst.rx[rank] = q[:len(q)-1]
	}
	return nil, agg.Sub{}, false
}

// aggDecodeStriped reassembles a striped aggregate frame (flagAgg) into
// a buffer of the wire pool, and queues its sub-messages. Every rail is in, so
// the sender's frame, which they sent by reference, goes back to the pool.
func (vc *VirtualChannel) aggDecodeStriped(p *vtime.Proc, node *mad.Node, g *stripeGroup) {
	su := &stripeUnpacking{vc: vc, node: node, g: g}
	frame := vc.bufs.get(int(g.total))
	su.unpack(p, frame, mad.SendCheaper, mad.ReceiveCheaper)
	su.end(p)
	vc.bufs.put(vc.aggst.striped[g.key.id])
	delete(vc.aggst.striped, g.key.id)
	vc.aggst.rx[node.Rank] = append(vc.aggst.rx[node.Rank], vc.aggOpen(su.from(), frame, frame, nil))
}

// aggDecodeReliable reconstructs an aggregate frame from a reassembled
// reliable message (flagAgg), whose one block its receiver verified against
// the fragments, in a buffer of the wire pool, and queues its sub-messages.
func (vc *VirtualChannel) aggDecodeReliable(p *vtime.Proc, node *mad.Node, m *relMsg) {
	frame := vc.bufs.get(m.desc[0].Size)
	node.Host.Memcpy(p, len(frame))
	off := 0
	for _, f := range m.frags[1:] {
		off += copy(frame[off:], f.payload)
	}
	origin := m.origin
	vc.rel[node.Name].freeMsg(m) // the frame is a copy; the fragments' datagrams go back
	vc.aggst.rx[node.Rank] = append(vc.aggst.rx[node.Rank], vc.aggOpen(origin, frame, frame, nil))
}

// aggUnpacking delivers one coalesced sub-message: its block structure and
// modes were carried inside the frame, so unpack mirrors them like every
// other module and copies the payload out of the (already received) frame.
type aggUnpacking struct {
	handle Unpacking
	vc     *VirtualChannel
	node   *mad.Node
	sub    agg.Sub
	fr     *sinkFrame
	next   int
	off    int
}

func (u *aggUnpacking) unpack(p *vtime.Proc, dst []byte, s mad.SendMode, r mad.RecvMode) {
	if u.next >= u.sub.NumBlocks() {
		panic("fwd: unpack past the end of an aggregated message")
	}
	size, sm, rm := u.sub.Block(u.next)
	u.next++
	if sm != uint8(s) || rm != uint8(r) || size != len(dst) {
		panic(fmt.Sprintf("fwd: protocol error: packed {%dB s=%d r=%d}, unpacked {%dB %v %v}",
			size, sm, rm, len(dst), s, r))
	}
	if size > 0 {
		u.node.Host.Memcpy(p, size)
		copy(dst, u.sub.Payload()[u.off:u.off+size])
	}
	u.off += size
}

func (u *aggUnpacking) end(p *vtime.Proc) {
	if u.next != u.sub.NumBlocks() {
		panic("fwd: aggregated message ended with unconsumed blocks")
	}
	u.vc.hop(p, u.sub.ID, u.node.Name, "deliver", obs.Detail{Form: "decoalesced at ${node}"}, u.off)
	u.vc.aggEnded(u.fr)
}
