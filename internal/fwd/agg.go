package fwd

// Cross-message aggregation: the second half of the eager small-message
// path. The compact framing (stream.go) cuts a small forwarded message from
// three wire transfers to one, but a stream of tiny messages still pays the
// fixed ~40 µs per-transfer software overhead of §3.4.1 once per message.
// The coalescer below amortises it: consecutive sub-MTU messages from one
// node toward one destination are packed into a single MTU-sized aggregate
// frame (codec in package agg) and flushed as ONE wire transfer — one
// per-transfer overhead. A frame leaves at once when none of its coalescer is
// on the wire, else behind the one that is (Nagle's rule without the timer): a
// lone message waits for nothing and a stream batches as much as its path is
// busy (DESIGN.md §24).
//
// A flushed frame is one message to sendBuffered (vchannel.go), the one
// place that gives a message buffered whole its transport: in reliable mode
// one reliable message under a single ARQ sequence, so retransmission and
// failover cover every coalesced sub-message at once; past the stripe
// threshold on a pair with two rails, the rails; else one compact KindAgg
// transfer ([GTM header | frame] with two block descriptors) that gateways
// relay obliviously (gateway.go, classify). flagAgg tells a reliable or
// striped receiver to decode the reassembled bytes as a frame.
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
	frames  freeList[sinkFrame]
	striped map[uint64][]byte
}

func newAggState(nodes int) *aggState {
	return &aggState{co: make(map[aggKey]*aggCoalescer), rx: make([][]aggRx, nodes), striped: make(map[uint64][]byte)}
}

// aggOpen starts delivering the sub-messages of a frame a sink holds in buf,
// with the descriptor pair it travelled with (nil if none).
func (vc *VirtualChannel) aggOpen(from mad.Rank, frame, buf []byte, pair *[2]mad.BlockDesc) aggRx {
	st := vc.aggst
	fr := st.frames.get()
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
		vc.bufs.putPair(fr.pair[:])
	}
	*fr = sinkFrame{}
	vc.aggst.frames.put(fr)
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
// says a sealed frame is on its way, and whoever set it owns body and wire
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

	// body is the frame on its way as the one block its transport sends, here
	// so that a flush allocates none, wire the buffer it lies in behind the
	// GTM header room.
	body [1]relBlock
	wire []byte

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

// outgrowsFrame is the one frame-budget test: whether a message of n blocks
// and total bytes is too large for an empty frame on a path of MTU mtu, once
// the compact transfer's GTM header is in front. The bound, not Builder.Need:
// what goes around must not depend on what is queued.
func outgrowsFrame(n, total, mtu int) bool {
	return agg.HeaderLen+agg.SubSizeParts(n, total) > mtu-gtmHeaderLen
}

// add coalesces one finished message (or, when it cannot fit even an empty
// frame, sends it the ordinary way behind what is queued). Called from
// bufPacking.end on the application's process.
func (c *aggCoalescer) add(p *vtime.Proc, id uint64, blocks []relBlock, total int) {
	if outgrowsFrame(len(blocks), total, c.mtu) {
		c.goAround(p)
		c.vc.sendBuffered(p, c.node, c.dst, id, blocks, total, nil)
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

// flush seals the pending frame and hands it to sendBuffered as ONE message,
// which chooses its transport. Called with mu held and nothing on its way,
// and returns so; mu is free while the frame travels. A no-op on an empty
// builder.
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
	c.wire = c.b.Detach()
	c.busy, c.full = true, false
	c.cond.Broadcast()
	c.mu.Unlock(p)
	c.body[0] = relBlock{data: c.wire[gtmHeaderLen:], s: mad.SendCheaper, r: mad.ReceiveCheaper}
	vc.sendBuffered(p, c.node, c.dst, frameID, c.body[:], flen, c)
	c.mu.Lock(p)
	c.busy = false
	c.cond.Broadcast()
}

// spill switches a message for the coalescer that outgrew the frame budget
// onto the single-rail stream: what its sender coalesced goes first
// (ordering), then the buffered blocks replay and later packs stream on.
// Pairs that buffer (buffers) bypass in add() instead.
func (bp *bufPacking) spill(p *vtime.Proc) {
	vc := bp.vc
	vc.aggCoalescer(bp.node, bp.dst).goAround(p)
	hop, link := vc.firstHop(bp.node, bp.dst)
	vc.hop(p, bp.id, bp.node.Name, "pack",
		obs.Detail{Form: "agg spill -> ${peer} via ${net} (outgrew frame budget)", Peer: bp.dst, Net: hop.Network}, bp.total)
	blocks := bp.blks
	bp.blks = nil
	bp.spilled = vc.openSingleRail(p, bp.node, bp.dst, hop, link, bp.id)
	replay(p, bp.spilled, blocks)
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
	su := vc.recs.stripeUnpacking.get()
	su.vc, su.node, su.g = vc, node, g
	from := su.from()
	frame := vc.bufs.get(int(g.total))
	su.unpack(p, frame, mad.SendCheaper, mad.ReceiveCheaper)
	su.end(p)
	vc.bufs.put(vc.aggst.striped[g.key.id])
	delete(vc.aggst.striped, g.key.id)
	vc.aggQueue(node.Rank, vc.aggOpen(from, frame, frame, nil))
}

// aggDecodeReliable reconstructs an aggregate frame from a reassembled
// reliable message (flagAgg), whose one block its receiver verified against
// the fragments, in a buffer of the wire pool, and queues its sub-messages.
func (vc *VirtualChannel) aggDecodeReliable(p *vtime.Proc, node *mad.Node, h *heldMsg) {
	frame := vc.bufs.get(h.blocks[0].Size)
	node.Host.Memcpy(p, len(frame))
	off := 0
	for _, f := range h.frags {
		off += copy(frame[off:], f)
	}
	vc.aggQueue(node.Rank, vc.aggOpen(h.src, frame, frame, nil))
	vc.release(h) // the frame is a copy; the fragments' datagrams go back
}

// aggQueue queues a frame a process of the sink took off the arrival queue.
// If it holds more than its taker's sub-message, an empty entry wakes a
// process parked on that queue to share it; a sink of one process has none.
func (vc *VirtualChannel) aggQueue(rank mad.Rank, rx aggRx) {
	vc.aggst.rx[rank] = append(vc.aggst.rx[rank], rx)
	if q := vc.merged[rank]; rx.rd.Count() > 1 && q.Receivers() > 0 {
		q.TrySend(incoming{})
	}
}

// aggUnpacking delivers one coalesced sub-message: its block structure and
// modes were carried inside the frame, so unpack mirrors them like every
// other module and copies the payload out of the (already received) frame.
type aggUnpacking struct {
	gen  uint32
	vc   *VirtualChannel
	node *mad.Node
	sub  agg.Sub
	fr   *sinkFrame
	next int
	off  int
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
	u.vc.recs.aggUnpacking.retire(u, &u.gen)
}
