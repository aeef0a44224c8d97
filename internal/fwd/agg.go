package fwd

// Cross-message aggregation: the eager small-message path (Config.Eager).
// The seed framing spends three wire transfers, and the fixed ~40 µs
// per-transfer software overhead of §3.4.1 three times, on a small forwarded
// message. The coalescer below amortises it: every message from one node
// toward one forwarded destination is offered to it, and consecutive ones
// that fit are packed into a single MTU-sized aggregate frame (codec in
// package agg) and flushed as ONE wire transfer — one per-transfer
// overhead. A frame leaves at once when its coalescer's window has room — one
// frame on the wire streaming, relFrameWindow awaiting end-to-end acks
// reliable — else behind the frames that fill it (Nagle's rule without the
// timer): a lone message waits for nothing and a stream batches as much as
// its path is busy (DESIGN.md §24).
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
// Ordering: a reliable pair's frames may ride different rails, so its messages
// are numbered — a frame at its flush, one that goes around in goAround — and
// its sink delivers them in sequence (relEngine.inOrder). A message too large
// to coalesce (it takes the compact stream) or a multicast waits for the frames
// in flight and flushes what is pending ("ordering" flush) before it goes
// around — per-sender delivery order toward one destination holds across
// small/large and unicast/multicast mixes. At the sink a frame takes its turn
// in the merged arrival queue and its sub-messages are delivered FIFO before
// any new arrival is pulled.

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
	spare[sinkFrame]
	buf  []byte          // the wire-pool buffer the frame lies in
	pair []mad.BlockDesc // the descriptor pair it travelled with, if it came in one transfer
	open int
}

// AggStats aggregates the coalescing layer's counters. All fields are zero
// when Config.Eager is off.
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
	frames  freeList[sinkFrame, *sinkFrame]
	striped map[uint64][]byte
}

func newAggState(nodes int) *aggState {
	return &aggState{co: make(map[aggKey]*aggCoalescer), rx: make([][]aggRx, nodes), striped: make(map[uint64][]byte)}
}

// aggOpen starts delivering the sub-messages of a frame a sink holds in buf,
// with the descriptor pair it travelled with (nil if none).
func (vc *VirtualChannel) aggOpen(from mad.Rank, frame, buf []byte, pair []mad.BlockDesc) aggRx {
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
	vc.bufs.Put(fr.buf)
	if fr.pair != nil {
		vc.bufs.PutPair(fr.pair)
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
		s.SizeFlushes += c.sizeFrames.Count()
		s.IdleFlushes += c.idleFrames.Count()
		s.OrderingFlushes += c.orderingFrames.Count()
		s.BypassMessages += c.bypass.Count()
	}
	s.Frames = s.SizeFlushes + s.IdleFlushes + s.OrderingFlushes
	return s
}

// aggCoalescer batches one (node, destination) pair's small messages. mu
// guards the pending frame and is never held across a wire transfer. next is
// the number the pair's next message takes, base the oldest not settled (off
// the wire when streaming, acknowledged end to end when reliable), and acked
// marks those after base that settled out of order, bit i for base+i. On cond
// the daemon waits for work and a free slot, a bypass or spill for the frames
// in flight, a sender for room. There is no second lock.
type aggCoalescer struct {
	vc   *VirtualChannel
	node *mad.Node
	dst  string
	mtu  int
	// limit is the frame byte budget: the path MTU minus the GTM header
	// the compact transfer prepends.
	limit int

	mu         vsync.Mutex
	cond       vsync.Cond
	next, base uint32
	acked      uint32
	window     uint32 // relFrameWindow in reliable mode, 1 streaming
	full       bool   // a sender is parked on the pending frame: it has no room for its message
	b          *agg.Builder
	// enq and ids remember each queued sub-message's enqueue instant and
	// message ID for the agg-wait attribution at flush time.
	enq     []vtime.Time
	ids     []uint64
	scratch []agg.Block

	// out is the frame being flushed as the one message its transport sends,
	// a record of the coalescer's own, and body its one block, which lies in
	// out.wire behind the GTM header room: here so that a flush takes and
	// allocates nothing. The flush that fills them owns them until
	// sendBuffered returns, which queues a reliable frame without parking.
	out  gtmPacking
	body [1]relBlock

	// The coalescer's counts and wait histogram handle, labelled {node} — a
	// series sums the node's coalescers — the frame counts also by reason.
	bypass, subs, frameBytes               obs.Counter
	sizeFrames, idleFrames, orderingFrames obs.Counter
	wait                                   *obs.Histogram
	fr                                     *flight.Ring
}

// BindMetrics binds the coalescer's metrics in m.
func (c *aggCoalescer) BindMetrics(m *obs.Registry) {
	node := obs.Labels{"node": c.node.Name}
	m.BindCounter(&c.bypass, "madgo_agg_bypass_total", node)
	m.BindCounter(&c.subs, "madgo_agg_submessages_total", node)
	m.BindCounter(&c.frameBytes, "madgo_agg_frame_bytes_total", node)
	c.wait = m.BindHistogram("madgo_agg_queue_wait_seconds", node)
	for reason, frames := range map[string]*obs.Counter{"size": &c.sizeFrames, "idle": &c.idleFrames, "ordering": &c.orderingFrames} {
		m.BindCounter(frames, "madgo_agg_frames_total", obs.Labels{"node": c.node.Name, "reason": reason})
	}
}

// coalescerOf returns the coalescer of node toward dst, nil if it has none.
func (vc *VirtualChannel) coalescerOf(node, dst string) *aggCoalescer {
	if vc.aggst == nil {
		return nil
	}
	return vc.aggst.co[aggKey{node: node, dst: dst}]
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
	window := uint32(1)
	if vc.cfg.Reliable {
		window = relFrameWindow
	}
	c := &aggCoalescer{
		vc: vc, node: node, dst: dst,
		mtu: mtu, limit: mtu - gtmHeaderLen,
		next: 1, base: 1, window: window, // 0 numbers no message
		// The builder reserves the GTM header bytes in front of the frame,
		// so a flush detaches a ready-made wire payload with no extra copy.
		b:  agg.NewBuilderPrefix(gtmHeaderLen, 0),
		fr: vc.flightRing(node.Name),
	}
	c.cond.L = &c.mu
	c.out.vc, c.out.node, c.out.dst, c.out.blks = vc, node, dst, c.body[:]
	st.co[key] = c
	vc.sess.Platform.Instrument(c)
	vc.sess.Platform.Sim.SpawnDaemon(fmt.Sprintf("agg-flush:%s>%s", node.Name, dst), c.run)
	return c
}

// run is the flush daemon: whenever something is pending and the window has
// room, it sends what is pending. It has no timer.
func (c *aggCoalescer) run(p *vtime.Proc) {
	c.mu.Lock(p)
	for {
		for c.inflight() >= c.window || c.b.Count() == 0 {
			c.cond.Wait(p)
		}
		reason, frames := "idle", &c.idleFrames
		if c.full {
			reason, frames = "size", &c.sizeFrames
		}
		c.flush(p, reason, frames)
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
// gtmPacking.end on the application's process.
func (c *aggCoalescer) add(p *vtime.Proc, x *gtmPacking) {
	id, blocks, total := x.id, x.blks, x.total
	if outgrowsFrame(len(blocks), total, c.mtu) {
		c.sendAround(p, x, 1)
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
		c.b.Arm(c.vc.bufs.Get(c.mtu))
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

// sendAround sends x, a message of the pair that rides no frame, behind the
// pair's frames (goAround). In reliable mode it takes the pair's next number,
// in which its sink delivers it, and frees that slot once it is acknowledged.
func (c *aggCoalescer) sendAround(p *vtime.Proc, x *gtmPacking, bypass int64) {
	x.seq = c.goAround(p, bypass, c.vc.cfg.Reliable)
	c.vc.sendBuffered(p, x)
	if x.seq != 0 {
		c.settled(x.seq)
	}
}

// goAround waits until the pair's messages in flight settle, flushes what is
// pending ("ordering") and waits for that frame too, so everything its sender
// coalesced is delivered ahead of what goes around the coalescer next: a
// message too large for a frame, which counts bypass, or a multicast. A
// numbered message takes the next number, returned; the caller settles its
// slot. Others get 0.
func (c *aggCoalescer) goAround(p *vtime.Proc, bypass int64, numbered bool) (seq uint32) {
	c.mu.Lock(p)
	for c.inflight() > 0 {
		c.cond.Wait(p)
	}
	c.flush(p, "ordering", &c.orderingFrames)
	for c.inflight() > 0 {
		c.cond.Wait(p)
	}
	c.bypass.Add(bypass)
	if numbered {
		seq = c.next
		c.next++
	}
	c.mu.Unlock(p)
	return seq
}

// inflight is how many of the pair's numbered messages are on their way,
// counted from the oldest not settled.
func (c *aggCoalescer) inflight() uint32 { return c.next - c.base }

// settled frees message seq's slot and slides the window past those settled.
// It runs in whichever process or callback learns it, and takes no lock.
func (c *aggCoalescer) settled(seq uint32) {
	c.acked |= 1 << (seq - c.base)
	for c.acked&1 != 0 {
		c.acked >>= 1
		c.base++
	}
	c.cond.Broadcast()
}

// flush seals and numbers the pending frame and hands it to sendBuffered as ONE
// message, which chooses its transport, and counts it in frames. Called with mu
// held and a slot free, and returns so; mu is free while the frame is handed
// on. A no-op on an empty builder.
func (c *aggCoalescer) flush(p *vtime.Proc, reason string, frames *obs.Counter) {
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
	frames.Add(1)
	vc.hop(p, frameID, c.node.Name, "agg",
		obs.Detail{Form: "flush(${note}) -> ${peer}: ${a} msgs, ${bytes} bytes", Note: reason, Peer: c.dst, A: c.b.Count()}, flen)

	// Detach the sealed buffer for whichever transport carries it: the wire
	// layer references payloads and the ARQ may retransmit, so it must stay
	// untouched while it travels, and the add()-time pack remains the path's
	// only copy. Senders pack the next frame, in a buffer of its own, while
	// this one is on the wire.
	x := &c.out
	x.id, x.seq, x.total, x.wire = frameID, c.next, flen, c.b.Detach()
	c.next++
	c.full = false
	c.cond.Broadcast()
	c.mu.Unlock(p)
	c.body[0] = relBlock{data: x.wire[gtmHeaderLen:], s: mad.SendCheaper, r: mad.ReceiveCheaper}
	vc.sendBuffered(p, x)
	c.mu.Lock(p)
	if !vc.cfg.Reliable {
		c.settled(x.seq) // off the wire; a reliable frame's record settles it (relEngine.settle)
	}
}

// spill turns a message for the coalescer that outgrew the frame budget into
// a stream, in place: what its sender coalesced goes first (ordering), then
// the buffered blocks and later packs stream on. Pairs that buffer (buffers)
// bypass in add() instead.
func (x *gtmPacking) spill(p *vtime.Proc) {
	vc := x.vc
	vc.aggCoalescer(x.node, x.dst).goAround(p, 1, false)
	hop, link := vc.firstHop(x.node, x.dst)
	vc.hop(p, x.id, x.node.Name, "pack",
		obs.Detail{Form: "agg spill -> ${peer} via ${net} (outgrew frame budget)", Peer: x.dst, Net: hop.Network}, x.total)
	x.stream(p, link)
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
func (vc *VirtualChannel) aggDecodeStriped(p *vtime.Proc, node *mad.Node, u *streamUnpacking) {
	h := u.rails[0].h
	frame := vc.bufs.Get(int(h.total))
	u.unpack(p, frame, mad.SendCheaper, mad.ReceiveCheaper)
	u.end(p)
	vc.bufs.Put(vc.aggst.striped[h.id])
	delete(vc.aggst.striped, h.id)
	vc.aggQueue(node.Rank, vc.aggOpen(h.src, frame, frame, nil))
}

// aggDecodeReliable reconstructs an aggregate frame from a reassembled
// reliable message (flagAgg), whose one block its receiver verified against
// the fragments, in a buffer of the wire pool, and queues its sub-messages.
func (vc *VirtualChannel) aggDecodeReliable(p *vtime.Proc, node *mad.Node, h *heldMsg) {
	frame := vc.bufs.Get(h.blocks[0].Size)
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
	framingRec[aggUnpacking]
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
