package fwd

// Reliable delivery: the robustness mode of the forwarding layer.
//
// The paper's forwarding machinery assumes perfect hardware: every packet a
// gateway relays arrives intact, so the GTM can stream packets with no
// sequencing or acknowledgement. Under the fault injector (package fault)
// that assumption breaks, and Config.Reliable replaces the streaming GTM
// with a reliable datagram protocol:
//
//   - Every message is cut into self-contained packets: fragment 0 carries
//     the message descriptor (the per-block layout), fragments 1..total-1
//     carry the payload. Each packet names the
//     message's origin, final destination, message id and fragment index,
//     so any node can route it and the final destination can reassemble
//     and de-duplicate.
//   - Packets travel hop by hop with windowed acknowledgements, jittered
//     backoff, and a bounded retry budget per hop. Every outcome is evidence
//     for the link-health monitor (package health, health.go), which owns
//     liveness: a hop that exhausts its budget reports the link dead, the
//     monitor publishes a new epoch of route tables every node shares
//     (multi-gateway failover, or degradation to the slow control network
//     when Config.FallbackTopo names one) and probes the link back in.
//   - Hop acknowledgements only say a relay accepted the packet; a crash
//     can still lose accepted packets. The final destination therefore
//     returns an end-to-end acknowledgement (itself a reliably-delivered
//     packet), and the origin re-sends the whole message when it times
//     out; duplicates are suppressed at the final destination.
//   - A sender whose retries and reroutes all fail surfaces a typed
//     *DeliveryError through vtime.Abort, so the simulation ends with an
//     error instead of deadlocking.
//
// Deadlock freedom: the per-network polling daemons always Recv (which
// frees the link's eager flow-control credit) before doing anything else,
// and never block on sends — hop-ack batches and probe echoes leave through
// the link's control send, which takes no credit and never parks, and relays
// go to a per-node dispatcher serving one bounded deficit-round-robin queue
// per ingress neighbour, fed by non-blocking enqueue. Every burst this node
// puts on a link — one the dispatcher forms, one its own application sends —
// goes through the send daemon of its (final destination, first hop) pair,
// which never waits on another daemon. A full queue just means no ack, which
// the upstream retry converts into a retransmission later.

import (
	"encoding/binary"
	"fmt"
	"slices"

	"madgo/internal/flight"
	"madgo/internal/flow"
	"madgo/internal/mad"
	"madgo/internal/obs"
	"madgo/internal/route"
	"madgo/internal/topo"
	"madgo/internal/vtime"
	"madgo/internal/vtime/vsync"
)

// The reliability protocol's timeouts and budgets. They are sized for the
// paper's testbed: the slowest hop (Fast Ethernet) moves a 32 KB fragment in
// under 3 ms, safely inside the 5 ms initial ack timeout. relE2EBase exceeds a
// full dead-neighbour detection cycle (relPacketRetries doubling timeouts,
// ~155 ms) so that one message attempt survives a downstream relay — or the
// returning end-to-end acknowledgement — having to discover a crashed gateway
// itself.
const (
	// relAckTimeout is the initial per-hop acknowledgement timeout; retries
	// draw the next one with decorrelated jitter up to relMaxTimeout.
	relAckTimeout = 5 * vtime.Millisecond
	// relMaxTimeout caps the per-hop timeout and the inter-attempt backoff
	// of whole-message resends.
	relMaxTimeout = 80 * vtime.Millisecond
	// relPacketRetries is how many times one packet is retransmitted on one
	// hop before the neighbour is presumed dead.
	relPacketRetries = 5
	// relMessageRetries is how many times the whole message is re-sent after
	// an end-to-end acknowledgement timeout before the sender gives up with
	// a DeliveryError.
	relMessageRetries = 3
	// The end-to-end acknowledgement timeout is relE2EBase plus
	// relE2EPerFrag per fragment of the message.
	relE2EBase, relE2EPerFrag = 250 * vtime.Millisecond, 5 * vtime.Millisecond
	// relRouteAttempts bounds how many alternate next hops one packet tries
	// before its forwarding fails.
	relRouteAttempts = 3
	// relWindow is the per-hop ARQ window, packets one sender keeps in flight
	// toward one neighbour, and a send daemon's slots. The receiver coalesces
	// a window's hop acks into one control datagram (the last packet of a
	// burst requests the flush).
	relWindow = 8
)

// DeliveryError reports that a message could not be delivered: every
// retransmission, reroute and whole-message resend failed. It reaches the
// caller of Sim.Run (and madeleine.System.Run) via vtime.Abort.
type DeliveryError struct {
	From     string
	To       string
	Reason   string // "timeout" (no end-to-end ack) or "unreachable" (no route left)
	Attempts int
	// Cause is the typed underlying failure, when one exists: an
	// "unreachable" delivery wraps *route.NoRouteError, so callers can
	// match errors.Is(err, route.ErrNoRoute) instead of parsing Reason.
	Cause error
}

func (e *DeliveryError) Error() string {
	return fmt.Sprintf("fwd: delivery %s -> %s failed after %d attempt(s): %s",
		e.From, e.To, e.Attempts, e.Reason)
}

// Unwrap exposes the typed cause to errors.Is / errors.As.
func (e *DeliveryError) Unwrap() error { return e.Cause }

// DeliveryStats aggregates the reliability protocol's counters over every
// node of the virtual channel. All zero on a fault-free run.
type DeliveryStats struct {
	Retransmits    int64 // per-hop packet retransmissions
	Failovers      int64 // links reported dead to the health monitor and routed around
	MessageResends int64 // whole-message resends after e2e timeouts
	Duplicates     int64 // duplicate packets suppressed at destinations
	// ChecksumDrops counts transfers the receiving link discarded corrupt
	// (mad.Link.deliver) and datagrams the engine found malformed.
	ChecksumDrops int64
	// RelayDrops counts packets a relay refused for want of any route but
	// back, and bursts it accepted and could not forward. An admission refused
	// at a full relay queue is not a drop: FlowStats.Backpressure.
	RelayDrops int64
}

// Wire format (all little-endian). Integrity and order are the links': a
// transfer arrives intact or not at all (mad.Link.deliver discards one the
// injector corrupts, as a NIC whose CRC fails would), so no datagram carries
// a checksum.
//
//	data:  src u32 | mtu u32 | msgID u64 | dst u32 |    the unicast stream header
//	       frag u24 | total u24 | flags u8 | payload
//	ack:   count u8 | count × seq u64
//
// A data datagram is a stream kind: it opens with the unicast stream header
// (stream.go, DESIGN.md §34), src the origin, dst the final destination and
// mtu the size the origin fragmented at; relMaxFrags fits frag in 24 bits.
//
// A hop ack names one transfer by the sequence number its link stamped on it
// (mad.TxMeta.Seq), on the link the ack travels back along. Acks are batched:
// a receiver accumulates the hop acks of a sender's burst and emits them as
// one control datagram when the burst's flush-flagged last packet arrives (or
// the batch cap is hit).
//
// An end-to-end acknowledgement is a data packet with frag == e2eFrag,
// total == 0, an empty payload, dst == src and the channel's MTU, which
// nothing reads — routed back to the message origin through the same
// reliable relay machinery as data.
const (
	relDataHdrLen  = gtmHeaderLen + 7
	relAckEntry    = 8
	relAckBatchMax = 64 // the entries of one batch at most; its count is one byte
)

// relFlagFlush asks the receiver to emit its pending hop acks for this
// link immediately: set on the last packet of every burst and on every
// retransmission.
const relFlagFlush = 1 << 0

// e2eFrag is the fragment-index sentinel marking an end-to-end ack packet:
// the largest 24-bit index, above any a message can have.
const e2eFrag = 1<<24 - 1

// relMaxFrags < e2eFrag < 1<<24, or a constant goes negative: no compile.
const (
	_ uint = e2eFrag - relMaxFrags - 1
	_ uint = 1<<24 - 1 - e2eFrag
)

// relData is a decoded data packet. payload aliases the datagram it was
// decoded from — or, at the message's origin, the application's memory.
type relData struct {
	src     mad.Rank // the message's origin
	dst     mad.Rank // its final destination
	id      uint64
	frag    uint32
	total   uint32
	mtu     uint32 // the header's
	flags   uint8
	payload []byte
	// buf is the received datagram payload aliases: a pooled buffer this
	// node owns from the link's hand-over until it returns it to the virtual
	// channel's pool (vc.bufs). Nil for a packet this node originated.
	buf []byte
}

// relDataLen is the datagram size of a data packet.
func relDataLen(payload int) int { return relDataHdrLen + payload }

// putRelData encodes one data packet into pkt, whose length is relDataLen of
// the payload. Every byte of pkt is written: the buffer comes from a free list
// and holds whatever its last packet left.
func putRelData(pkt []byte, d *relData, flags uint8) {
	if len(pkt) != relDataLen(len(d.payload)) {
		panic("fwd: reliable packet buffer of the wrong size")
	}
	putStreamHeader(pkt[:gtmHeaderLen], mad.KindRel, streamHdr{src: d.src, dst: d.dst, mtu: int(d.mtu), id: d.id})
	putUint24(pkt[20:], d.frag)
	putUint24(pkt[23:], d.total)
	pkt[26] = flags
	copy(pkt[relDataHdrLen:], d.payload)
}

// decodeRelData parses one data datagram: its stream header (a zero MTU is
// rejected there) and the fields behind it.
func decodeRelData(pkt []byte) (relData, bool) {
	if len(pkt) < relDataHdrLen {
		return relData{}, false
	}
	h, ok := decodeStreamHeader(mad.KindRel, pkt[:gtmHeaderLen], nil)
	return relData{src: h.src, dst: h.dst, id: h.id, mtu: uint32(h.mtu),
		frag: getUint24(pkt[20:]), total: getUint24(pkt[23:]), flags: pkt[26],
		payload: pkt[relDataHdrLen:]}, ok
}

func putUint24(b []byte, v uint32) { b[0], b[1], b[2] = byte(v), byte(v>>8), byte(v>>16) }

func getUint24(b []byte) uint32 { return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 }

// relAcksLen is the datagram size of a batch of n acknowledgements.
func relAcksLen(n int) int { return 1 + relAckEntry*n }

// putRelAcks encodes one acknowledgement batch into pkt, whose length is
// relAcksLen(len(seqs)).
func putRelAcks(pkt []byte, seqs []uint64) {
	if len(seqs) == 0 || len(seqs) > relAckBatchMax || len(pkt) != relAcksLen(len(seqs)) {
		panic("fwd: ack batch size out of range, or its buffer of the wrong size")
	}
	pkt[0] = byte(len(seqs))
	for i, seq := range seqs {
		binary.LittleEndian.PutUint64(pkt[1+relAckEntry*i:], seq)
	}
}

// decodeRelAcks checks one acknowledgement batch and returns its entries,
// still encoded: whole relAckEntry-byte sequence numbers.
func decodeRelAcks(pkt []byte) ([]byte, bool) {
	if len(pkt) == 0 || pkt[0] == 0 || pkt[0] > relAckBatchMax || len(pkt) != relAcksLen(int(pkt[0])) {
		return nil, false
	}
	return pkt[1:], true
}

// The fragment-0 descriptor payload mirrors what the GTM transmits piece by
// piece: the per-block sizes and flag constraints the receiver's unpack calls
// must match. The MTU the blocks are cut at is the header's.
//
//	nblocks u32 | nblocks × (size u32 | sendMode u8 | recvMode u8)
func relDescLen(nblocks int) int { return 4 + 6*nblocks }

// putRelDesc encodes the descriptor into b, whose length is
// relDescLen(len(blocks)).
func putRelDesc(b []byte, blocks []relBlock) {
	binary.LittleEndian.PutUint32(b[0:], uint32(len(blocks)))
	off := 4
	for _, bl := range blocks {
		binary.LittleEndian.PutUint32(b[off:], uint32(len(bl.data)))
		b[off+4] = byte(bl.s)
		b[off+5] = byte(bl.r)
		off += 6
	}
}

// decodeRelDesc parses a descriptor into desc's storage where it is large
// enough (a recycled message record's), else into an allocation of its own.
func decodeRelDesc(b []byte, desc []mad.BlockDesc) ([]mad.BlockDesc, bool) {
	if len(b) < 4 || len(b) != relDescLen(int(binary.LittleEndian.Uint32(b))) {
		return nil, false
	}
	n := (len(b) - 4) / 6
	desc = slices.Grow(desc[:0], n)[:n]
	off := 4
	for i := range desc {
		desc[i] = mad.BlockDesc{
			Size: int(binary.LittleEndian.Uint32(b[off:])),
			S:    mad.SendMode(b[off+4]),
			R:    mad.RecvMode(b[off+5]),
		}
		off += 6
	}
	return desc, true
}

// relMeta is the link-layer metadata of one reliable packet: a single-block,
// single-transmission message flagged Reliable so it takes the plain eager
// path and is subject to fault injection, and Owned so its buffer is handed
// to the receiver. The link describes the one block itself.
func relMeta(kind mad.Kind) mad.TxMeta {
	return mad.TxMeta{SOM: true, Reliable: true, Owned: true, Kind: kind}
}

// linkSeq names one transfer: the link it left on and the sequence number
// the link stamped on it. A hop ack names the transfer it acknowledges, so a
// retransmission, or a second sender of the same packet, is awaited apart.
type linkSeq struct {
	link *mad.Link
	seq  uint64
}

// relPend is a reverse link's pending hop acks, in first until they outgrow
// it.
type relPend struct {
	seqs  []uint64
	first [8]uint64
}

// relMsgKey identifies one message.
type relMsgKey struct {
	origin mad.Rank
	id     uint64
}

// relAwait is a one-shot completion slot shared between a waiting sender and
// the acknowledgement handler (or the timeout callback, whichever fires
// first). Slots are recycled through their engine's free list: the waker is
// embedded, and the timeout is the engine's one callback, told the slot by
// its index in relEngine.awaits and the timeouts of its earlier uses apart by
// the generation it was scheduled under.
type relAwait struct {
	spare[relAwait]
	w      vtime.Waker
	parked bool // a process is inside await on this slot
	done   bool
	ok     bool
	idx    uint32     // the slot's index in relEngine.awaits, plus one
	gen    uint32     // bumped whenever the slot is re-armed or released
	sentAt vtime.Time // deliverBurst: when the packet last went out
	seq    uint64     // deliverBurst: the sequence number it went out under
}

// awaitTimeout fires in scheduler context when a wait runs out: arg is the
// slot's idx and, in its low 32 bits, the generation the wait was armed under.
func (e *relEngine) awaitTimeout(arg uint64) {
	aw := e.awaits[arg>>32-1]
	if uint32(arg) != aw.gen || aw.done {
		return
	}
	aw.done = true
	aw.ok = false
	aw.w.Wake()
}

// rearm readies a completed slot for another wait, orphaning the timeout of
// the previous one.
func (aw *relAwait) rearm() {
	aw.gen++
	aw.done, aw.ok = false, false
}

// relayItem is one packet queued for forwarding by a node's relay dispatcher.
// The packet is re-encoded at the next hop (piggybacking fresh acks), so
// only the decoded form travels through the queue — with the datagram it
// aliases, which the burst returns to the pool once it is acknowledged or
// given up on (relEngine.retire). from names the ingress neighbour ("" for
// locally-originated packets): split horizon never forwards a packet back
// out the way it came, which breaks the routing loops two nodes with
// inconsistent liveness views would otherwise bounce a packet around.
type relayItem struct {
	d    relData
	from string
	enq  vtime.Time // enqueue instant, for queue-wait attribution (0 = unknown)
}

const (
	// relRelayCap bounds each node's relay backlog (items across all
	// ingress flows); an admission past the cap is refused without an ack
	// and the upstream ARQ retransmits.
	relRelayCap = 1024
	// relDupWindow is how many completed message IDs per origin the
	// duplicate-suppression record keeps exactly; older IDs are summarised
	// by a floor. 512 spans far more concurrent in-flight messages per
	// (origin, destination) pair than the blocking send API can produce.
	relDupWindow = 512
	// relRxCap bounds a node's concurrent reassembly states; admitting a
	// new message past the cap evicts the oldest partial (its origin's
	// end-to-end timeout resends the whole message — lossy for progress,
	// never for correctness).
	relRxCap = 128
	// relMaxFrags bounds the fragment count a receiver sizes a reassembly
	// for: a packet announcing more is malformed, whatever its checksum says.
	relMaxFrags = 1 << 20
)

// relDoneWindow is the bounded per-origin duplicate-suppression record: the
// last relDupWindow completed message IDs exactly, and a floor summarising
// everything evicted. Per-origin IDs are issued monotonically and the
// blocking send API keeps few of them in flight at once, so by the time an
// ID is evicted every smaller ID from that origin has long completed —
// "at or below the floor" is then a sound duplicate verdict. This replaces
// an ever-growing done map: a long-lived node's bookkeeping stays O(origins
// × window) no matter how many messages it receives: one fixed 4 KiB ring,
// which a lookup scans unless the ID is past the largest completed.
type relDoneWindow struct {
	ring     [relDupWindow]uint64 // ring[:n] are exact; once full, ring[head] is the oldest
	head, n  int
	top      uint64 // the largest ID completed
	floor    uint64
	hasFloor bool
}

func (w *relDoneWindow) has(id uint64) bool {
	return w != nil && (w.hasFloor && id <= w.floor || id <= w.top && slices.Contains(w.ring[:w.n], id))
}

func (w *relDoneWindow) add(id uint64) {
	if w.has(id) {
		return
	}
	w.top = max(w.top, id)
	if w.n < relDupWindow {
		w.ring[w.n] = id
		w.n++
		return
	}
	old := w.ring[w.head]
	w.ring[w.head] = id
	w.head = (w.head + 1) % relDupWindow
	if !w.hasFloor || old > w.floor {
		w.floor, w.hasFloor = old, true
	}
}

// size returns how many IDs the window tracks exactly (a test hook for the
// memory-growth regression).
func (w *relDoneWindow) size() int { return w.n }

// relEngine is the per-node reliability engine: sequence numbers, awaited
// acknowledgements, reassembly state, the relay queue and counters. Liveness
// is the health monitor's (vc.mon), not the engine's. All of it runs under
// the single-threaded simulation scheduler, so no locking.
type relEngine struct {
	vc   *VirtualChannel
	node *mad.Node
	rng  relRand // decorrelated-jitter state, seeded from the node name

	acks map[linkSeq]*relAwait
	e2e  map[relMsgKey]*relAwait
	rx   map[relMsgKey]*heldMsg // messages under reassembly, each in the record its sink reads
	done map[mad.Rank]*relDoneWindow

	// pend accumulates hop acknowledgements per reverse link until a
	// flush (or the batch cap) drains them into one control datagram.
	pend map[*mad.Link]*relPend

	// Every completion slot the engine made, by index, and the one timeout
	// callback of them all (awaitTimeout), bound at Build.
	awaits []*relAwait
	expire func(uint64)

	// The node's outstanding health probes (health.go), the last sequence
	// number one was sent under, and their timeout (probeTimeout), bound at
	// Build.
	probes      []relProbe
	probeSeq    uint64
	probeExpire func(uint64)

	// relayDRR is the relay dispatcher's queue, a deficit-round-robin
	// scheduler over ingress neighbours ("" for what this node originates)
	// that serves only items whose final destination is not busy with a
	// relayed burst (busy is made by the first burst, as the daemons are, so
	// Build stays level). senders are the send daemons every burst leaving
	// this node goes through, by (final destination, first hop), each made
	// by its pair's first burst.
	relayDRR *flow.DRR[relayItem]
	busy     []bool
	senders  map[relHop]*relSender

	// gw is this node's gateway, which counts what the node relays; nil on
	// a node that is no gateway of the primary topology.
	gw *Gateway

	fr *flight.Ring // cached flight ring; nil until a recorder is armed

	// Recycled bookkeeping (DESIGN.md §17). Several processes send on one
	// engine at once — its applications and its send daemons — so these are
	// free lists, not single scratch slots.
	awFree    freeList[relAwait, *relAwait] // completion slots
	burstFree freeList[relBurst, *relBurst] // queued bursts, relay batches attached
	outFree   freeList[relOut, *relOut]     // sent messages, packet lists and stripe plans attached

	// The node's event counts, by the rel* indexes below: what the stats
	// accessors sum, and the node's {node} series once bound.
	counters [len(relCounterNames)]obs.Counter
}

// down reports whether this node is in a crash window at now. All it sends is
// lost then, and blaming its links for that would bar its live peers as relays.
func (e *relEngine) down(now vtime.Time) bool {
	inj := e.vc.sess.Platform.Faults
	return inj != nil && inj.NodeDead(e.node.Name, now)
}

func (e *relEngine) sim() *vtime.Sim { return e.vc.sess.Platform.Sim }

// flight returns this node's flight-recorder ring, resolved lazily so a
// recorder armed after Build is still picked up, then cached.
func (e *relEngine) flight() *flight.Ring {
	if e.fr == nil {
		e.fr = e.vc.flightRing(e.node.Name)
	}
	return e.fr
}

// hop appends one provenance event for message id at this node.
func (e *relEngine) hop(p *vtime.Proc, id uint64, op string, d obs.Detail, bytes int) {
	e.vc.hop(p, id, e.node.Name, op, d, bytes)
}

// The per-node reliability counters, by index into relCounterNames.
const (
	relRetransmits = iota
	relFailovers
	relMsgResends
	relDuplicates
	relChecksumDrops
	relRelayDrops
	relRxEvictions   // partial reassemblies evicted at the relRxCap bound
	relAckPackets    // standalone ack datagrams emitted
	relAcksCoalesced // ack entries that avoided their own datagram
	// relBackpressure counts relay admissions refused at relRelayCap and
	// completing fragments refused at a full merged queue — lossless
	// backpressure, the upstream ARQ retransmits.
	relBackpressure
)

// relCounterNames are the per-node reliability counters, pre-registered at
// zero by buildReliable so a snapshot of a clean run still shows the series.
var relCounterNames = [...]string{
	relRetransmits:   "madgo_retransmits_total",
	relFailovers:     "madgo_failovers_total",
	relMsgResends:    "madgo_message_resends_total",
	relDuplicates:    "madgo_duplicates_total",
	relChecksumDrops: "madgo_checksum_drops_total",
	relRelayDrops:    "madgo_relay_drops_total",
	relRxEvictions:   "madgo_rel_rx_evictions_total",
	relAckPackets:    "madgo_rel_ack_packets_total",
	relAcksCoalesced: "madgo_rel_acks_coalesced_total",
	relBackpressure:  "madgo_flow_backpressure_total",
}

// BindMetrics attaches the node's counts to their series in m.
func (e *relEngine) BindMetrics(m *obs.Registry) {
	node := obs.Labels{"node": e.node.Name}
	for i, name := range relCounterNames {
		m.BindCounter(&e.counters[i], name, node)
	}
}

// count adds n events to one of the node's counters.
func (e *relEngine) count(i int, n int64) { e.counters[i].Add(n) }

// buildReliable wires the reliable delivery machinery: one engine per node,
// one polling daemon per (node, network), a per-node relay dispatcher, and
// the monitor's probe sink. Gateway stat objects are created for the primary
// topology's gateways so tools keep working, but no streaming pipelines start.
func (vc *VirtualChannel) buildReliable(buildTopo *topo.Topology) {
	sim := vc.sess.Platform.Sim
	vc.rel = make(map[string]*relEngine)
	for _, n := range buildTopo.Nodes() {
		node := vc.nodes[n.Name]
		e := &relEngine{
			vc:       vc,
			node:     node,
			rng:      seedRelRand(n.Name),
			acks:     make(map[linkSeq]*relAwait),
			e2e:      make(map[relMsgKey]*relAwait),
			rx:       make(map[relMsgKey]*heldMsg),
			done:     make(map[mad.Rank]*relDoneWindow),
			pend:     make(map[*mad.Link]*relPend),
			relayDRR: flow.NewDRR[relayItem](int64(vc.cfg.MTU)),
			senders:  make(map[relHop]*relSender),
		}
		e.expire, e.probeExpire = e.awaitTimeout, e.probeTimeout
		vc.rel[n.Name] = e
		vc.sess.Platform.Instrument(e)
		for i := range relCounterNames {
			e.count(i, 0)
		}
		for _, nwName := range n.Networks {
			ep := vc.regular[nwName].At(node)
			sim.SpawnDaemon(fmt.Sprintf("relpoll:%s:%s", n.Name, nwName), func(p *vtime.Proc) {
				for {
					e.handle(p, ep.NextArrival(p).Link)
				}
			})
		}
		sim.SpawnDaemon("relfwd:"+n.Name, func(p *vtime.Proc) { e.relayLoop(p) })
	}
	// Every node of the monitor's topologies has an engine.
	vc.mon.SetProbeSink(func(edge route.Edge) { vc.rel[edge.From].probe(edge) })
	for _, name := range vc.tp.Gateways() {
		g := newGateway(vc, vc.nodes[name])
		g.eng, vc.rel[name].gw = vc.rel[name], g
		vc.gates[name] = g
	}
}

// sendMessage fragments, encodes and reliably delivers one message under its
// pack-time ID, blocking until the final destination's end-to-end
// acknowledgement arrives. It runs in the application's process (called from
// EndPacking), which is the message's first relay: it queues the packets on
// the send daemons of their first hops and waits for them to be done with the
// packet list before the end-to-end ack's timeout starts. msgFlags are
// end-to-end packet flags (the aggregate marker) stamped on every fragment;
// rails are the pair's rails, nil for fewer than two, and stripe says whether
// the message reaches DefaultStripeThreshold.
func (e *relEngine) sendMessage(p *vtime.Proc, dst string, blocks []relBlock, id uint64, msgFlags uint8, rails []route.Route, stripe bool) {
	// Per-path MTU: fragment at the most constrained network of the
	// primary route. The descriptor carries the chosen size, so the
	// receiver reassembles correctly even if failover later moves packets
	// onto a different path. A message of a pair with several rails
	// fragments at the most constrained rail, so every rail can carry
	// every packet.
	mtu := e.vc.PathMTU(e.node.Name, dst)
	for _, r := range rails {
		mtu = min(mtu, e.vc.railMTU(r))
	}

	// Fragment 0 carries the descriptor, in a pooled buffer this call holds
	// until it returns; the rest are windows of the application's memory.
	nfrags, size := 1, 0
	for _, b := range blocks {
		nfrags += max(1, (len(b.data)+mtu-1)/mtu) // an empty block still travels, as an empty fragment
		size += len(b.data)
	}
	total := uint32(nfrags)
	if nfrags > relMaxFrags {
		panic(fmt.Sprintf("fwd: message of %d fragments exceeds the reliable protocol's %d", total, relMaxFrags))
	}
	desc := e.vc.bufs.Get(relDescLen(len(blocks)))
	defer e.vc.bufs.Put(desc)
	putRelDesc(desc, blocks)
	m := e.outFree.get()
	defer e.freeOut(m)
	m.id, m.dst, m.final = id, dst, e.vc.NodeRank(dst)
	m.ds = slices.Grow(m.ds, nfrags)
	add := func(pl []byte) {
		m.ds = append(m.ds, relData{src: e.node.Rank, dst: m.final, id: id, mtu: uint32(mtu),
			frag: uint32(len(m.ds)), total: total, flags: msgFlags, payload: pl})
	}
	add(desc)
	for _, b := range blocks {
		data := b.data
		mad.ForEachFragment(len(data), mtu, func(off, n int) { add(data[off : off+n]) })
	}
	if len(m.ds) != nfrags {
		panic("fwd: reliable fragment count out of step with ForEachFragment")
	}

	// Every attempt sends the packets alike, so the message is planned,
	// counted and recorded once: on a pair with two rails or more, one that
	// gives two of them payload stripes, any other rides the least-loaded
	// rail whole, as one pinned run. A pair with fewer takes the table route.
	pin := -1
	m.striped = stripe && e.vc.planStripe(p, &m.plan, id, e.node.Name, dst, rails, 0, m.ds)
	switch {
	case m.striped:
		for i, n := range m.plan.spans {
			e.vc.rail(e.node.Name, dst, i).sched += n
		}
	case rails != nil:
		pin = e.vc.leastLoadedRail(e.node.Name, dst, rails)
		e.vc.rail(e.node.Name, dst, pin).sched += int64(size)
	}
	mkey := relMsgKey{origin: e.node.Rank, id: id}
	reason := "timeout"
	bo := relAckTimeout
	for attempt := 0; attempt <= relMessageRetries; attempt++ {
		if attempt > 0 {
			e.count(relMsgResends, 1)
			e.hop(p, id, "resend", obs.Detail{Form: "attempt ${a} -> ${peer}", A: attempt + 1, Peer: dst}, 0)
		}
		aw := e.newAwait()
		e.e2e[mkey] = aw
		m.aw, m.lost = aw, false
		switch {
		case m.striped:
			e.queueRails(m, rails)
		case pin >= 0:
			e.queueOn(m, rails[pin][0], pin, m.ds)
		default:
			e.queueRouted(m)
		}
		m.settled.Wait(p)
		if m.lost {
			dropAwait(e, e.e2e, mkey, aw)
			reason = "unreachable"
			if attempt < relMessageRetries {
				bo = e.nextTimeout(bo)
				p.Sleep(bo)
				e.flight().Record(flight.KindBackoff, p.Now(), bo, id, 0, "")
			}
			continue
		}
		to := relE2EBase + vtime.Duration(total)*relE2EPerFrag
		t0 := p.Now()
		ok := e.await(p, aw, to, "rel e2e", dst)
		dropAwait(e, e.e2e, mkey, aw)
		if ok {
			e.flight().Record(flight.KindAckWait, p.Now(), vtime.Since(p.Now(), t0), id, 0, "")
			return
		}
		// A timed-out end-to-end wait feeds the message-resend machinery,
		// so it is charged to the retransmit stage, not ack-wait.
		e.flight().Record(flight.KindRexmit, p.Now(), vtime.Since(p.Now(), t0), id, 0, "")
		reason = "timeout"
	}
	var cause error
	if reason == "unreachable" {
		cause = &route.NoRouteError{Src: e.node.Name, Dst: dst,
			Why: "every route exhausted or excluded by liveness constraints"}
	}
	// The run is about to abort: snapshot every flight ring so the state
	// at the moment of failure survives into the post-mortem.
	e.vc.flight().Dump(fmt.Sprintf("delivery-error: %s %s -> %s (msg %d)", reason, e.node.Name, dst, id))
	panic(vtime.Abort{Err: &DeliveryError{
		From:     e.node.Name,
		To:       dst,
		Reason:   reason,
		Attempts: relMessageRetries + 1,
		Cause:    cause,
	}})
}

// relRand is a tiny splitmix64 generator, one per engine. Seeded from the
// node name alone, it is deterministic across runs and independent of the
// fault injector's stream, so reliability timing never perturbs fault
// placement (or vice versa).
type relRand struct{ s uint64 }

func seedRelRand(name string) relRand {
	// FNV-1a over the name, then a golden-ratio displacement so even
	// single-letter names land far apart in the state space.
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return relRand{s: h ^ 0x9e3779b97f4a7c15}
}

func (r *relRand) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a uniform draw in [0, 1).
func (r *relRand) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// nextTimeout grows a retry timeout with decorrelated jitter: uniform in
// [relAckTimeout, 3·prev), capped at relMaxTimeout. Compared to the synchronized
// doubling it replaces, independent senders recovering from the same fault
// window spread their retransmissions instead of colliding in lockstep.
func (e *relEngine) nextTimeout(prev vtime.Duration) vtime.Duration {
	base := relAckTimeout
	prev = max(prev, base)
	return min(base+vtime.Duration(e.rng.float()*float64(3*prev-base)), relMaxTimeout)
}

// relOut is a message at its origin: its packets, the current attempt's
// end-to-end ack slot and bursts, and a striped message's split (stripe.go).
type relOut struct {
	spare[relOut]
	id      uint64
	dst     string
	final   mad.Rank
	ds      []relData
	aw      *relAwait
	lost    bool            // a burst found no route left
	settled vsync.WaitGroup // the attempt's bursts not retired yet
	striped bool            // split over the rails by plan, not ridden whole
	plan    stripePlan
}

// freeOut drops what a sent message referenced and recycles its record.
func (e *relEngine) freeOut(m *relOut) {
	clear(m.ds)
	m.ds, m.aw = m.ds[:0], nil
	e.outFree.put(m)
}

// relBurst is one burst on a send daemon's queue: packets bound for one final
// destination, from the relay dispatcher or the origin's sendMessage. An
// origin's burst delivers one relWindow a turn and then queues again behind
// whatever else waits on the daemon, so a relayed burst or an end-to-end ack
// waits for a relWindow of a message, never for all of it.
type relBurst struct {
	spare[relBurst]
	final mad.Rank
	ds    []relData // the relWindow being delivered
	rest  []relData // an origin's packets after ds
	out   *relOut   // the origin's message; nil for a relayed burst
	rail  int       // the rail whose first hop the burst is pinned to; -1 on the table route
	tries int       // hops it has died on
	batch []relData // a relayed burst's packets, their datagrams returned when it retires
	from  string    // a relayed burst's ingress flow
	// cost is payload bytes: a relayed burst's, charged to its flow, or a
	// striped run's delivered while pinned, counted on its rail when it unpins.
	cost int64
}

// relHop names a send daemon: its bursts' final destination and first hop.
type relHop struct {
	final mad.Rank
	hop   route.Hop
}

// relSender is the send thread of one (final destination, first hop) pair,
// the reliable counterpart of the streaming gateway's gwSender and the only
// caller of deliverBurst: it delivers the bursts queued on it one relWindow at a
// time, in order, so a burst stalled on a lost packet holds up only its own pair.
type relSender struct {
	hop  route.Hop
	q    vsync.Chan[*relBurst] // unbounded, in qbuf until it outgrows it
	aws  [relWindow]*relAwait  // deliverBurst's slots
	qbuf [4]*relBurst
}

// push queues a burst; the queue is unbounded, so it never blocks.
func (s *relSender) push(b *relBurst) { s.q.TrySend(b) }

// sender returns a pair's send daemon, made by its first burst.
func (e *relEngine) sender(final mad.Rank, hop route.Hop) *relSender {
	key := relHop{final, hop}
	if s := e.senders[key]; s != nil {
		return s
	}
	s := &relSender{hop: hop}
	name := "relsend:" + e.node.Name + ">" + e.vc.sess.Node(final).Name + " via " + hop.To + "/" + hop.Network
	s.q.Init(name, vsync.Unbounded, s.qbuf[:0])
	e.senders[key] = s
	e.sim().SpawnDaemon(name, func(p *vtime.Proc) {
		sendThread(p, &s.q, func(p *vtime.Proc, b *relBurst) { e.forward(p, s, b) })
	})
	return s
}

// queueRouted queues an origin's packets as one burst on the send daemon of
// the table route's first hop, or finds no route left.
func (e *relEngine) queueRouted(m *relOut) {
	hop, ok := e.nextHop(m.dst, "")
	if m.lost = m.lost || !ok; ok {
		e.queueOn(m, hop, -1, m.ds)
	}
}

// queueOn queues an origin's packets ds on hop's send daemon as one burst, a
// relWindow a turn; a rail's run (rail >= 0) is pinned to hop, its first hop.
func (e *relEngine) queueOn(m *relOut, hop route.Hop, rail int, ds []relData) {
	n := min(relWindow, len(ds))
	b := e.burstFree.get()
	b.final, b.out, b.rail, b.ds, b.rest = m.final, m, rail, ds[:n], ds[n:]
	m.settled.Add(1)
	e.sender(m.final, hop).push(b)
}

// forward moves a burst's relWindow one hop — a rail's run on its rail's first
// hop while it is pinned there, any other burst along the table route, barring
// its ingress neighbour as a relay (split horizon) — and queues an origin's
// burst again for its next relWindow. At the head of the queue an origin's
// burst its message no longer needs is skipped — unless it is already moving
// off a dead hop, which it finishes — and one whose next hop has moved moves
// with it. When the neighbour stops acknowledging, the *directed link* dies,
// never the node, and the unacknowledged packets take the next table hop, up
// to relRouteAttempts hops; a rail's run unpins there, a rail failover.
func (e *relEngine) forward(p *vtime.Proc, s *relSender, b *relBurst) {
	if m := b.out; m != nil && b.tries == 0 && (m.aw.done || m.lost) {
		e.retire(b, true)
		return
	}
	if b.rail >= 0 && e.vc.mon.Excluded(route.Edge{From: e.node.Name, To: s.hop.To, Network: s.hop.Network}) {
		e.unpin(b) // its rail died while it waited: it leaves by the table route at once
	}
	dst := e.vc.sess.Node(b.final).Name
	hop, ok := s.hop, true
	if b.rail < 0 {
		hop, ok = e.nextHop(dst, b.from)
	}
	if ok && hop == s.hop {
		window := b.ds
		if b.ds = e.deliverBurst(p, s, b.ds); len(b.ds) == 0 {
			if b.rail >= 0 && b.out.striped {
				for _, d := range window {
					if d.frag > 0 { // fragment 0 is the block descriptor, not payload
						b.cost += int64(len(d.payload))
					}
				}
			}
			if len(b.rest) == 0 {
				e.retire(b, true)
				return
			}
			n := min(relWindow, len(b.rest))
			b.ds, b.rest, b.tries = b.rest[:n], b.rest[n:], 0
			s.push(b)
			return
		}
		e.markDead(hop, p.Now())
		e.hop(p, b.ds[0].id, "failover", obs.Detail{Form: "link to ${peer} via ${net} presumed dead", Peer: hop.To, Net: hop.Network}, 0)
		if b.rail >= 0 {
			e.vc.stripe.failovers.Add(1)
			e.unpin(b)
		}
		if b.tries++; b.tries == relRouteAttempts {
			ok = false
		} else {
			hop, ok = e.nextHop(dst, b.from)
		}
	}
	if !ok {
		e.retire(b, false)
		return
	}
	e.sender(b.final, hop).push(b)
}

// unpin counts what an origin's burst delivered on its rail, if it is on one,
// and takes it off: from here on it follows the table route.
func (e *relEngine) unpin(b *relBurst) {
	if b.cost > 0 {
		e.vc.rail(e.node.Name, b.out.dst, b.rail).bytes.Add(b.cost)
	}
	b.rail, b.cost = -1, 0
}

// retire ends a burst, delivered (ok) or failed. An origin's unpins and settles
// with its message. A relayed one is counted, returns its datagrams to the
// pool, is charged to its flow and frees its destination for the next one.
func (e *relEngine) retire(b *relBurst, ok bool) {
	if m := b.out; m != nil {
		e.unpin(b)
		m.lost = m.lost || !ok
		m.settled.Done()
	} else {
		if !ok {
			e.count(relRelayDrops, 1)
		}
		for i := range b.batch {
			if d := &b.batch[i]; ok && d.frag != e2eFrag && e.gw != nil {
				e.gw.met.packets.Add(1)
				e.gw.met.bytes.Add(int64(len(d.payload)))
				if d.frag == 0 {
					e.gw.messages++
				}
			}
			e.vc.bufs.Put(b.batch[i].buf)
			b.batch[i] = relData{}
		}
		e.relayDRR.Charge(b.from, b.cost)
		e.busy[b.final] = false
		e.relayDRR.Kick()
	}
	*b = relBurst{batch: b.batch[:0]}
	e.burstFree.put(b)
}

// deliverBurst transmits a burst of packets to one neighbour under the ARQ
// window discipline: every packet goes out back to back, the last one
// flush-flagged so the receiver returns the burst's hop acks as one control
// datagram; packets still unacknowledged after their timeout are
// retransmitted stop-and-wait with doubling timeouts. It returns the
// packets whose retry budget ran out (the neighbour is then presumed dead
// by the caller) — once one packet exhausts its budget, the rest are not
// retried, only checked for acks that already arrived.
func (e *relEngine) deliverBurst(p *vtime.Proc, s *relSender, ds []relData) (failed []relData) {
	hop := s.hop
	mon := e.vc.mon
	edge := route.Edge{From: e.node.Name, To: hop.To, Network: hop.Network}
	// Sender activity doubles as the heartbeat clock: edges this node has not
	// exercised recently get an active probe.
	mon.Heartbeats(e.node.Name, p.Now())
	link := e.vc.regular[hop.Network].Link(e.node.Rank, e.vc.NodeRank(hop.To))
	aws := s.aws[:len(ds)]
	for i := range ds {
		aws[i] = e.newAwait()
		e.sendData(p, link, &ds[i], aws[i], i == len(ds)-1)
		e.hop(p, ds[i].id, "hop", hopDetail(&ds[i], hop), len(ds[i].payload))
	}
	hopDead := false
	for i := range ds {
		d, aw := &ds[i], aws[i]
		// Once the neighbour has blown a retry budget this burst, the rest
		// burn no more simulated time: only acks that raced in count.
		ok := aw.done && aw.ok
		for try, to := 0, relAckTimeout; !hopDead; try++ {
			if ok = e.await(p, aw, to, "rel ack", hop.To); ok {
				break
			}
			e.flight().Record(flight.KindRexmit, p.Now(), to, d.id, len(d.payload), hop.Network)
			if try == relPacketRetries {
				hopDead = true
				break
			}
			if !e.down(p.Now()) {
				mon.ReportFailure(edge, p.Now())
			}
			if mon.Excluded(edge) {
				// Someone (our own earlier packet, another sender, the
				// detector's score) already declared this edge dead and
				// published a new epoch. Abandon the rest of the budget and
				// let the caller migrate the burst to the new tables.
				hopDead = true
				break
			}
			e.count(relRetransmits, 1)
			e.hop(p, d.id, "rexmit", hopDetail(d, hop), len(d.payload))
			// The retransmission is a transfer of its own, awaited under its
			// sequence number: a late ack of the timed-out one settles nothing.
			delete(e.acks, linkSeq{link, aw.seq})
			aw.rearm()
			e.sendData(p, link, d, aw, true)
			to = e.nextTimeout(to)
		}
		sentAt := aw.sentAt
		dropAwait(e, e.acks, linkSeq{link, aw.seq}, aw)
		if ok {
			mon.ReportSuccess(edge, p.Now().Sub(sentAt), p.Now())
		} else {
			if !e.down(p.Now()) {
				mon.ReportFailure(edge, p.Now())
			}
			failed = append(failed, *d)
		}
	}
	return failed
}

func hopDetail(d *relData, hop route.Hop) obs.Detail {
	if d.frag == e2eFrag {
		return obs.Detail{Form: "e2e-ack -> ${peer} via ${net}", Peer: hop.To, Net: hop.Network}
	}
	return obs.Detail{Form: "frag ${a} -> ${peer} via ${net}", A: int(d.frag), Peer: hop.To, Net: hop.Network}
}

// sendData encodes one packet into a buffer from the virtual channel's free
// list, which the link hands to the receiver, transmits it over link, and
// files aw under the transfer's sequence number, where its hop ack finds it.
// Encoding happens here, at transmission time, as the flush flag is per hop;
// the buffer comes back here only when the packet never left (a drop verdict
// or a cancelled flow).
func (e *relEngine) sendData(p *vtime.Proc, link *mad.Link, d *relData, aw *relAwait, flush bool) {
	aw.sentAt = p.Now()
	kind := mad.KindRel
	if d.frag == e2eFrag {
		kind = mad.KindRelE2E
		flush = true
	}
	// Flush is a per-hop property recomputed at every transmission; the
	// remaining flags (the aggregate marker) are end-to-end and ride along
	// unchanged.
	flags := d.flags &^ relFlagFlush
	if flush {
		flags |= relFlagFlush
	}
	pkt := e.vc.bufs.Get(relDataLen(len(d.payload)))
	putRelData(pkt, d, flags)
	link.Acquire(p)
	t0 := p.Now()
	seq, sent := link.Send(p, relMeta(kind), pkt)
	if !sent {
		e.vc.bufs.Put(pkt)
	}
	aw.seq, e.acks[linkSeq{link, seq}] = seq, aw
	e.flight().Record(flight.KindSend, p.Now(), vtime.Since(p.Now(), t0), d.id, len(d.payload), link.Channel.Network().Name)
	link.Release(p)
}

// newAwait takes a completion slot off the free list, or makes one.
func (e *relEngine) newAwait() *relAwait {
	aw := e.awFree.get()
	if aw.idx == 0 { // a new slot
		e.awaits = append(e.awaits, aw)
		aw.idx = uint32(len(e.awaits))
	}
	return aw
}

// dropAwait takes a slot nobody waits on any more out of the map it was
// registered in and recycles it. A timeout still scheduled for it finds the
// generation moved on.
func dropAwait[K comparable](e *relEngine, m map[K]*relAwait, key K, aw *relAwait) {
	delete(m, key)
	aw.rearm()
	e.awFree.put(aw)
}

// await blocks until the slot completes or the timeout fires, whichever
// comes first, and reports success. The slot may already be complete (an
// acknowledgement that raced the sender), in which case it returns without
// parking. what and whom only show in a deadlock report.
func (e *relEngine) await(p *vtime.Proc, aw *relAwait, to vtime.Duration, what, whom string) bool {
	if !aw.done {
		p.InitBlocker(&aw.w, what, whom)
		aw.parked = true
		e.sim().AtArg(p.Now().Add(to), e.expire, uint64(aw.idx)<<32|uint64(aw.gen))
		aw.w.Wait()
		aw.parked = false
	}
	return aw.ok
}

// complete fulfils an awaited slot from handler context (never parks).
func complete(aw *relAwait) {
	if aw != nil && !aw.done {
		aw.done = true
		aw.ok = true
		if aw.parked {
			aw.w.Wake()
		}
	}
}

// nextHop picks the first leg toward dst from the health monitor's tables of
// the current epoch, which every node shares, barring from — the ingress
// neighbour of a relayed packet, "" for none — as a relay (split horizon).
func (e *relEngine) nextHop(dst, from string) (route.Hop, bool) {
	return e.vc.mon.NextHop(e.node.Name, dst, from)
}

// markDead records a failover: the neighbour stopped acknowledging on one
// link. An exhausted retry budget is hard evidence, and the monitor owns what
// follows from it: the state machine, the epoch bump that routes everyone
// around the directed link — never the neighbour node, which stays reachable
// over its other links — and the probation schedule that re-admits it.
func (e *relEngine) markDead(hop route.Hop, now vtime.Time) {
	e.count(relFailovers, 1)
	if !e.down(now) {
		e.vc.mon.ReportDead(route.Edge{From: e.node.Name, To: hop.To, Network: hop.Network}, now)
	}
}

// handle dispatches one arrival in the polling daemon. The Recv comes
// first, unconditionally: it frees the link's flow-control credit before
// any further work, which is what keeps the ack/credit graph acyclic. The
// datagram it returns is the buffer the sender encoded into, handed over by
// the link: this node owns it now and every path below ends in exactly one
// return to the pool (DESIGN.md §17 has the table).
func (e *relEngine) handle(p *vtime.Proc, in *mad.Link) {
	meta, pkt := in.Recv(p)
	switch meta.Kind {
	case mad.KindRel, mad.KindRelE2E:
		e.handleData(p, in, meta.Seq, pkt)
	case mad.KindRelAck:
		e.handleAck(in, pkt)
		e.vc.bufs.Put(pkt)
	case mad.KindHealth:
		e.handleHealth(in, pkt)
		e.vc.bufs.Put(pkt)
	default:
		// A kind the engine does not speak is malformed.
		e.count(relChecksumDrops, 1)
		e.vc.bufs.Put(pkt)
	}
}

// handleData checks, acknowledges and routes one data or end-to-end-ack
// packet, the transfer seq of in. It never parks: relays and acknowledgements
// are enqueued to the node's daemons with non-blocking sends. The packet's
// buffer goes back to the pool here unless the packet is kept: queued for
// relay, or stored as a fragment of a message under reassembly. A packet
// naming a node the session does not have is malformed.
func (e *relEngine) handleData(p *vtime.Proc, in *mad.Link, seq uint64, pkt []byte) {
	d, ok := decodeRelData(pkt)
	if n := mad.Rank(len(e.vc.sess.Nodes())); !ok || d.src >= n || d.dst >= n {
		e.count(relChecksumDrops, 1)
		e.vc.bufs.Put(pkt)
		return // no ack: the sender retransmits
	}
	d.buf = pkt
	if d.dst != e.node.Rank {
		ingress := e.vc.sess.Node(in.Src.Rank).Name
		finalName := e.vc.sess.Node(d.dst).Name
		// Custody refusal: accepting (acking) a packet we can only route
		// back where it came from would either loop it or strand it here.
		// Without the ack the upstream retransmits, buries this link and
		// reroutes — local knowledge propagates exactly as far as needed.
		if _, ok := e.nextHop(finalName, ingress); !ok {
			e.count(relRelayDrops, 1)
			e.hop(p, d.id, "refuse", obs.Detail{Form: "no route to ${peer} except back via ${net}", Peer: finalName, Net: ingress}, 0)
			e.vc.bufs.Put(pkt)
			return
		}
		if !e.enqueueRelay(relayItem{d: d, from: ingress, enq: p.Now()}) {
			e.vc.bufs.Put(pkt)
			return // backpressure: no ack until the queue drains
		}
		e.hopAck(in, seq, d.flags)
		return
	}
	if d.frag == e2eFrag {
		e.hopAck(in, seq, d.flags)
		if aw := e.e2e[relMsgKey{origin: d.src, id: d.id}]; aw != nil {
			e.hop(p, d.id, "e2e", obs.Detail{Note: "end-to-end ack received"}, 0)
			complete(aw)
		}
		e.vc.bufs.Put(pkt)
		return
	}
	if !e.acceptLocal(p, in, seq, &d) {
		e.vc.bufs.Put(pkt)
	}
}

// acceptLocal files one fragment at its final destination in the record its
// sink will read, suppressing duplicates, and seals the message when the last
// fragment lands. It reports whether the fragment — and with it the packet's
// buffer — was kept. A fragment that would complete a message while the
// application leaves the merged queue full is refused like a relay admission:
// neither stored nor acknowledged, so the origin's ARQ sends it again.
func (e *relEngine) acceptLocal(p *vtime.Proc, in *mad.Link, seq uint64, d *relData) bool {
	mkey := relMsgKey{origin: d.src, id: d.id}
	h := e.rx[mkey]
	if e.vc.merged[e.node.Rank].Len() >= mergedCap && completes(h, d) {
		e.count(relBackpressure, 1)
		return false
	}
	e.hopAck(in, seq, d.flags)
	if e.done[d.src].has(d.id) {
		// The whole message already arrived; the origin is resending
		// because our end-to-end ack got lost. Re-ack.
		e.count(relDuplicates, 1)
		e.hop(p, d.id, "dup", obs.Detail{Form: "frag ${a} after completion, re-acked", A: int(d.frag)}, len(d.payload))
		e.sendE2E(d.src, d.id)
		return false
	}
	if h == nil {
		if d.total == 0 || d.total > relMaxFrags {
			e.count(relChecksumDrops, 1)
			return false
		}
		if len(e.rx) >= relRxCap {
			e.evictOldestRx(p)
		}
		h = e.vc.hold(d.src, int(d.mtu), d.id)
		h.total, h.agg = int(d.total), d.flags&flagAgg != 0
		e.rx[mkey] = h
	}
	if int(d.frag) >= h.total || int(d.mtu) != h.mtu {
		e.count(relChecksumDrops, 1)
		return false
	}
	// The slots grow with the highest fragment arrived, not with the total the
	// first datagram announces: a datagram that decodes costs its own slots.
	if n, old := int(d.frag)+1, len(h.bufs); n > old {
		h.frags, h.bufs = slices.Grow(h.frags, n-old)[:n], slices.Grow(h.bufs, n-old)[:n]
		clear(h.frags[old:])
		clear(h.bufs[old:])
	}
	if h.bufs[d.frag] != nil {
		e.count(relDuplicates, 1)
		e.hop(p, d.id, "dup", obs.Detail{Form: "frag ${a} suppressed", A: int(d.frag)}, len(d.payload))
		return false
	}
	h.frags[d.frag], h.bufs[d.frag] = d.payload, d.buf
	if h.got++; h.got < h.total {
		return true
	}
	// Dropping the rx entry of a complete message is what keeps a long-lived
	// node's reassembly table from growing one record per message.
	delete(e.rx, mkey)
	payload := 0 // past fragment 0, the block descriptors
	for _, f := range h.frags[1:] {
		payload += len(f)
	}
	if !e.seal(h) {
		// Fragments that disagree with their descriptor: dropped unacked,
		// so the origin's resends end in a DeliveryError.
		e.count(relChecksumDrops, 1)
		e.hop(p, d.id, "corrupt-drop", obs.Detail{Note: "fragments disagree with the descriptor"}, payload)
		e.vc.release(h)
		return true
	}
	w := e.done[d.src] // the origin's, made by its first completed message
	if w == nil {
		w = new(relDoneWindow)
		e.done[d.src] = w
	}
	w.add(d.id)
	e.hop(p, d.id, "deliver", obs.Detail{Form: hopReassembled + " (${a} fragments)", A: len(h.bufs)}, payload)
	e.vc.merged[e.node.Rank].TrySend(incoming{held: h}) // room checked above
	e.sendE2E(d.src, d.id)
	return true
}

// seal checks a complete message in place: an aggregate frame is one block,
// and the fragments past the fragment-0 descriptor are exactly those its
// blocks cut at the headers' MTU, so the sink trusts them. It
// moves the payload fragments the sink reads to the front of frags — fragment
// 0 and an empty block's fragment go — while bufs keeps every datagram for
// release.
func (e *relEngine) seal(h *heldMsg) bool {
	desc, ok := decodeRelDesc(h.frags[0], h.blocks)
	ok = ok && (!h.agg || len(desc) == 1)
	mtu, frags, next := h.mtu, h.frags[:0], 1 // frags is written behind next
	for i := 0; ok && i < len(desc); i++ {
		b := desc[i]
		for off := 0; ok && (off == 0 || off < b.Size); off += mtu { // an empty block is one empty fragment
			if ok = next < len(h.bufs) && len(h.frags[next]) == min(mtu, b.Size-off); ok && off < b.Size {
				h.descs = append(h.descs, mad.BlockDesc{Size: len(h.frags[next]), S: b.S, R: b.R})
				frags = append(frags, h.frags[next])
			}
			next++
		}
	}
	if !ok || next != len(h.bufs) {
		return false
	}
	clear(h.frags[len(frags):])
	h.direct = len(e.vc.tp.SharedNetworks(e.vc.sess.Node(h.src).Name, e.node.Name)) > 0
	h.known, h.frags, h.blocks, h.cost, h.delivered = true, frags, desc, e.node.Host.CPU.PackCost, true
	return true
}

// completes reports whether d is the one fragment its message (h, if any) lacks.
func completes(h *heldMsg, d *relData) bool {
	if h == nil {
		return d.total == 1 && d.frag == 0
	}
	return h.got+1 == h.total && int(d.frag) < h.total && (int(d.frag) >= len(h.bufs) || h.bufs[d.frag] == nil)
}

// evictOldestRx drops the reassembly state with the smallest (origin, id) —
// the stalest partial under monotone per-origin IDs. Its origin's
// end-to-end timeout resends the whole message, so eviction costs
// retransmitted bytes, never delivery.
func (e *relEngine) evictOldestRx(p *vtime.Proc) {
	var victim relMsgKey
	found := false
	for k := range e.rx {
		if !found || k.id < victim.id || (k.id == victim.id && k.origin < victim.origin) {
			victim, found = k, true
		}
	}
	if !found {
		return
	}
	e.vc.release(e.rx[victim])
	delete(e.rx, victim)
	e.count(relRxEvictions, 1)
	e.hop(p, victim.id, "evict", obs.Detail{Form: "partial reassembly evicted at cap ${a}", A: relRxCap}, 0)
}

// hopAck records the hop acknowledgement of transfer seq of in, a packet
// flagged flags, against the reverse link. The entry sits in the link's
// pending batch until the sender's flush flag (the last packet of its burst)
// or the batch cap sends the batch as one ack datagram.
func (e *relEngine) hopAck(in *mad.Link, seq uint64, flags uint8) {
	back := in.Channel.Link(e.node.Rank, in.Src.Rank)
	r := e.pend[back]
	if r == nil {
		r = new(relPend)
		r.seqs = r.first[:0]
		e.pend[back] = r
	}
	if r.seqs = append(r.seqs, seq); flags&relFlagFlush == 0 && len(r.seqs) < relAckBatchMax {
		return
	}
	n := len(r.seqs)
	pkt := e.vc.bufs.Get(relAcksLen(n))
	putRelAcks(pkt, r.seqs)
	r.seqs = r.seqs[:0]
	e.count(relAckPackets, 1)
	if n > 1 {
		e.count(relAcksCoalesced, int64(n-1))
	}
	e.sendControl(back, mad.KindRelAck, pkt)
}

// sendE2E queues the end-to-end acknowledgement of a fully-received message
// for reliable delivery back to its origin.
func (e *relEngine) sendE2E(origin mad.Rank, id uint64) {
	it := relayItem{
		d:   relData{src: origin, dst: origin, id: id, mtu: uint32(e.vc.cfg.MTU), frag: e2eFrag},
		enq: e.sim().Now(),
	}
	e.enqueueRelay(it) // a refused ack is absorbed by the origin's resend
}

// enqueueRelay admits one packet to the relay daemon's queue of its ingress
// neighbour. A refusal (backlog at capacity) is counted as backpressure and
// means no hop ack, which the upstream ARQ converts into a retransmission —
// backpressure, not loss.
func (e *relEngine) enqueueRelay(it relayItem) bool {
	if e.relayDRR.Len() >= relRelayCap {
		e.count(relBackpressure, 1)
		return false
	}
	e.relayDRR.Push(it.from, it)
	return true
}

// handleAck completes the awaited slots of one batched acknowledgement, which
// came in on in and so names transfers that left on the reverse link.
func (e *relEngine) handleAck(in *mad.Link, pkt []byte) {
	seqs, ok := decodeRelAcks(pkt)
	if !ok {
		e.count(relChecksumDrops, 1)
		return // the senders' retransmissions ask again
	}
	out := in.Channel.Link(e.node.Rank, in.Src.Rank)
	for off := 0; off < len(seqs); off += relAckEntry {
		complete(e.acks[linkSeq{out, binary.LittleEndian.Uint64(seqs[off:])}])
	}
}

// queueWait attributes the time a packet sat in the relay queue.
func (e *relEngine) queueWait(p *vtime.Proc, it *relayItem) {
	if it.enq > 0 {
		e.flight().Record(flight.KindQueueWait, p.Now(), p.Now().Sub(it.enq),
			it.d.id, len(it.d.payload), "")
	}
}

// relayLoop is the per-node relay dispatcher: it hands queued packets (data
// passing through this node, and end-to-end acks this node originates or
// relays) to the send daemons of their next hops in deficit-round-robin order
// over ingress flows, each flow charged the payload bytes it relayed, so a
// backlogged elephant sender repays its debt over following rounds while
// mouse flows keep being served — long-run relay bandwidth equalizes across
// contending ingress neighbours. Backlogged packets of the flow DRR picked
// that are bound for the same final destination move as one windowed burst,
// so a relay preserves the upstream sender's ack coalescing instead of
// re-expanding the stream into stop-and-wait. One relayed burst per final
// destination is out; the dispatcher parks only when no backlogged flow's
// head has a free destination, so bursts to different destinations overlap
// their ARQ waits and none waits behind another.
func (e *relEngine) relayLoop(p *vtime.Proc) {
	var final mad.Rank
	sameFinal := func(m relayItem) bool { return m.d.dst == final }
	for {
		key, it := e.relayDRR.Next(p, nil)
		final = it.d.dst
		if e.busy == nil {
			e.busy = make([]bool, len(e.vc.sess.Nodes()))
			e.relayDRR.Ready = func(m relayItem) bool { return !e.busy[m.d.dst] }
		}
		e.busy[final] = true
		e.queueWait(p, &it)
		b := e.burstFree.get()
		b.batch = append(slices.Grow(b.batch, relWindow), it.d)
		b.final, b.rail, b.from, b.cost = final, -1, key, int64(len(it.d.payload))
		for len(b.batch) < relWindow {
			more, ok := e.relayDRR.PopFrom(key, sameFinal)
			if !ok {
				break
			}
			e.queueWait(p, &more)
			b.batch = append(b.batch, more.d)
			b.cost += int64(len(more.d.payload))
		}
		b.ds = b.batch
		if hop, ok := e.nextHop(e.vc.sess.Node(final).Name, key); ok {
			e.sender(final, hop).push(b)
		} else {
			e.retire(b, false)
		}
	}
}

// sendControl transmits one control datagram (an ack batch, a probe, its
// echo) in a pooled buffer through the link's control send, which never
// parks; like sendData it gets the buffer back only when the packet never
// left.
func (e *relEngine) sendControl(link *mad.Link, kind mad.Kind, pkt []byte) {
	if !link.SendControl(kind, pkt) {
		e.vc.bufs.Put(pkt)
	}
}

// RelBookkeeping is the size of the reliable mode's per-message bookkeeping,
// summed over every node — a hook for the memory-growth regression tests:
// both figures must stay bounded no matter how many messages a run delivers.
type RelBookkeeping struct {
	// DoneIDs is how many completed message IDs the duplicate-suppression
	// windows track exactly (bounded by relDupWindow per origin).
	DoneIDs int
	// RxPartials is how many in-progress reassemblies exist (bounded by
	// relRxCap per node; 0 on a quiesced run).
	RxPartials int
	// RxEvictions is how many partial reassemblies were evicted at the cap.
	RxEvictions int64
	// The buffer ledger of the virtual channel's pool, landing slots and
	// static buffers included, which every mode keeps.
	mad.Ledger
}

// RelBookkeeping sums the reliable mode's bookkeeping sizes over every node.
// Zero-valued in streaming mode but for the buffer ledger, which every mode
// keeps.
func (vc *VirtualChannel) RelBookkeeping() RelBookkeeping {
	s := RelBookkeeping{Ledger: vc.bufs.Ledger()}
	for _, e := range vc.rel {
		for _, w := range e.done {
			s.DoneIDs += w.size()
		}
		s.RxPartials += len(e.rx)
	}
	s.RxEvictions = vc.relCount(relRxEvictions)
	return s
}

// AckStats aggregates the acknowledgement-traffic counters over every node.
// Unlike DeliveryStats these are non-zero on clean runs: they count control
// datagrams, not failures.
type AckStats struct {
	// Packets is how many standalone acknowledgement datagrams were sent.
	Packets int64
	// Coalesced is how many individual hop acknowledgements avoided their
	// own datagram by riding in a batch: n-1 of a batch of n.
	Coalesced int64
}

// relCount sums one of the rel* counters over every node's engine.
func (vc *VirtualChannel) relCount(i int) (n int64) {
	for _, e := range vc.rel {
		n += e.counters[i].Count()
	}
	return n
}

// AckStats sums the acknowledgement-traffic counters over every node.
// Zero-valued in streaming (non-reliable) mode.
func (vc *VirtualChannel) AckStats() AckStats {
	return AckStats{Packets: vc.relCount(relAckPackets), Coalesced: vc.relCount(relAcksCoalesced)}
}

// DeliveryStats sums the reliability counters over every node. Zero-valued in
// streaming (non-reliable) mode.
func (vc *VirtualChannel) DeliveryStats() DeliveryStats {
	drops := vc.relCount(relChecksumDrops)
	for _, ch := range vc.regular {
		drops += ch.ChecksumDrops()
	}
	return DeliveryStats{
		Retransmits:    vc.relCount(relRetransmits),
		Failovers:      vc.relCount(relFailovers),
		MessageResends: vc.relCount(relMsgResends),
		Duplicates:     vc.relCount(relDuplicates),
		ChecksumDrops:  drops,
		RelayDrops:     vc.relCount(relRelayDrops),
	}
}
