package fwd

// Reliable delivery: the robustness mode of the forwarding layer.
//
// The paper's forwarding machinery assumes perfect hardware: every packet a
// gateway relays arrives intact, so the GTM can stream packets with no
// sequencing or acknowledgement. Under the fault injector (package fault)
// that assumption breaks, and Config.Reliable replaces the streaming GTM
// with a reliable datagram protocol:
//
//   - Every message is cut into self-contained, checksummed packets:
//     fragment 0 carries the message descriptor (MTU and per-block layout),
//     fragments 1..total-1 carry the payload. Each packet names the
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
// and never block on sends — acknowledgements go through a per-node control
// daemon, relays through a per-node dispatcher serving one bounded
// deficit-round-robin queue per ingress neighbour, both fed by non-blocking
// enqueue. Every burst this node puts on a link — one the dispatcher forms,
// one its own application sends — goes through the send daemon of its
// (final destination, first hop) pair, which never waits on another daemon.
// A full queue just means no ack, which the upstream retry converts into a
// retransmission later.

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

// RetryPolicy is the reliability protocol's timeouts and budgets; every
// engine runs DefaultRetryPolicy.
type RetryPolicy struct {
	// AckTimeout is the initial per-hop acknowledgement timeout; it
	// doubles on every retransmission up to MaxTimeout.
	AckTimeout vtime.Duration
	// MaxTimeout caps the doubled per-hop timeout and the inter-attempt
	// backoff of whole-message resends.
	MaxTimeout vtime.Duration
	// PacketRetries is how many times one packet is retransmitted on one
	// hop before the neighbour is presumed dead.
	PacketRetries int
	// MessageRetries is how many times the whole message is re-sent after
	// an end-to-end acknowledgement timeout before the sender gives up
	// with a DeliveryError.
	MessageRetries int
	// E2EBase and E2EPerFrag size the end-to-end acknowledgement timeout:
	// E2EBase + E2EPerFrag per fragment of the message.
	E2EBase    vtime.Duration
	E2EPerFrag vtime.Duration
	// RouteAttempts bounds how many alternate next hops one packet tries
	// before its forwarding fails.
	RouteAttempts int
	// Window is the per-hop ARQ window: how many packets one sender keeps
	// in flight toward one neighbour before waiting for acknowledgements.
	// The receiver coalesces the window's hop acks into one control
	// datagram (the last packet of a burst requests the flush), so larger
	// windows cut the ack traffic by their size. 1 degenerates to
	// stop-and-wait.
	Window int
}

// DefaultRetryPolicy returns the timeouts and budgets reliable delivery
// runs. They are sized for the paper's testbed: the slowest hop (Fast
// Ethernet) moves a 32 KB fragment in under 3 ms, safely inside the 5 ms
// initial ack timeout. E2EBase exceeds a full dead-neighbour detection
// cycle (PacketRetries doubling timeouts, ~155 ms) so that one message
// attempt survives a downstream relay — or the returning end-to-end
// acknowledgement — having to discover a crashed gateway itself.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		AckTimeout:     5 * vtime.Millisecond,
		MaxTimeout:     80 * vtime.Millisecond,
		PacketRetries:  5,
		MessageRetries: 3,
		E2EBase:        250 * vtime.Millisecond,
		E2EPerFrag:     5 * vtime.Millisecond,
		RouteAttempts:  3,
		Window:         relWindow,
	}
}

// relWindow is DefaultRetryPolicy's Window: it sizes a send daemon's slots.
const relWindow = 8

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
	ChecksumDrops  int64 // packets discarded for a bad checksum
	// RelayDrops counts packets a relay refused for want of any route but
	// back, bursts it accepted and could not forward, and probe echoes it had
	// no room to queue. An admission refused at a full relay queue is not a
	// drop: FlowStats.Backpressure.
	RelayDrops int64
}

// Wire format (all little-endian, CRC32-IEEE over everything before the
// trailing checksum — acknowledgements included, so a corrupted ack is
// dropped rather than misparsed):
//
//	data:  src u32 | mtu u32 | msgID u64 | dst u32 |    the unicast stream header
//	       frag u24 | total u24 | flags u8 | nacks u8 | payload |
//	       nacks × ackEntry | crc u32
//	ack:   count u8 | count × ackEntry | crc u32
//	ackEntry: origin u32 | msgID u64 | frag u32
//
// A data datagram is a stream kind: it opens with the unicast stream header
// (stream.go, DESIGN.md §34), src the origin, dst the final destination and
// mtu the size the origin fragmented at; relMaxFrags fits frag in 24 bits.
//
// Acknowledgements are batched: a receiver accumulates the hop acks of a
// sender's burst and emits them as one control datagram when the burst's
// flush-flagged last packet arrives (or the batch cap is hit). Pending
// acks also piggyback on reverse-direction data packets — the nacks
// trailer — so a bidirectional exchange needs almost no standalone ack
// datagrams at all.
//
// An end-to-end acknowledgement is a data packet with frag == e2eFrag,
// total == 0, an empty payload, dst == src and the channel's MTU, which
// nothing reads — routed back to the message origin through the same
// reliable relay machinery as data.
const (
	relDataHdrLen = gtmHeaderLen + 8
	relTrailerLen = 4
	relOverhead   = relDataHdrLen + relTrailerLen
	relAckEntry   = 16
	// relAckBatchMax caps the entries of one batched or piggybacked ack
	// (it must fit the one-byte count fields).
	relAckBatchMax = 64
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
	mtu     uint32 // the header's; uint32 keeps relData at 112 bytes
	flags   uint8
	payload []byte
	// acks is the raw trailer of piggybacked hop acknowledgements, whole
	// relAckEntry-byte entries read with getAckEntry.
	acks []byte
	// buf is the received datagram payload and acks alias: a pooled buffer
	// this node owns from the link's hand-over until it returns it to the
	// virtual channel's free list (see wireBufPool). Nil for a packet this
	// node originated.
	buf []byte
}

// key is the packet's hop-acknowledgement identity.
func (d *relData) key() relAckKey {
	return relAckKey{origin: d.src, id: d.id, frag: d.frag}
}

func putAckEntry(b []byte, k relAckKey) {
	binary.LittleEndian.PutUint32(b[0:], uint32(k.origin))
	binary.LittleEndian.PutUint64(b[4:], k.id)
	binary.LittleEndian.PutUint32(b[12:], k.frag)
}

func getAckEntry(b []byte) relAckKey {
	return relAckKey{
		origin: mad.Rank(binary.LittleEndian.Uint32(b[0:])),
		id:     binary.LittleEndian.Uint64(b[4:]),
		frag:   binary.LittleEndian.Uint32(b[12:]),
	}
}

// relDataLen is the datagram size of a data packet.
func relDataLen(payload, nacks int) int {
	return relDataHdrLen + payload + relAckEntry*nacks + relTrailerLen
}

// putRelData encodes one data packet into pkt, whose length is relDataLen of
// the payload and the piggybacked acks. Every byte of pkt is written: the
// buffer comes from a free list and holds whatever its last packet left.
func putRelData(pkt []byte, d *relData, flags uint8, acks []relAckKey) {
	if len(acks) > relAckBatchMax {
		panic("fwd: too many piggybacked acks")
	}
	if len(pkt) != relDataLen(len(d.payload), len(acks)) {
		panic("fwd: reliable packet buffer of the wrong size")
	}
	putStreamHeader(pkt[:gtmHeaderLen], mad.KindRel, streamHdr{src: d.src, dst: d.dst, mtu: int(d.mtu), id: d.id})
	putUint24(pkt[20:], d.frag)
	putUint24(pkt[23:], d.total)
	pkt[26] = flags
	pkt[27] = byte(len(acks))
	copy(pkt[relDataHdrLen:], d.payload)
	off := relDataHdrLen + len(d.payload)
	for _, k := range acks {
		putAckEntry(pkt[off:], k)
		off += relAckEntry
	}
	sealCRC(pkt)
}

// decodeRelData checks one data datagram: its CRC, its stream header (a zero
// MTU is rejected there) and a piggyback count within the cap the encoder
// enforces.
func decodeRelData(pkt []byte) (relData, bool) {
	if len(pkt) < relOverhead || !checkCRC(pkt) {
		return relData{}, false
	}
	h, ok := decodeStreamHeader(mad.KindRel, pkt[:gtmHeaderLen], nil)
	nacks := int(pkt[27])
	end := len(pkt) - relTrailerLen - relAckEntry*nacks
	if !ok || nacks > relAckBatchMax || end < relDataHdrLen {
		return relData{}, false
	}
	return relData{src: h.src, dst: h.dst, id: h.id, mtu: uint32(h.mtu),
		frag: getUint24(pkt[20:]), total: getUint24(pkt[23:]), flags: pkt[26],
		payload: pkt[relDataHdrLen:end], acks: pkt[end : len(pkt)-relTrailerLen]}, true
}

func putUint24(b []byte, v uint32) { b[0], b[1], b[2] = byte(v), byte(v>>8), byte(v>>16) }

func getUint24(b []byte) uint32 { return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 }

// relAcksLen is the datagram size of a batch of n acknowledgements.
func relAcksLen(n int) int { return 1 + relAckEntry*n + relTrailerLen }

// putRelAcks encodes one acknowledgement batch into pkt, whose length is
// relAcksLen(len(keys)).
func putRelAcks(pkt []byte, keys []relAckKey) {
	if len(keys) == 0 || len(keys) > relAckBatchMax {
		panic("fwd: ack batch size out of range")
	}
	if len(pkt) != relAcksLen(len(keys)) {
		panic("fwd: ack batch buffer of the wrong size")
	}
	pkt[0] = byte(len(keys))
	for i, k := range keys {
		putAckEntry(pkt[1+relAckEntry*i:], k)
	}
	sealCRC(pkt)
}

// decodeRelAcks checks one acknowledgement batch and returns its entries,
// still encoded: whole relAckEntry-byte entries read with getAckEntry.
func decodeRelAcks(pkt []byte) ([]byte, bool) {
	if len(pkt) < relAcksLen(1) || !checkCRC(pkt) {
		return nil, false
	}
	n := int(pkt[0])
	if n == 0 || n > relAckBatchMax || len(pkt) != relAcksLen(n) {
		return nil, false
	}
	return pkt[1 : 1+relAckEntry*n], true
}

// The fragment-0 descriptor payload mirrors what the GTM transmits
// piece by piece: the connection MTU and the per-block sizes and flag
// constraints the receiver's unpack calls must match.
//
//	mtu u32 | nblocks u32 | nblocks × (size u32 | sendMode u8 | recvMode u8)
func relDescLen(nblocks int) int { return 8 + 6*nblocks }

// putRelDesc encodes the descriptor into b, whose length is
// relDescLen(len(blocks)).
func putRelDesc(b []byte, mtu int, blocks []relBlock) {
	binary.LittleEndian.PutUint32(b[0:], uint32(mtu))
	binary.LittleEndian.PutUint32(b[4:], uint32(len(blocks)))
	off := 8
	for _, bl := range blocks {
		binary.LittleEndian.PutUint32(b[off:], uint32(len(bl.data)))
		b[off+4] = byte(bl.s)
		b[off+5] = byte(bl.r)
		off += 6
	}
}

// decodeRelDesc parses a descriptor into desc's storage where it is large
// enough (a recycled message record's), else into an allocation of its own.
func decodeRelDesc(b []byte, desc []mad.BlockDesc) (mtu int, _ []mad.BlockDesc, ok bool) {
	if len(b) < 8 {
		return 0, nil, false
	}
	mtu = int(binary.LittleEndian.Uint32(b[0:]))
	if mtu <= 0 {
		// A zero MTU from the wire would drive the receiver's
		// per-fragment loop with a degenerate step — reject it here,
		// like any other malformed descriptor (found by FuzzRelDesc).
		return 0, nil, false
	}
	n := int(binary.LittleEndian.Uint32(b[4:]))
	if len(b) != 8+6*n {
		return 0, nil, false
	}
	desc = slices.Grow(desc[:0], n)[:n]
	off := 8
	for i := range desc {
		desc[i] = mad.BlockDesc{
			Size: int(binary.LittleEndian.Uint32(b[off:])),
			S:    mad.SendMode(b[off+4]),
			R:    mad.RecvMode(b[off+5]),
		}
		off += 6
	}
	return mtu, desc, true
}

// relMeta is the link-layer metadata of one reliable packet: a single-block,
// single-transmission message flagged Reliable so it takes the plain eager
// path and is subject to fault injection, and Owned so its buffer is handed
// to the receiver. The link describes the one block itself.
func relMeta(kind mad.Kind) mad.TxMeta {
	return mad.TxMeta{SOM: true, Reliable: true, Owned: true, Kind: kind}
}

// relAckKey identifies one packet for hop acknowledgement: who originated
// the message, which message, which fragment.
type relAckKey struct {
	origin mad.Rank
	id     uint64
	frag   uint32
}

// relMsgKey identifies one message.
type relMsgKey struct {
	origin mad.Rank
	id     uint64
}

// relAwait is a one-shot completion slot shared between a waiting sender and
// the acknowledgement handler (or the timeout callback, whichever fires
// first). Slots are recycled through their engine's free list: the waker is
// embedded, and the timeout is one callback bound when the slot was made,
// told apart from the timeouts of earlier uses by the generation it was
// scheduled under.
type relAwait struct {
	w      vtime.Waker
	parked bool // a process is inside await on this slot
	done   bool
	ok     bool
	gen    uint64       // bumped whenever the slot is re-armed or released
	expire func(uint64) // timeout, bound once
	sentAt vtime.Time   // deliverBurst: when the packet last went out
}

// timeout fires in scheduler context when a wait armed under gen runs out.
func (aw *relAwait) timeout(gen uint64) {
	if gen != aw.gen || aw.done {
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

// relFrag is one fragment of a message under reassembly: the payload and the
// pooled datagram it aliases. buf is nil until the fragment has arrived.
type relFrag struct {
	payload []byte
	buf     []byte
}

// relMsg is a message being reassembled at its final destination. It is
// handed to the unpacking side through the node's merged arrival queue once
// every fragment arrived; the unpacking side returns the fragments' buffers
// when it has copied them out.
type relMsg struct {
	origin mad.Rank
	id     uint64
	total  uint32
	frags  []relFrag // by fragment index, len == total
	got    uint32    // fragments present
	// mtu is its headers'; desc is its fragment-0 descriptor, set by verify.
	mtu  int
	desc []mad.BlockDesc
	// payload is the bytes of the fragments present past fragment 0, the
	// block descriptors: what the delivery hop record reports.
	payload int
	// agg marks a message whose payload is an aggregate frame (flagAgg):
	// the unpacking side decodes the frame into its coalesced sub-messages
	// instead of handing the message to the application directly.
	agg bool
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
// × window) no matter how many messages it receives.
type relDoneWindow struct {
	set      map[uint64]struct{}
	ring     []uint64
	head     int // ring[:head] is dead space, compacted when it reaches the cap
	floor    uint64
	hasFloor bool
}

func (w *relDoneWindow) has(id uint64) bool {
	if w == nil {
		return false
	}
	if w.hasFloor && id <= w.floor {
		return true
	}
	_, ok := w.set[id]
	return ok
}

func (w *relDoneWindow) add(id uint64) {
	if _, ok := w.set[id]; ok {
		return
	}
	w.set[id] = struct{}{}
	w.ring = append(w.ring, id)
	if len(w.ring)-w.head > relDupWindow {
		old := w.ring[w.head]
		w.head++
		delete(w.set, old)
		if !w.hasFloor || old > w.floor {
			w.floor, w.hasFloor = old, true
		}
		if w.head >= relDupWindow {
			w.ring = append(w.ring[:0], w.ring[w.head:]...)
			w.head = 0
		}
	}
}

// size returns how many IDs the window tracks exactly (a test hook for the
// memory-growth regression).
func (w *relDoneWindow) size() int { return len(w.set) }

// relEngine is the per-node reliability engine: sequence numbers, awaited
// acknowledgements, reassembly state, the relay queue and counters. Liveness
// is the health monitor's (vc.mon), not the engine's. All of it runs under
// the single-threaded simulation scheduler, so no locking.
type relEngine struct {
	vc   *VirtualChannel
	node *mad.Node
	pol  RetryPolicy
	rng  relRand // decorrelated-jitter state, seeded from the node name

	// tables caches the split-horizon tables: the monitor's constraints plus
	// one barred ingress neighbour. tablesEpoch is the route epoch the cache
	// was built under; a publish invalidates every cached table at once.
	tables      map[relTableKey]*route.Table
	tablesEpoch uint64
	hp          *healthProber // this node's health prober (health.go)

	acks map[relAckKey]*relAwait
	e2e  map[relMsgKey]*relAwait
	rx   map[relMsgKey]*relMsg
	done map[mad.Rank]*relDoneWindow

	// pend accumulates hop acknowledgements per reverse link until a
	// flush (or the batch cap) drains them into one control datagram —
	// or a data packet headed the same way piggybacks them first.
	pend map[*mad.Link][]relAckKey
	// queued marks links already scheduled for a relctl flush, so one
	// burst enqueues one flush regardless of its packet count.
	queued map[*mad.Link]bool

	ctlQ *vsync.Chan[*mad.Link]

	// relayDRR is the relay dispatcher's queue, a deficit-round-robin
	// scheduler over ingress neighbours ("" for what this node originates)
	// that the dispatcher parks in, and relaying counts, by final
	// destination, the relayed burst to it that is out (made by the first
	// burst, as the daemons are, so Build stays level). senders are the send
	// daemons every burst leaving this node goes through, by (final
	// destination, first hop), each made by its pair's first burst.
	relayDRR *flow.DRR[relayItem]
	relaying []vsync.WaitGroup
	senders  map[relHop]*relSender

	relayedMsgs  int64
	relayedPkts  int64
	relayedBytes int64

	fr *flight.Ring // cached flight ring; nil until a recorder is armed

	// Recycled bookkeeping (DESIGN.md §17). Several processes send on one
	// engine at once — its applications and its send daemons — so these are
	// free lists, not single scratch slots.
	awFree    []*relAwait // completion slots
	msgFree   []*relMsg   // reassembly records, fragment tables attached
	burstFree []*relBurst // queued bursts, relay batches attached
	outFree   []*relOut   // sent messages, packet lists and stripe plans attached

	actor string // tracer lane "rel:<node>"
	// The node's event counts, by the rel* indexes below: what the stats
	// accessors sum, and the node's {node} series once bound.
	counters [len(relCounterNames)]obs.Counter
}

// relTableKey identifies one cached split-horizon table of an engine: which
// topology (0 primary, 1 fallback) and the ingress neighbour barred.
type relTableKey struct {
	topo    int
	exclude string
}

func (e *relEngine) sim() *vtime.Sim { return e.vc.sess.Platform.Sim }

func (e *relEngine) trace(op string, bytes int, at vtime.Time) {
	e.vc.cfg.Tracer.Record(e.actor, op, bytes, at, at)
}

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
// one polling daemon per (node, network), and per-node relay and control
// daemons. Gateway stat objects are created for the primary topology's
// gateways so tools keep working, but no streaming pipelines start.
func (vc *VirtualChannel) buildReliable(buildTopo *topo.Topology) {
	sim := vc.sess.Platform.Sim
	pol := DefaultRetryPolicy()
	vc.rel = make(map[string]*relEngine)
	for _, n := range buildTopo.Nodes() {
		node := vc.nodes[n.Name]
		e := &relEngine{
			vc:       vc,
			node:     node,
			pol:      pol,
			rng:      seedRelRand(n.Name),
			tables:   make(map[relTableKey]*route.Table),
			actor:    "rel:" + n.Name,
			acks:     make(map[relAckKey]*relAwait),
			e2e:      make(map[relMsgKey]*relAwait),
			rx:       make(map[relMsgKey]*relMsg),
			done:     make(map[mad.Rank]*relDoneWindow),
			pend:     make(map[*mad.Link][]relAckKey),
			queued:   make(map[*mad.Link]bool),
			ctlQ:     vsync.NewChan[*mad.Link]("ctlq:"+n.Name, 4096),
			relayDRR: flow.NewDRR[relayItem](int64(vc.cfg.MTU)),
			senders:  make(map[relHop]*relSender),
		}
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
		sim.SpawnDaemon("relctl:"+n.Name, func(p *vtime.Proc) { sendThread(p, e.ctlQ, e.flushAcks) })
	}
	vc.buildHealth()
	for _, name := range vc.tp.Gateways() {
		g := newGateway(vc, vc.nodes[name])
		g.eng = vc.rel[name]
		vc.gates[name] = g
	}
}

// sendMessage fragments, encodes and reliably delivers one message under its
// pack-time ID, blocking until the final destination's end-to-end
// acknowledgement arrives. It runs in the application's process (called from
// EndPacking), which is the message's first relay: it queues the packets on
// the send daemons of their first hops and waits for them to be done with the
// packet list before the end-to-end ack's timeout starts. msgFlags are
// end-to-end packet flags (the aggregate marker) stamped on every fragment.
func (e *relEngine) sendMessage(p *vtime.Proc, dst string, blocks []relBlock, id uint64, msgFlags uint8) {
	pol := e.pol
	// Per-path MTU: fragment at the most constrained network of the
	// primary route. The descriptor carries the chosen size, so the
	// receiver reassembles correctly even if failover later moves packets
	// onto a different path. A message striped over several rails
	// fragments at the most constrained rail, so every rail can carry
	// every packet.
	mtu := e.vc.PathMTU(e.node.Name, dst)
	totalBytes := int64(0)
	for _, b := range blocks {
		totalBytes += int64(len(b.data))
	}
	rails := e.vc.stripeRoutes(e.node.Name, dst)
	striped := len(rails) >= 2 && totalBytes >= e.vc.cfg.stripeThreshold()
	if striped {
		for _, r := range rails {
			if m := e.vc.railMTU(r); m < mtu {
				mtu = m
			}
		}
	}

	// Fragment 0 carries the descriptor, in a pooled buffer this call holds
	// until it returns; the rest are windows of the application's memory.
	nfrags := 1
	for _, b := range blocks {
		nfrags += max(1, (len(b.data)+mtu-1)/mtu) // an empty block still travels, as an empty fragment
	}
	total := uint32(nfrags)
	if nfrags > relMaxFrags {
		panic(fmt.Sprintf("fwd: message of %d fragments exceeds the reliable protocol's %d", total, relMaxFrags))
	}
	desc := e.vc.bufs.get(relDescLen(len(blocks)))
	defer e.vc.bufs.put(desc)
	putRelDesc(desc, mtu, blocks)
	m := e.newOut()
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

	mkey := relMsgKey{origin: e.node.Rank, id: id}
	reason := "timeout"
	bo := pol.AckTimeout
	for attempt := 0; attempt <= pol.MessageRetries; attempt++ {
		if attempt > 0 {
			e.trace("resend", 0, p.Now())
			e.count(relMsgResends, 1)
			e.hop(p, id, "resend", obs.Detail{Form: "attempt ${a} -> ${peer}", A: attempt + 1, Peer: dst}, 0)
		}
		aw := e.newAwait()
		e.e2e[mkey] = aw
		m.aw, m.lost = aw, false
		if striped {
			e.queueRails(p, m, rails)
		} else {
			e.queueRouted(m, m.ds)
		}
		m.settled.Wait(p)
		if m.lost {
			dropAwait(e, e.e2e, mkey, aw)
			reason = "unreachable"
			if attempt < pol.MessageRetries {
				bo = e.nextTimeout(bo)
				p.Sleep(bo)
				e.flight().Record(flight.KindBackoff, p.Now(), bo, id, 0, "")
			}
			continue
		}
		to := pol.E2EBase + vtime.Duration(total)*pol.E2EPerFrag
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
		Attempts: pol.MessageRetries + 1,
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
// [AckTimeout, 3·prev), capped at MaxTimeout. Compared to the synchronized
// doubling it replaces, independent senders recovering from the same fault
// window spread their retransmissions instead of colliding in lockstep.
func (e *relEngine) nextTimeout(prev vtime.Duration) vtime.Duration {
	base := e.pol.AckTimeout
	prev = max(prev, base)
	return min(base+vtime.Duration(e.rng.float()*float64(3*prev-base)), e.pol.MaxTimeout)
}

// relOut is a message at its origin: its packets, the current attempt's
// end-to-end ack slot and bursts, and a striped attempt's state (stripe.go).
type relOut struct {
	id       uint64
	dst      string
	final    mad.Rank
	ds       []relData
	aw       *relAwait
	lost     bool            // a burst found no route left
	settled  vsync.WaitGroup // the attempt's bursts not retired yet
	plan     stripePlan
	rails    []route.Route
	running  int       // rails still on their own runs
	failed   []bool    // by rail
	residual []relData // what failed rails left over
}

func (e *relEngine) newOut() *relOut {
	if n := len(e.outFree); n > 0 {
		m := e.outFree[n-1]
		e.outFree = e.outFree[:n-1]
		return m
	}
	return &relOut{failed: make([]bool, e.vc.cfg.StripeK)}
}

// freeOut drops what a sent message referenced and recycles its record.
func (e *relEngine) freeOut(m *relOut) {
	clear(m.ds)
	m.ds, m.aw, m.rails, m.residual = m.ds[:0], nil, nil, nil
	e.outFree = append(e.outFree, m)
}

// relBurst is one burst on a send daemon's queue: packets bound for one final
// destination, from the relay dispatcher or the origin's sendMessage. An
// origin's burst delivers one Window a turn and then queues again behind
// whatever else waits on the daemon, so a relayed burst or an end-to-end ack
// waits for a Window of a message, never for all of it.
type relBurst struct {
	final mad.Rank
	ds    []relData // the Window being delivered, or a rail's run left
	rest  []relData // an origin's packets after ds on the table route
	out   *relOut   // the origin's message; nil for a relayed burst
	rail  int       // the rail whose run this is; -1 on the table route
	left  bool      // a rail burst draining failed rails' leftovers, with no run
	tries int       // hops it has died on
	batch []relData // a relayed burst's packets, their datagrams returned when it retires
	from  string    // a relayed burst's ingress flow
	// cost is payload bytes: a relayed burst's, charged to its flow, or a
	// rail run's delivered so far, counted on its rail when the run ends.
	cost int64
}

func (e *relEngine) newBurst(final mad.Rank, out *relOut, rail int, ds []relData) *relBurst {
	var b *relBurst
	if n := len(e.burstFree); n > 0 {
		b, e.burstFree = e.burstFree[n-1], e.burstFree[:n-1]
	} else {
		b = new(relBurst)
	}
	b.final, b.out, b.rail, b.ds = final, out, rail, ds
	if out != nil {
		out.settled.Add(1)
	}
	return b
}

// relHop names a send daemon: its bursts' final destination and first hop.
type relHop struct {
	final mad.Rank
	hop   route.Hop
}

// relSender is the send thread of one (final destination, first hop) pair,
// the reliable counterpart of the streaming gateway's gwSender and the only
// caller of deliverBurst: it delivers the bursts queued on it one Window at a
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
		sendThread(p, &s.q, func(p *vtime.Proc, b *relBurst) {
			if b.rail >= 0 {
				e.drainRail(p, s, b)
			} else {
				e.forward(p, s, b)
			}
		})
	})
	return s
}

// queueRouted queues an origin's packets as one burst on the send daemon of
// the table route's first hop, or finds no route left.
func (e *relEngine) queueRouted(m *relOut, ds []relData) {
	hop, ok := e.nextHop(m.dst, "")
	if m.lost = m.lost || !ok; ok {
		n := min(e.pol.Window, len(ds))
		b := e.newBurst(m.final, m, -1, ds[:n])
		b.rest = ds[n:]
		e.sender(m.final, hop).push(b)
	}
}

// forward moves a burst's Window one hop along the table route, barring its
// ingress neighbour as a relay (split horizon), and queues an origin's burst
// again for its next Window. At the head of the queue an origin's burst its
// message no longer needs is skipped — unless it is already moving off a dead
// hop, which it finishes — and one whose next hop has moved moves with it.
// When the neighbour stops acknowledging, the *directed link* dies, never the
// node, and the unacknowledged packets take the next table hop, up to
// RouteAttempts hops.
func (e *relEngine) forward(p *vtime.Proc, s *relSender, b *relBurst) {
	if m := b.out; m != nil && b.tries == 0 && (m.aw.done || m.lost) {
		e.retire(b, true)
		return
	}
	dst := e.vc.sess.Node(b.final).Name
	hop, ok := e.nextHop(dst, b.from)
	if ok && hop == s.hop {
		if b.ds = e.deliverBurst(p, s, b.ds); len(b.ds) == 0 {
			if len(b.rest) == 0 {
				e.retire(b, true)
				return
			}
			n := min(e.pol.Window, len(b.rest))
			b.ds, b.rest, b.tries = b.rest[:n], b.rest[n:], 0
			s.push(b)
			return
		}
		e.markDead(hop, p.Now())
		e.hop(p, b.ds[0].id, "failover", obs.Detail{Form: "link to ${peer} via ${net} presumed dead", Peer: hop.To, Net: hop.Network}, 0)
		if b.tries++; b.tries == e.pol.RouteAttempts {
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

// retire ends a burst, delivered (ok) or failed. An origin's settles with its
// message. A relayed one is counted, returns its datagrams to the pool, is
// charged to its flow and frees its destination for the next relayed burst.
func (e *relEngine) retire(b *relBurst, ok bool) {
	if m := b.out; m != nil {
		m.lost = m.lost || !ok
		m.settled.Done()
	} else {
		if !ok {
			e.count(relRelayDrops, 1)
		}
		for i := range b.batch {
			if d := &b.batch[i]; ok && d.frag != e2eFrag {
				e.relayedPkts++
				e.relayedBytes += int64(len(d.payload))
				if d.frag == 0 {
					e.relayedMsgs++
				}
			}
			e.vc.bufs.put(b.batch[i].buf)
			b.batch[i] = relData{}
		}
		e.relayDRR.Charge(b.from, b.cost)
		e.relaying[b.final].Done()
	}
	*b = relBurst{batch: b.batch[:0]}
	e.burstFree = append(e.burstFree, b)
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
		aw := e.newAwait()
		aws[i] = aw
		e.acks[ds[i].key()] = aw
		aw.sentAt = p.Now()
		e.sendData(p, link, &ds[i], i == len(ds)-1)
		e.hop(p, ds[i].id, "hop", hopDetail(&ds[i], hop), len(ds[i].payload))
	}
	hopDead := false
	for i := range ds {
		d, key, aw := &ds[i], ds[i].key(), aws[i]
		// Once the neighbour has blown a retry budget this burst, the rest
		// burn no more simulated time: only acks that raced in count.
		ok := aw.done && aw.ok
		for try, to := 0, e.pol.AckTimeout; !hopDead; try++ {
			if ok = e.await(p, aw, to, "rel ack", hop.To); ok {
				break
			}
			e.flight().Record(flight.KindRexmit, p.Now(), to, d.id, len(d.payload), hop.Network)
			if try == e.pol.PacketRetries {
				hopDead = true
				break
			}
			mon.ReportFailure(edge, p.Now())
			if mon.Excluded(edge) {
				// Someone (our own earlier packet, another sender, the
				// detector's score) already declared this edge dead and
				// published a new epoch. Abandon the rest of the budget and
				// let the caller migrate the burst to the new tables.
				hopDead = true
				break
			}
			e.trace("rexmit", len(d.payload), p.Now())
			e.count(relRetransmits, 1)
			e.hop(p, d.id, "rexmit", hopDetail(d, hop), len(d.payload))
			// The timed-out slot starts over (a late ack of the first
			// transmission settles the retransmission just as well) and goes
			// back under the key, which another sender of the same packet may
			// have taken over meanwhile.
			aw.rearm()
			e.acks[key] = aw
			aw.sentAt = p.Now()
			e.sendData(p, link, d, true)
			to = e.nextTimeout(to)
		}
		sentAt := aw.sentAt
		dropAwait(e, e.acks, key, aw)
		if ok {
			mon.ReportSuccess(edge, p.Now().Sub(sentAt), p.Now())
		} else {
			mon.ReportFailure(edge, p.Now())
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

// sendData encodes and transmits one packet over one link, piggybacking
// whatever hop acknowledgements are pending for that link. Encoding happens
// here, at transmission time, so retransmissions carry fresh piggybacked
// acks too — into a buffer from the virtual channel's free list, which the
// link hands to the receiver; it comes back here only when the packet never
// left (a drop verdict or a cancelled flow).
func (e *relEngine) sendData(p *vtime.Proc, link *mad.Link, d *relData, flush bool) {
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
	acks := e.takePiggyback(link)
	pkt := e.vc.bufs.get(relDataLen(len(d.payload), len(acks)))
	putRelData(pkt, d, flags, acks)
	e.settlePending(link, len(acks))
	link.Acquire(p)
	t0 := p.Now()
	if !link.Send(p, relMeta(kind), pkt) {
		e.vc.bufs.put(pkt)
	}
	e.flight().Record(flight.KindSend, p.Now(), vtime.Since(p.Now(), t0), d.id, len(d.payload), link.Channel.Network().Name)
	link.Release(p)
}

// takePiggyback claims (up to the batch cap) the pending hop acks headed
// where a data packet is about to go; each one saves a standalone control
// datagram. The entries stay in the pending list until the caller has
// encoded them and calls settlePending — with nothing that parks in between.
func (e *relEngine) takePiggyback(link *mad.Link) []relAckKey {
	pend := e.pend[link]
	if len(pend) == 0 {
		return nil
	}
	n := min(len(pend), relAckBatchMax)
	e.count(relAcksCoalesced, int64(n))
	return pend[:n]
}

// settlePending removes the first n pending hop acks of a link, now encoded
// into a datagram. The remainder moves to the front so the list keeps its
// backing array instead of creeping through memory one batch at a time.
func (e *relEngine) settlePending(link *mad.Link, n int) {
	if n == 0 {
		return
	}
	pend := e.pend[link]
	e.pend[link] = pend[:copy(pend, pend[n:])]
}

// newAwait takes a completion slot off the free list, or makes one.
func (e *relEngine) newAwait() *relAwait {
	if n := len(e.awFree); n > 0 {
		aw := e.awFree[n-1]
		e.awFree = e.awFree[:n-1]
		return aw
	}
	aw := new(relAwait)
	aw.expire = aw.timeout
	return aw
}

// dropAwait takes a slot nobody waits on any more out of the map it was
// registered in — unless another sender's slot has replaced it under the
// same key — and recycles it. A timeout still scheduled for it finds the
// generation moved on.
func dropAwait[K comparable](e *relEngine, m map[K]*relAwait, key K, aw *relAwait) {
	if m[key] == aw {
		delete(m, key)
	}
	aw.rearm()
	e.awFree = append(e.awFree, aw)
}

// await blocks until the slot completes or the timeout fires, whichever
// comes first, and reports success. The slot may already be complete (an
// acknowledgement that raced the sender), in which case it returns without
// parking. what and whom only show in a deadlock report.
func (e *relEngine) await(p *vtime.Proc, aw *relAwait, to vtime.Duration, what, whom string) bool {
	if !aw.done {
		p.InitBlocker(&aw.w, what, whom)
		aw.parked = true
		e.sim().AtArg(p.Now().Add(to), aw.expire, aw.gen)
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

// nextHop picks the first leg toward dst, preferring the primary topology
// (the high-speed networks) and falling back to Config.FallbackTopo (the
// full configuration including the control network) when the primary has no
// live path. The link-health monitor owns liveness: its current epoch's
// tables are shared by every node, so all senders converge on the same
// routes the instant a transition publishes a new epoch. Only split horizon — a
// non-empty exclude, the ingress neighbour of a relayed packet, barred as an
// intermediate hop — needs per-engine tables: the epoch constraints merged
// with the barred neighbour, cached per (topology, exclude) and invalidated
// wholesale on epoch change. A table costs its constraint copy when it is
// made and one search when this node's row is first read (route tables are
// row-lazy), so the steady state of a relayed packet is two map lookups and a
// walk up the search tree.
func (e *relEngine) nextHop(dst, exclude string) (route.Hop, bool) {
	if exclude == dst {
		exclude = ""
	}
	mon := e.vc.mon
	me := e.node.Name
	if ep := mon.Epoch(); ep != e.tablesEpoch {
		clear(e.tables)
		e.tablesEpoch = ep
	}
	if exclude == "" {
		for _, tbl := range mon.Tables() {
			if hop, ok := tbl.NextHop(me, dst); ok {
				return hop, true
			}
		}
		return route.Hop{}, false
	}
	for i, t := range [...]*topo.Topology{e.vc.tp, e.vc.cfg.FallbackTopo} {
		if t == nil {
			continue
		}
		key := relTableKey{topo: i, exclude: exclude}
		tbl := e.tables[key]
		if tbl == nil {
			tbl = route.ComputeConstrained(t, barRelay(mon.Constraints(), exclude))
			e.tables[key] = tbl
		}
		if hop, ok := tbl.NextHop(me, dst); ok {
			return hop, true
		}
	}
	return route.Hop{}, false
}

// barRelay returns c with exclude added to the relays no route may pass
// through, on a copy: c's maps are the monitor's.
func barRelay(c route.Constraints, exclude string) route.Constraints {
	relays := make(map[string]bool, len(c.Relays)+1)
	for k, v := range c.Relays {
		relays[k] = v
	}
	relays[exclude] = true
	c.Relays = relays
	return c
}

// markDead records a failover: the neighbour stopped acknowledging on one
// link. An exhausted retry budget is hard evidence, and the monitor owns what
// follows from it: the state machine, the epoch bump that routes everyone
// around the directed link — never the neighbour node, which stays reachable
// over its other links — and the probation schedule that re-admits it.
func (e *relEngine) markDead(hop route.Hop, now vtime.Time) {
	e.trace("failover", 0, now)
	e.count(relFailovers, 1)
	e.vc.mon.ReportDead(route.Edge{From: e.node.Name, To: hop.To, Network: hop.Network}, now)
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
		e.handleData(p, in, pkt)
	case mad.KindRelAck:
		e.handleAck(pkt)
		e.vc.bufs.put(pkt)
	case mad.KindHealth:
		e.handleHealth(p, in, pkt)
		e.vc.bufs.put(pkt)
	default:
		panic("fwd: unexpected " + meta.Kind.String() + " message in reliable mode on " + e.node.Name)
	}
}

// handleData verifies, acknowledges and routes one data or end-to-end-ack
// packet. It never parks: relays and acknowledgements are enqueued to the
// node's daemons with non-blocking sends. The packet's buffer goes back to
// the pool here unless the packet is kept: queued for relay, or stored as a
// fragment of a message under reassembly. A packet naming a node the session
// does not have is malformed, whatever its checksum says.
func (e *relEngine) handleData(p *vtime.Proc, in *mad.Link, pkt []byte) {
	d, ok := decodeRelData(pkt)
	if n := mad.Rank(len(e.vc.sess.Nodes())); !ok || d.src >= n || d.dst >= n {
		e.trace("corrupt-drop", len(pkt), p.Now())
		e.count(relChecksumDrops, 1)
		e.vc.bufs.put(pkt)
		return // no ack: the sender retransmits
	}
	d.buf = pkt
	// Piggybacked hop acks ride in the data trailer; settle them first so
	// a blocked sender wakes even if this packet is otherwise a duplicate.
	for off := 0; off < len(d.acks); off += relAckEntry {
		complete(e.acks[getAckEntry(d.acks[off:])])
	}
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
			e.vc.bufs.put(pkt)
			return
		}
		if !e.enqueueRelay(relayItem{d: d, from: ingress, enq: p.Now()}) {
			e.vc.bufs.put(pkt)
			return // backpressure: no ack until the queue drains
		}
		e.hopAck(in, &d)
		return
	}
	if d.frag == e2eFrag {
		e.hopAck(in, &d)
		if aw := e.e2e[relMsgKey{origin: d.src, id: d.id}]; aw != nil {
			e.trace("e2e", 0, p.Now())
			e.hop(p, d.id, "e2e", obs.Detail{Note: "end-to-end ack received"}, 0)
			complete(aw)
		}
		e.vc.bufs.put(pkt)
		return
	}
	if !e.acceptLocal(p, in, &d) {
		e.vc.bufs.put(pkt)
	}
}

// acceptLocal stores one fragment at its final destination, suppressing
// duplicates, and completes the message when the last fragment lands. It
// reports whether the fragment — and with it the packet's buffer — was kept.
// A fragment that would complete a message while the application leaves the
// merged queue full is refused like a relay admission: neither stored nor
// acknowledged, so the origin's ARQ sends it again.
func (e *relEngine) acceptLocal(p *vtime.Proc, in *mad.Link, d *relData) bool {
	mkey := relMsgKey{origin: d.src, id: d.id}
	m := e.rx[mkey]
	if e.vc.merged[e.node.Rank].Len() >= mergedCap && completes(m, d) {
		e.count(relBackpressure, 1)
		return false
	}
	e.hopAck(in, d)
	if e.done[d.src].has(d.id) {
		// The whole message already arrived; the origin is resending
		// because our end-to-end ack got lost. Re-ack.
		e.trace("dup", len(d.payload), p.Now())
		e.count(relDuplicates, 1)
		e.hop(p, d.id, "dup", obs.Detail{Form: "frag ${a} after completion, re-acked", A: int(d.frag)}, len(d.payload))
		e.sendE2E(d.src, d.id)
		return false
	}
	if m == nil {
		if d.total == 0 || d.total > relMaxFrags {
			e.count(relChecksumDrops, 1)
			return false
		}
		if len(e.rx) >= relRxCap {
			e.evictOldestRx(p)
		}
		m = e.newMsg(d)
		e.rx[mkey] = m
	}
	if d.frag >= m.total || int(d.mtu) != m.mtu {
		e.count(relChecksumDrops, 1)
		return false
	}
	if m.frags[d.frag].buf != nil {
		e.trace("dup", len(d.payload), p.Now())
		e.count(relDuplicates, 1)
		e.hop(p, d.id, "dup", obs.Detail{Form: "frag ${a} suppressed", A: int(d.frag)}, len(d.payload))
		return false
	}
	m.frags[d.frag] = relFrag{payload: d.payload, buf: d.buf}
	m.got++
	if d.frag > 0 {
		m.payload += len(d.payload)
	}
	if m.got < m.total {
		return true
	}
	// Dropping the rx entry of a complete message is what keeps a long-lived
	// node's reassembly table from growing one record per message.
	delete(e.rx, mkey)
	if !m.verify() {
		// CRC-valid fragments that disagree with their descriptor: dropped
		// unacked, so the origin's resends end in a DeliveryError.
		e.count(relChecksumDrops, 1)
		e.hop(p, d.id, "corrupt-drop", obs.Detail{Note: "fragments disagree with the descriptor"}, m.payload)
		e.freeMsg(m)
		return true
	}
	e.markDone(d.src, d.id)
	e.vc.merged[e.node.Rank].TrySend(incoming{rel: m}) // room checked above
	e.hop(p, d.id, "deliver", obs.Detail{Form: hopReassembled + " (${a} fragments)", A: int(m.total)}, m.payload)
	e.sendE2E(d.src, d.id)
	return true
}

// verify decodes a complete message's fragment-0 descriptor into m and holds
// the fragments to it: the descriptor's MTU is the header's, an aggregate
// frame is one block, and the fragments are exactly those the blocks cut at
// that MTU, in count and in length. The unpacking side then trusts them.
func (m *relMsg) verify() bool {
	mtu, desc, ok := decodeRelDesc(m.frags[0].payload, m.desc)
	if !ok || mtu != m.mtu || m.agg && len(desc) != 1 {
		return false
	}
	m.desc = desc
	next := 1
	for _, b := range desc {
		for off := 0; off == 0 || off < b.Size; off += mtu { // an empty block is one empty fragment
			if next == len(m.frags) || len(m.frags[next].payload) != min(mtu, b.Size-off) {
				return false
			}
			next++
		}
	}
	return next == len(m.frags)
}

// completes reports whether d is the one fragment its message (m, if any) lacks.
func completes(m *relMsg, d *relData) bool {
	if m == nil {
		return d.total == 1 && d.frag == 0
	}
	return m.got+1 == m.total && d.frag < m.total && m.frags[d.frag].buf == nil
}

// newMsg starts the reassembly of the message d belongs to, on a recycled
// record when one is free.
func (e *relEngine) newMsg(d *relData) *relMsg {
	var m *relMsg
	if n := len(e.msgFree); n > 0 {
		m = e.msgFree[n-1]
		e.msgFree = e.msgFree[:n-1]
	} else {
		m = new(relMsg)
	}
	frags := m.frags[:0]
	if cap(frags) < int(d.total) {
		frags = make([]relFrag, d.total)
	}
	*m = relMsg{origin: d.src, id: d.id, total: d.total, frags: frags[:d.total],
		mtu: int(d.mtu), desc: m.desc[:0], agg: d.flags&flagAgg != 0}
	return m
}

// freeMsg returns the buffers of a message nobody reads any more to the pool
// and recycles its record, fragment table cleared.
func (e *relEngine) freeMsg(m *relMsg) {
	for i := range m.frags {
		e.vc.bufs.put(m.frags[i].buf)
		m.frags[i] = relFrag{}
	}
	e.msgFree = append(e.msgFree, m)
}

// markDone records a completed message in the origin's bounded
// duplicate-suppression window.
func (e *relEngine) markDone(origin mad.Rank, id uint64) {
	w := e.done[origin]
	if w == nil {
		w = &relDoneWindow{set: make(map[uint64]struct{})}
		e.done[origin] = w
	}
	w.add(id)
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
	e.freeMsg(e.rx[victim])
	delete(e.rx, victim)
	e.count(relRxEvictions, 1)
	e.hop(p, victim.id, "evict", obs.Detail{Form: "partial reassembly evicted at cap ${a}", A: relRxCap}, 0)
}

// hopAck records the hop acknowledgement of one packet against its reverse
// link. The entry sits in the link's pending batch until the sender's flush
// flag (the last packet of its burst) — or the batch cap — schedules a
// control-daemon drain; a data packet headed the same way may piggyback it
// first. A full control queue silently drops the flush — the sender's
// retransmission (always flush-flagged) absorbs it.
func (e *relEngine) hopAck(in *mad.Link, d *relData) {
	back := in.Channel.Link(e.node.Rank, in.Src.Rank)
	e.pend[back] = append(e.pend[back], d.key())
	if d.flags&relFlagFlush == 0 && len(e.pend[back]) < relAckBatchMax {
		return
	}
	if e.queued[back] {
		return
	}
	if e.ctlQ.TrySend(back) {
		e.queued[back] = true
	}
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

// handleAck completes the awaited slots of one batched acknowledgement.
func (e *relEngine) handleAck(pkt []byte) {
	entries, ok := decodeRelAcks(pkt)
	if !ok {
		e.count(relChecksumDrops, 1)
		return
	}
	for off := 0; off < len(entries); off += relAckEntry {
		complete(e.acks[getAckEntry(entries[off:])])
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
// destination is out: the dispatcher waits only when the head item's
// destination still has one, and forms the batch once it is free, so bursts
// to different destinations — as many as have backlog — overlap their ARQ
// waits.
func (e *relEngine) relayLoop(p *vtime.Proc) {
	var final mad.Rank
	sameFinal := func(m relayItem) bool { return m.d.dst == final }
	for {
		key, it := e.relayDRR.Next(p, nil)
		final = it.d.dst
		if e.relaying == nil {
			e.relaying = make([]vsync.WaitGroup, len(e.vc.sess.Nodes()))
		}
		e.relaying[final].Wait(p)
		e.relaying[final].Add(1)
		e.queueWait(p, &it)
		b := e.newBurst(final, nil, -1, nil)
		b.batch = append(slices.Grow(b.batch, e.pol.Window), it.d)
		b.from, b.cost = key, int64(len(it.d.payload))
		for len(b.batch) < e.pol.Window {
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

// flushAcks is the send of the per-node control daemon, relctl: it drains a
// scheduled link's pending hop acks into batched acknowledgement datagrams.
// Its sends may block on link credits, but never on another daemon, so the
// polling daemons stay free to drain mailboxes. A link whose batch was
// already emptied by piggybacking sends nothing.
func (e *relEngine) flushAcks(p *vtime.Proc, link *mad.Link) {
	delete(e.queued, link)
	// Re-read the pending batch before every datagram: the link.Send below
	// parks, and the polling daemon may append new entries meanwhile.
	for len(e.pend[link]) > 0 {
		pend := e.pend[link]
		n := min(len(pend), relAckBatchMax)
		pkt := e.vc.bufs.get(relAcksLen(n))
		putRelAcks(pkt, pend[:n])
		e.settlePending(link, n)
		e.count(relAckPackets, 1)
		if n > 1 {
			e.count(relAcksCoalesced, int64(n-1))
		}
		e.sendControl(p, link, mad.KindRelAck, pkt)
	}
}

// sendControl transmits one control datagram (an ack batch, a health probe)
// in a pooled buffer; like sendData it gets the buffer back only when the
// packet never left.
func (e *relEngine) sendControl(p *vtime.Proc, link *mad.Link, kind mad.Kind, pkt []byte) {
	link.Acquire(p)
	if !link.Send(p, relMeta(kind), pkt) {
		e.vc.bufs.put(pkt)
	}
	link.Release(p)
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
	// BufsTaken and BufsReturned are the buffer ledger of every pool
	// (pool.go): how many buffers were taken and how many came back. Equal
	// on a quiesced run — a difference is a leaked (or twice-returned)
	// buffer. BufsFree is how many sit on the free lists, BufsAllocated how
	// many the pools ever made.
	BufsTaken     int64
	BufsReturned  int64
	BufsFree      int
	BufsAllocated int64
}

// RelBookkeeping sums the reliable mode's bookkeeping sizes over every node.
// Zero-valued in streaming mode but for the buffer ledger, which every mode
// keeps.
func (vc *VirtualChannel) RelBookkeeping() RelBookkeeping {
	var s RelBookkeeping
	for _, e := range vc.rel {
		for _, w := range e.done {
			s.DoneIDs += w.size()
		}
		s.RxPartials += len(e.rx)
	}
	s.RxEvictions = vc.relCount(relRxEvictions)
	vc.bufs.tally(&s)
	for _, g := range vc.gates {
		for _, r := range g.rings {
			for _, bp := range r.static {
				bp.tally(&s)
			}
		}
	}
	return s
}

// AckStats aggregates the acknowledgement-traffic counters over every node.
// Unlike DeliveryStats these are non-zero on clean runs: they count control
// datagrams, not failures.
type AckStats struct {
	// Packets is how many standalone acknowledgement datagrams were sent.
	Packets int64
	// Coalesced is how many individual hop acknowledgements avoided their
	// own datagram — by riding in a batch (n-1 of a batch of n) or by
	// piggybacking on a reverse-direction data packet (all n).
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
	return DeliveryStats{
		Retransmits:    vc.relCount(relRetransmits),
		Failovers:      vc.relCount(relFailovers),
		MessageResends: vc.relCount(relMsgResends),
		Duplicates:     vc.relCount(relDuplicates),
		ChecksumDrops:  vc.relCount(relChecksumDrops),
		RelayDrops:     vc.relCount(relRelayDrops),
	}
}

// relUnpacking is the receiver side: the message is already reassembled and
// verified (that is what the arrival means), so unpack calls check the
// mirrored flags against the descriptor and copy fragments out.
type relUnpacking struct {
	handle   Unpacking
	eng      *relEngine
	m        *relMsg
	nextBlk  int
	nextFrag uint32
}

func (ru *relUnpacking) unpack(p *vtime.Proc, dst []byte, s mad.SendMode, r mad.RecvMode) {
	m := ru.m
	if ru.nextBlk >= len(m.desc) {
		panic("fwd: unpack past the end of a reliable message")
	}
	d := m.desc[ru.nextBlk]
	ru.nextBlk++
	if d.S != s || d.R != r || d.Size != len(dst) {
		panic(fmt.Sprintf("fwd: protocol error: packed %v, unpacked {%dB %v %v}", d, len(dst), s, r))
	}
	host := ru.eng.node.Host
	p.Sleep(host.CPU.PackCost)
	mad.ForEachFragment(len(dst), m.mtu, func(off, n int) {
		frag := m.frags[ru.nextFrag].payload // verify held its length to n
		ru.nextFrag++
		if n > 0 {
			host.Memcpy(p, n)
			copy(dst[off:off+n], frag)
		}
	})
}

func (ru *relUnpacking) end(p *vtime.Proc) {
	if ru.nextBlk != len(ru.m.desc) {
		panic(fmt.Sprintf("fwd: reliable message not fully unpacked (%d of %d blocks)", ru.nextBlk, len(ru.m.desc)))
	}
	// Every fragment has been copied out: the datagrams they arrived in go
	// back to the pool and the record to the engine.
	ru.eng.freeMsg(ru.m)
	ru.m = nil
}
