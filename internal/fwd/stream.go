// Package fwd implements the paper's contribution: transparent, efficient
// inter-device data-forwarding inside Madeleine.
//
// It provides three cooperating pieces:
//
//   - VirtualChannel (§2.2.1): a channel object bundling, per underlying
//     network, a *regular* real channel for direct messages and a *special*
//     real channel for messages that must cross a gateway. Senders pick the
//     real channel from the routing table; the choice is invisible to the
//     application.
//   - The generic transmission module, GTM (§2.3): the sender- and
//     receiver-side module used for every message that travels through at
//     least two different networks. It shapes data identically on both ends
//     (MTU-sized packets), and makes messages self-described: destination
//     and MTU first, per-block sizes and flag constraints with each packet,
//     and an empty-message terminator. This file is that module: the wire
//     format of every streaming framing, one writer and one reader.
//   - The gateway engine (§2.2.2): polling threads watching the special
//     channels, and per-message forwarding pipelines — two threads sharing
//     buffers so one packet is retransmitted while the next is received,
//     with the zero-copy buffer election of §2.3.
package fwd

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"slices"

	"madgo/internal/flight"
	"madgo/internal/mad"
	"madgo/internal/obs"
	"madgo/internal/vtime"
)

// A stream is a self-described message on the wire: a header, the packed
// blocks as MTU-sized fragments each with its block descriptor, and a
// terminator. The seed framing of §2.3 (KindGTM, the WithPaperFidelity
// reference) spends F+2 transfers on F fragments — header, fragments, empty
// terminator — so a 64-byte message pays the fixed ~40 µs per-transfer
// software overhead of §3.4.1 three times. The compact framings elide the two
// bracketing transfers: the header shares a transfer with the first fragment
// (KindEager), with a frame of coalesced messages (KindAgg, agg.go) or with
// the whole message (KindMcast, mcast.go), and the terminator is the EOM flag
// of the last one. A rail of a striped message (KindStripe, stripe.go) has the
// seed shape under a longer header. Gateways relay all of them obliviously
// (gateway.go), and flow control charges the true transfer count because the
// writer spends exactly one credit before every Send.

// Every stream header opens with the same 16 bytes and the kind picks its
// tail (DESIGN.md §32 and §34 have the offsets before and after):
//
//	src u32 | mtu u32 | id u64 | dst u32                                 unicast, reliable data: 20 B
//	src u32 | mtu u32 | id u64 | dst u32 | rail u8 | nrails u8 |
//	    flags u16 | spanStart u64 | spanLen u64 | total u64              a rail, 48 B
//	src u32 | mtu u32 | id u64 | count u16 | dests u32... | crc u32     multicast, 18+4n+4 B
//
// (§2.3: "the sender sends the rank of the destination node, and the MTU used
// for this connexion"; we additionally carry the source rank so the final
// receiver learns the message origin, which a regular message reads off its
// link, and the pack-time message ID so every gateway on the path can
// attribute its relay work to the message's provenance trace.) A rail's
// header extends the unicast one, so a gateway routes a rail without knowing
// about striping; a reliable datagram follows it with frag, total, flags and
// nacks (reliable.go), and a CRC-32 trailer. The multicast header carries a
// CRC-32 (IEEE) of its own: a corrupted destination set mis-replicates.
const (
	streamPrefixLen  = 16
	gtmHeaderLen     = streamPrefixLen + 4
	stripeHeaderLen  = gtmHeaderLen + 28
	mcastHeaderFixed = streamPrefixLen + 2
)

// stripeFlagForwarded marks a rail whose route crosses at least one
// gateway; the receiver ORs it over rails for Unpacking.Forwarded.
const stripeFlagForwarded = 1 << 0

// flagAgg, in a rail's flags and a reliable datagram's, marks an aggregate
// frame (package agg): after reassembly the receiver decodes it into its
// coalesced sub-messages. An end-to-end property, preserved across hops.
const flagAgg = 1 << 1

// stripeMaxRails bounds Config.StripeK: the rail id travels as one byte.
const stripeMaxRails = 255

// mcastMaxDests bounds the destination count a decoder accepts, so a
// corrupted count cannot make a gateway allocate unbounded memory.
const mcastMaxDests = 4096

// eagerInlineMax bounds the payload that may share a wire transfer with the
// header when the shared frame has to be built by copying. Beyond a few KB
// the copy costs more than the one transfer it saves, so a larger first
// fragment follows a header that travels alone (still saving the
// terminator).
const eagerInlineMax = 4096

// streamHdr is a stream's decoded self-description: the fields every kind
// carries, the rail fields of a stripe header, the destination set of a
// multicast header (which names no single dst).
type streamHdr struct {
	src, dst mad.Rank
	mtu      int
	id       uint64

	rail, nrails              int
	flags                     uint16
	spanStart, spanLen, total int64

	dests []mad.Rank
}

// streamHeaderLen returns the wire size of a header of kind; ndests counts
// for multicast only.
func streamHeaderLen(kind mad.Kind, ndests int) int {
	switch kind {
	case mad.KindMcast:
		return mcastHeaderFixed + 4*ndests + crc32.Size
	case mad.KindStripe:
		return stripeHeaderLen
	}
	return gtmHeaderLen
}

// putStreamHeader writes h as a header of kind into b, which is exactly
// streamHeaderLen long. A multicast header's destinations must strictly
// ascend, the canonical form decodeStreamHeader enforces.
func putStreamHeader(b []byte, kind mad.Kind, h streamHdr) {
	le := binary.LittleEndian
	le.PutUint32(b[0:], uint32(h.src))
	le.PutUint32(b[4:], uint32(h.mtu))
	le.PutUint64(b[8:], h.id)
	if kind == mad.KindMcast {
		le.PutUint16(b[16:], uint16(len(h.dests)))
		for i, d := range h.dests {
			le.PutUint32(b[mcastHeaderFixed+4*i:], uint32(d))
		}
		sealCRC(b)
		return
	}
	le.PutUint32(b[16:], uint32(h.dst))
	if kind == mad.KindStripe {
		b[20], b[21] = byte(h.rail), byte(h.nrails)
		le.PutUint16(b[22:], h.flags)
		le.PutUint64(b[24:], uint64(h.spanStart))
		le.PutUint64(b[32:], uint64(h.spanLen))
		le.PutUint64(b[40:], uint64(h.total))
	}
}

// decodeStreamHeader parses a header of kind. It never panics on malformed
// input — the header crosses the wire, and a corrupted field must not take
// down a gateway or index a receiver out of bounds. ok is false when b is not
// exactly one header long or carries an unusable (zero) MTU; for a rail, when
// the rail id lies outside the rail count or the span outside the advertised
// total; for multicast, on an out-of-range count, a destination list that
// does not strictly ascend, or a CRC mismatch. The destinations are decoded
// into dests' storage where it is large enough (a gateway's ring), else into
// an allocation of their own.
func decodeStreamHeader(kind mad.Kind, b []byte, dests []mad.Rank) (h streamHdr, ok bool) {
	le := binary.LittleEndian
	n := 0
	if kind == mad.KindMcast && len(b) >= mcastHeaderFixed {
		n = int(le.Uint16(b[16:]))
	}
	if len(b) != streamHeaderLen(kind, n) {
		return h, false
	}
	h = streamHdr{src: mad.Rank(le.Uint32(b[0:])), mtu: int(le.Uint32(b[4:])), id: le.Uint64(b[8:])}
	if kind == mad.KindMcast {
		if n < 1 || n > mcastMaxDests || !checkCRC(b) {
			return h, false
		}
		h.dests = slices.Grow(dests[:0], n)[:n]
		for i := range h.dests {
			h.dests[i] = mad.Rank(le.Uint32(b[mcastHeaderFixed+4*i:]))
			if i > 0 && h.dests[i] <= h.dests[i-1] {
				return h, false
			}
		}
		return h, h.mtu > 0
	}
	h.dst = mad.Rank(le.Uint32(b[16:]))
	if kind == mad.KindStripe {
		h.rail, h.nrails, h.flags = int(b[20]), int(b[21]), le.Uint16(b[22:])
		start, length, total := le.Uint64(b[24:]), le.Uint64(b[32:]), le.Uint64(b[40:])
		const span62 = 1 << 62 // keeps the int64 sums below overflow
		if h.nrails < 1 || h.rail >= h.nrails ||
			start >= span62 || length >= span62 || total >= span62 || start+length > total {
			return h, false
		}
		h.spanStart, h.spanLen, h.total = int64(start), int64(length), int64(total)
	}
	return h, h.mtu > 0
}

// sealCRC writes the CRC-32 (IEEE) of everything before a packet's last four
// bytes into them: the multicast header's trailer, and the reliable
// datagrams'.
func sealCRC(pkt []byte) {
	n := len(pkt) - crc32.Size
	binary.LittleEndian.PutUint32(pkt[n:], crc32.ChecksumIEEE(pkt[:n]))
}

// checkCRC reports whether a packet's trailer holds the CRC sealCRC wrote.
func checkCRC(pkt []byte) bool {
	if len(pkt) < crc32.Size {
		return false
	}
	n := len(pkt) - crc32.Size
	return binary.LittleEndian.Uint32(pkt[n:]) == crc32.ChecksumIEEE(pkt[:n])
}

// headerDesc types a header's share of a transfer: cheap to send, express on
// receive (a relay must read it before deciding anything else).
func headerDesc(n int) mad.BlockDesc {
	return mad.BlockDesc{Size: n, S: mad.SendCheaper, R: mad.ReceiveExpress}
}

// framing is what differs between the stream kinds on the virtual clock; the
// one writer, the one reader and the one parse of a first transfer below
// branch on these fields. Each is pinned by an archive, a leg of the telemetry
// golden or a cell of TestFramingTransferTable (DESIGN.md §22 has the table).
type framing struct {
	// hdrDesc describes the header, when every header of the kind has one
	// length; a zero Size says they vary.
	hdrDesc [1]mad.BlockDesc
	// bracketed: header and terminator are transfers of their own. The
	// header leaves when the stream opens and is received into scratch by a
	// posted receive, and an empty transfer ends the message (§2.3: "the
	// sender sends the description of an empty message"). Otherwise the
	// header is held back until payload, or the end of the message, shows
	// what shares its transfer — which is then taken as a driver-slot
	// handoff — and the last transfer carries the EOM flag, so the writer
	// runs one fragment behind.
	bracketed bool
	// inlineFirst: the first fragment shares the header's transfer if it is
	// at most eagerInlineMax and the two fit the MTU.
	inlineFirst bool
	// elideEmpty: a zero-size block puts nothing on the wire. Otherwise it
	// travels as one empty fragment. (A rail carries none either way: an
	// empty block overlaps no span.)
	elideEmpty bool
	// hopEach: every fragment writes a hop record. Otherwise the stream
	// writes one when it closes, for all its payload.
	hopEach bool
	// burst: a gateway's DRR visit to the sender extends past a message of
	// the kind until the flow's deficit runs out (gwfair), so a flow of
	// sub-quantum messages gets its byte share. Not a rail, which pairs with
	// a sibling rail on another gateway: bursting would let the two
	// gateways' service orders diverge further than the sink's bounded
	// reassembly absorbs, and a rail is at least stripe-threshold sized, so
	// it fills its quantum in one service anyway.
	burst bool
	// The hop sentences: of payload behind the header, and of payload
	// sharing the header's transfer.
	form, compactForm string
}

var (
	gtmHdrDesc    = [1]mad.BlockDesc{headerDesc(gtmHeaderLen)}
	stripeHdrDesc = [1]mad.BlockDesc{headerDesc(stripeHeaderLen)}

	// framings holds a framing for every kind that is a stream, the kinds a
	// gateway relays; nil for the others.
	framings = [...]*framing{
		mad.KindGTM:    {hdrDesc: gtmHdrDesc, bracketed: true, hopEach: true, burst: true, form: hopVia},
		mad.KindStripe: {hdrDesc: stripeHdrDesc, bracketed: true, hopEach: true, form: "rail ${a}: " + hopVia},
		mad.KindEager:  {hdrDesc: gtmHdrDesc, inlineFirst: true, hopEach: true, burst: true, form: hopVia, compactForm: hopVia + " (compact)"},
		mad.KindAgg:    {hdrDesc: gtmHdrDesc, burst: true, compactForm: hopVia + " (aggregate)"},
		mad.KindMcast: {elideEmpty: true,
			form: hopVia + " (mcast, ${a} dests)", compactForm: hopVia + " (mcast compact, ${a} dests)"},
	}
)

// framingOf returns the framing of kind, nil when kind is not a stream.
func framingOf(kind mad.Kind) *framing {
	if int(kind) < len(framings) {
		return framings[kind]
	}
	return nil
}

// streamTx is the sender side of a stream, whatever its kind. The caller sets
// vc, link, kind and spends and calls open; then block for every packed block
// and end, or message when it holds the entire message. It bypasses the
// per-network BMMs (whose grouping differs across devices) and emits a
// uniform packet stream any gateway can relay without regrouping.
//
// Header bytes and block descriptors are sent by reference and read again by
// every gateway on the path for as long as its relay runs: they live in
// memory nothing rewrites — a seed or rail header in a wire-pool buffer each
// hop passes on and the final receiver returns, a multicast header in one the
// next hop returns (open), any other in this record (one per stream), a
// block's descriptors in a pair per block: the record's own for the first
// block of a record that lives for one message, a wire-pool pair that travels
// with the coalescer's frame, else an allocation. So a first transfer, all
// header and frame, is handed over at every hop (mad.TxMeta.Owned). The record
// is part of every forwarded message's Packing, so it holds what every stream
// needs and reaches the rest through a pointer.
type streamTx struct {
	vc   *VirtualChannel
	link *mad.Link
	id   uint64
	mtu  int
	hopA int    // ${a} of the hop sentences: the rail, the destination count
	hdr  []byte // the encoded header: a wire-pool buffer or hdrBuf
	// held is the fragment held back when the terminator rides the last one:
	// whether a fragment is the last is only known when the next one, or
	// end, arrives.
	held *heldFrag
	// spare is where the next block's descriptor pair goes, once; nil: an
	// allocation of its own.
	spare  *[2]mad.BlockDesc
	pair   [2]mad.BlockDesc
	hdrBuf [gtmHeaderLen]byte
	kind   mad.Kind
	// spends: every transfer first spends a flow credit toward the link's far
	// end, a gateway: an exhausted window parks the sender instead of piling
	// packets into the gateway's mailbox. Not toward a plain receiver — a
	// direct rail, a leaf branch — which grants none back.
	spends  bool
	started bool // the header is on the wire
}

type heldFrag struct {
	data   []byte
	descs  []mad.BlockDesc // its block's descriptor pair, and its index there
	i      int
	staged bool
}

// open encodes the header, takes the link and, in the framings whose header
// travels ahead, sends it. Such a header is a wire-pool buffer: every hop
// receives it, hands it on as it came (relay) and the final receiver returns
// it (openStream), so from here on the writer reads only its length. So is a
// multicast header: the next hop returns it once parsed if it travelled alone,
// which is when its transfer is not the last; the writer, once glued (message).
func (tx *streamTx) open(p *vtime.Proc, h streamHdr) {
	// ${a}: a rail's id, a multicast header's destination count; zero
	// otherwise, where both are.
	tx.id, tx.mtu, tx.hopA = h.id, h.mtu, h.rail+len(h.dests)
	bracketed := framingOf(tx.kind).bracketed
	tx.hdr = tx.hdrBuf[:]
	if bracketed || tx.kind == mad.KindMcast {
		tx.hdr = tx.vc.bufs.get(streamHeaderLen(tx.kind, len(h.dests)))
	}
	putStreamHeader(tx.hdr, tx.kind, h)
	tx.link.Acquire(p)
	if bracketed {
		tx.first(p, tx.hdr, tx.hdrDescs(), false)
	}
}

// hdrDescs describes a transfer of the header alone.
func (tx *streamTx) hdrDescs() []mad.BlockDesc {
	if f := framingOf(tx.kind); f.hdrDesc[0].Size != 0 {
		return f.hdrDesc[:]
	}
	return tx.vc.mcastst.hdrDesc(len(tx.hdr))
}

func (tx *streamTx) spend(p *vtime.Proc) {
	if tx.spends {
		tx.vc.flowSpend(p, tx.link.Dst.Name, tx.link.Src.Name, tx.id)
	}
}

// hop writes the hop record of n payload bytes.
func (tx *streamTx) hop(p *vtime.Proc, form string, n int) {
	tx.vc.hop(p, tx.id, tx.link.Src.Name, "hop",
		obs.Detail{Form: form, Peer: tx.link.Dst.Name, Net: tx.link.Channel.Network().Name, A: tx.hopA}, n)
}

// first sends the stream's first transfer: the header, alone (frame is
// tx.hdr) or with the payload descs[1:] describe glued behind it.
func (tx *streamTx) first(p *vtime.Proc, frame []byte, descs []mad.BlockDesc, last bool) {
	tx.started = true
	tx.spend(p)
	tx.link.Send(p, mad.TxMeta{SOM: true, EOM: last, Kind: tx.kind, Blocks: descs, Owned: true}, frame)
}

// descPair returns storage for one block's descriptor pair (spare).
func (tx *streamTx) descPair() []mad.BlockDesc {
	if d := tx.spare; d != nil {
		tx.spare = nil
		return d[:]
	}
	return make([]mad.BlockDesc, 2)
}

// block sends one packed block — or the part of one a rail carries — as
// MTU-sized fragments.
func (tx *streamTx) block(p *vtime.Proc, data []byte, s mad.SendMode, r mad.RecvMode) {
	f, mtu := framingOf(tx.kind), tx.mtu
	if len(data) == 0 && f.elideEmpty {
		return
	}
	// One descriptor pair per block, not per fragment: every full-MTU
	// fragment shares descs[0] and the tail has descs[1]. A block of one
	// short fragment has no use for descs[0]; the header's descriptor sits
	// there, for the transfer the two may share.
	descs := tx.descPair()
	descs[0], descs[1] = mad.BlockDesc{Size: mtu, S: s, R: r}, mad.BlockDesc{Size: len(data) % mtu, S: s, R: r}
	if len(data) < mtu {
		descs[0] = headerDesc(len(tx.hdr))
	}
	mad.ForEachFragment(len(data), mtu, func(off, n int) {
		i := 0
		if n != mtu {
			i = 1
		}
		if f.bracketed {
			tx.emit(p, data[off:off+n], descs, i, false)
			return
		}
		tx.flush(p, false)
		if tx.held == nil {
			tx.held = new(heldFrag)
		}
		*tx.held = heldFrag{data[off : off+n], descs, i, true}
	})
}

// flush puts the held-back fragment, if any, on the wire; last makes it the
// message's terminator.
func (tx *streamTx) flush(p *vtime.Proc, last bool) {
	if h := tx.held; h != nil && h.staged {
		h.staged = false
		tx.emit(p, h.data, h.descs, h.i, last)
	}
}

// emit puts the fragment descs[i] describes on the wire: behind the header,
// or sharing its transfer.
func (tx *streamTx) emit(p *vtime.Proc, data []byte, descs []mad.BlockDesc, i int, last bool) {
	f := framingOf(tx.kind)
	form := f.form
	if !tx.started && f.inlineFirst && len(data) <= eagerInlineMax && len(tx.hdr)+len(data) <= tx.mtu {
		// Building the contiguous frame copies the fragment once — the price
		// of eliding a whole transfer.
		tx.link.Src.Host.Memcpy(p, len(data))
		frame := make([]byte, len(tx.hdr)+len(data))
		copy(frame[copy(frame, tx.hdr):], data)
		tx.first(p, frame, descs, last)
		form = f.compactForm
	} else {
		if !tx.started {
			tx.first(p, tx.hdr, tx.hdrDescs(), false)
		}
		tx.spend(p)
		tx.link.Send(p, mad.TxMeta{EOM: last, Kind: tx.kind, Blocks: descs[i : i+1 : i+1]}, data)
	}
	if f.hopEach {
		tx.hop(p, form, len(data))
	}
}

// message sends, and closes the stream behind, a message its caller holds
// entire: header, every block and the terminator in one transfer when that
// fits the MTU and, where the frame has to be built by copying, is worth the
// copy; block by block if not. An empty message is always one transfer, so a
// header outgrowing the MTU never travels alone as the terminator. wire, if
// not nil, is the blocks laid out behind room for the header (the coalescer
// builds its frames so): the frame leaves from there with no copy.
func (tx *streamTx) message(p *vtime.Proc, blks []relBlock, total int, wire []byte) {
	f := framingOf(tx.kind)
	form := f.form
	if (total == 0 || len(tx.hdr)+total <= tx.mtu) && (wire != nil || total <= eagerInlineMax) {
		descs := tx.descPair()[:1]
		descs[0] = headerDesc(len(tx.hdr))
		for _, b := range blks {
			// A block that would put no fragment on the wire is not
			// described here either.
			if len(b.data) > 0 || !f.elideEmpty {
				descs = append(descs, mad.BlockDesc{Size: len(b.data), S: b.s, R: b.r})
			}
		}
		if wire != nil {
			copy(wire, tx.hdr)
		} else {
			wire = make([]byte, len(tx.hdr)+total)
			off := copy(wire, tx.hdr)
			for _, b := range blks {
				off += copy(wire[off:], b.data)
			}
			if total > 0 {
				tx.link.Src.Host.Memcpy(p, total)
			}
		}
		if tx.kind == mad.KindMcast {
			tx.vc.bufs.put(tx.hdr)
		}
		tx.first(p, wire, descs, true)
		form = f.compactForm
	} else {
		for _, b := range blks {
			tx.block(p, b.data, b.s, b.r)
		}
	}
	tx.end(p)
	if !f.hopEach {
		tx.hop(p, form, total)
	}
}

// end ends the message and gives the link back.
func (tx *streamTx) end(p *vtime.Proc) {
	if framingOf(tx.kind).bracketed {
		tx.spend(p)
		tx.link.Send(p, mad.TxMeta{Kind: tx.kind, EOM: true}, nil)
	} else if tx.flush(p, true); !tx.started {
		// No payload at all: the header itself is the terminator.
		tx.first(p, tx.hdr, tx.hdrDescs(), true)
	}
	tx.link.Release(p)
}

// stageBlock is the pack-time work of one block: the host's pack cost where
// the framing buffers blocks (cost; the framings that send by reference pay
// none), the snapshot SendSafer promises — buffered or sent one fragment
// behind, the block is read after Pack returns — and one flight record of the
// pack stage for the time the two took.
func (vc *VirtualChannel) stageBlock(p *vtime.Proc, node *mad.Node, id uint64, cost vtime.Duration, data []byte, s mad.SendMode) []byte {
	if cost == 0 && s != mad.SendSafer {
		return data
	}
	t0 := p.Now()
	if cost > 0 {
		p.Sleep(cost)
	}
	if s == mad.SendSafer {
		node.Host.Memcpy(p, len(data))
		data = append([]byte(nil), data...)
	}
	vc.flightRing(node.Name).Record(flight.KindPack, p.Now(), vtime.Since(p.Now(), t0), id, len(data), "")
	return data
}

// relBlock is one packed block buffered until EndPacking.
type relBlock struct {
	data []byte
	s    mad.SendMode
	r    mad.RecvMode
}

// blockBuf is the sender side of a message whose framing needs all of it
// before the first byte leaves: the coalescer, the rail scheduler and the
// multicast framing need the total size, the reliable protocol the block
// count. Its pack is theirs; each ends the message its own way.
type blockBuf struct {
	vc   *VirtualChannel
	node *mad.Node
	id   uint64
	// cost is the host's pack cost per block, buffering being a pass over the
	// blocks; zero for the multicast framing, which sends them by reference
	// like the seed's.
	cost  vtime.Duration
	blks  []relBlock
	one   [1]relBlock // backs blks while the message has one block
	total int
}

// buffer starts the buffered sender side of a new message from node.
func (vc *VirtualChannel) buffer(node *mad.Node) blockBuf {
	return blockBuf{vc: vc, node: node, id: vc.nextMsgID(), cost: node.Host.CPU.PackCost}
}

func (b *blockBuf) pack(p *vtime.Proc, data []byte, s mad.SendMode, r mad.RecvMode) {
	data = b.vc.stageBlock(p, b.node, b.id, b.cost, data, s)
	if b.blks == nil {
		b.blks = b.one[:0]
	}
	b.blks = append(b.blks, relBlock{data: data, s: s, r: r})
	b.total += len(data)
}

// streamPacking is the sender side of a message that streams as it is packed:
// the seed framing and the eager one.
type streamPacking struct {
	handle Packing
	streamTx
}

func (x *streamPacking) pack(p *vtime.Proc, data []byte, s mad.SendMode, r mad.RecvMode) {
	x.block(p, x.vc.stageBlock(p, x.link.Src, x.id, 0, data, s), s, r)
}

// streamOpen is a stream's first transfer and what it says about the stream:
// the header, and the payload that rode along behind it.
type streamOpen struct {
	streamHdr
	meta    mad.TxMeta      // the transfer's metadata; EOM: it is also the last
	head    []byte          // the transfer: the header, then the payload
	hsize   int             // header bytes at the front of the transfer
	payload []byte          // the rest of it
	descs   []mad.BlockDesc // block by block
}

// parseStream decodes the first transfer of a stream of the announced kind.
// It is pure and never panics: ok is false when the transfer does not start a
// message of that kind, its descriptors do not cover its bytes exactly, its
// header does not decode, or payload rode along that the framing does not
// put there. The final receiver and every gateway accept a stream by this one
// call; dests is where a multicast header's destinations are decoded
// (decodeStreamHeader).
func parseStream(kind mad.Kind, meta mad.TxMeta, first []byte, dests []mad.Rank) (o streamOpen, ok bool) {
	f := framingOf(kind)
	if f == nil || !meta.SOM || meta.Kind != kind || len(meta.Blocks) == 0 {
		return o, false
	}
	o.meta, o.head, o.hsize = meta, first, meta.Blocks[0].Size
	if o.hsize < 0 || o.hsize > len(first) {
		return o, false
	}
	o.payload, o.descs = first[o.hsize:], meta.Blocks[1:]
	rest := len(o.payload)
	for _, d := range o.descs {
		if d.Size < 0 || d.Size > rest {
			return o, false
		}
		rest -= d.Size
	}
	if rest != 0 {
		return o, false
	}
	if o.streamHdr, ok = decodeStreamHeader(kind, first[:o.hsize], dests); !ok {
		return o, false
	}
	switch n := len(o.descs); {
	case f.bracketed:
		// The header travels alone.
		return o, n == 0
	case f.inlineFirst:
		// At most the first fragment shares the header's transfer.
		return o, n <= 1
	case kind == mad.KindAgg:
		// A frame is one block and the whole message.
		return o, n == 1 && meta.EOM
	default:
		// Multicast payload shares the header's transfer only when all of it
		// does.
		return o, n == 0 || meta.EOM
	}
}

// recvFirst receives the first transfer of an announced stream: a header that
// always travels alone lands in scratch, and the wire-pool buffer it came in
// is spent, now the receiver's; anything else is taken as a driver-slot
// handoff.
func recvFirst(p *vtime.Proc, link *mad.Link, kind mad.Kind, scratch []byte) (meta mad.TxMeta, first, spent []byte) {
	f := framingOf(kind)
	if !f.bracketed {
		meta, first = link.Recv(p)
		return meta, first, nil
	}
	meta, got, spent := link.RecvIntoSpent(p, scratch[:f.hdrDesc[0].Size])
	return meta, scratch[:got], spent
}

// openStream takes the receive side of an announced stream's link at its final
// destination and reads the stream's self-description; scratch is where a
// fixed-length header lands, and the buffer it came in goes back to the pool,
// as does a multicast header that travelled alone once checked. Its
// destinations are decoded into channel scratch and not returned.
func (vc *VirtualChannel) openStream(p *vtime.Proc, node *mad.Node, a mad.Arrival, scratch []byte) streamOpen {
	a.Link.AcquireRecv(p)
	kind := a.Kind()
	meta, first, spent := recvFirst(p, a.Link, kind, scratch)
	vc.bufs.put(spent)
	o, ok := parseStream(kind, meta, first, vc.mcastst.ranks)
	if !ok {
		panic(fmt.Sprintf("fwd: malformed %v stream delivered to %s", kind, node.Name))
	}
	_, member := slices.BinarySearch(o.dests, node.Rank)
	if kind != mad.KindMcast && o.dst != node.Rank || kind == mad.KindMcast && !member {
		panic(fmt.Sprintf("fwd: misrouted message: a %v stream for %v%v delivered to %s", kind, o.dst, o.dests, node.Name))
	}
	if kind == mad.KindMcast {
		vc.mcastst.ranks, o.dests = o.dests, nil
		if !meta.EOM {
			vc.bufs.put(first)
		}
	}
	return o
}

// streamRx is the receiver side of a stream, whatever its kind: open (or
// openCaptured), then unpack for every block the application unpacks, then
// close. Fragments that are already in memory — the payload that shared the
// first transfer with the header, or a gateway's capture — are consumed
// first; the rest are received in place off the link, posted MTU-sized so
// relayed packets land where the application wants them. Like the writer it
// keeps to what every stream needs.
type streamRx struct {
	vc   *VirtualChannel
	node *mad.Node
	link *mad.Link // nil for a message the local gateway captured
	mtu  int
	id   uint64
	got  int // payload bytes delivered
	// parked is the payload already in memory; nil when there was none.
	parked *parkedFrags
	hdrBuf [gtmHeaderLen]byte // where the seed framing's header lands, one per stream
	kind   mad.Kind
	eom    bool // the terminator has been seen
}

// parkedFrags is payload that reached memory ahead of the application's
// Unpack, fragment by fragment with their descriptors.
type parkedFrags struct {
	frags [][]byte
	descs []mad.BlockDesc
	next  int
	one   [1][]byte // backs frags for the eager framing's single piggybacked fragment
}

// open opens an announced stream and returns what its first transfer said.
func (rx *streamRx) open(p *vtime.Proc, vc *VirtualChannel, node *mad.Node, a mad.Arrival) streamOpen {
	rx.vc, rx.node, rx.link, rx.kind = vc, node, a.Link, a.Kind()
	scratch := rx.hdrBuf[:]
	if n := framingOf(rx.kind).hdrDesc[0].Size; n > len(scratch) {
		scratch = make([]byte, n)
	}
	o := vc.openStream(p, node, a, scratch)
	rx.mtu, rx.id, rx.eom = o.mtu, o.id, o.meta.EOM
	if len(o.descs) > 0 {
		rx.parked = &parkedFrags{descs: o.descs}
		rx.parked.frags = splitByDescs(rx.parked.one[:0], o.payload, o.descs)
	}
	return o
}

// openCaptured opens a multicast message the local gateway captured whole
// while replicating it downstream.
func (rx *streamRx) openCaptured(vc *VirtualChannel, node *mad.Node, ml *mcastLocal) {
	rx.vc, rx.node, rx.kind, rx.eom, rx.parked = vc, node, mad.KindMcast, true, &ml.parkedFrags
	rx.mtu, rx.id = ml.h.mtu, ml.h.id
}

// unpack delivers one block — or the part of one a rail carries — into dst,
// mirroring the writer's fragmentation.
func (rx *streamRx) unpack(p *vtime.Proc, dst []byte, s mad.SendMode, r mad.RecvMode) {
	if len(dst) == 0 && framingOf(rx.kind).elideEmpty {
		return
	}
	mad.ForEachFragment(len(dst), rx.mtu, func(off, n int) {
		rx.fragment(p, dst[off:off+n], s, r)
	})
}

// fragment delivers the next fragment into dst and holds its descriptor
// against the modes and size the application unpacks with.
func (rx *streamRx) fragment(p *vtime.Proc, dst []byte, s mad.SendMode, r mad.RecvMode) {
	n, got := len(dst), len(dst)
	pk := rx.parked
	parked := pk != nil && pk.next < len(pk.frags)
	var d mad.BlockDesc
	switch {
	case parked:
		d = pk.descs[pk.next]
	case rx.link == nil || rx.eom:
		panic("fwd: protocol error: blocks expected after the stream's terminator")
	default:
		var meta mad.TxMeta
		meta, got = rx.link.RecvInto(p, dst)
		if len(meta.Blocks) != 1 {
			panic("fwd: protocol error: stream packet without exactly one block")
		}
		d, rx.eom = meta.Blocks[0], meta.EOM
	}
	if d.S != s || d.R != r || d.Size != n || got != n {
		panic(fmt.Sprintf("fwd: protocol error: packed %v, unpacked {%dB %v %v}", d, n, s, r))
	}
	if parked {
		// The fragment landed glued to the header (or was captured into
		// gateway memory), so handing it to the application is one real copy.
		rx.node.Host.Memcpy(p, n)
		copy(dst, pk.frags[pk.next])
		pk.next++
	}
	rx.got += n
}

// close reads the terminator, where the framing sends one of its own, and
// gives the link's receive side back.
func (rx *streamRx) close(p *vtime.Proc) {
	if pk := rx.parked; pk != nil && pk.next != len(pk.frags) {
		panic("fwd: protocol error: stream ended with unconsumed fragments")
	}
	if framingOf(rx.kind).bracketed {
		meta, _ := rx.link.Recv(p)
		rx.eom = meta.EOM
	}
	if !rx.eom {
		panic("fwd: protocol error: stream ended before its terminator")
	}
	if rx.link != nil {
		rx.link.ReleaseRecv(p)
	}
}

// splitByDescs slices the payload that shared a transfer with its header
// back into per-block fragments, appending them to frags. parseStream has
// held the descriptors against the payload's length.
func splitByDescs(frags [][]byte, payload []byte, descs []mad.BlockDesc) [][]byte {
	off := 0
	for _, d := range descs {
		frags = append(frags, payload[off:off+d.Size])
		off += d.Size
	}
	return frags
}

// streamUnpacking is the receiver side of a stream delivered as one message:
// the seed, eager and multicast framings, and a gateway's local capture.
type streamUnpacking struct {
	handle Unpacking
	streamRx
}

func (g *streamUnpacking) end(p *vtime.Proc) {
	g.close(p)
	g.vc.hop(p, g.id, g.node.Name, "deliver", obs.Detail{Form: hopReassembled}, g.got)
}
