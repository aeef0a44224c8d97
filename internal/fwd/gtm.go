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
//     and an empty-message terminator.
//   - The gateway engine (§2.2.2): polling threads watching the special
//     channels, and per-message forwarding pipelines — two threads sharing
//     buffers so one packet is retransmitted while the next is received,
//     with the zero-copy buffer election of §2.3.
package fwd

import (
	"encoding/binary"
	"fmt"

	"madgo/internal/flight"
	"madgo/internal/mad"
	"madgo/internal/obs"
	"madgo/internal/vtime"
)

// gtmHeaderLen is the wire size of the GTM message header: source rank,
// destination rank and connection MTU, each 32 bits, plus a 64-bit message
// ID (§2.3: "the sender sends the rank of the destination node, and the MTU
// used for this connexion"; we additionally carry the source rank so the
// final receiver learns the message origin, which a regular message reads
// off its link, and the pack-time message ID so every gateway on the path
// can attribute its relay work to the message's provenance trace).
const gtmHeaderLen = 20

// putGTMHeader writes the self-description header into b[:gtmHeaderLen],
// which the caller must have sized already — used both by the allocating
// encoders below and by the aggregation flush, which reserves the header
// bytes in front of its frame buffer and fills them in place.
func putGTMHeader(b []byte, src, dst mad.Rank, mtu int, id uint64) {
	binary.LittleEndian.PutUint32(b[0:], uint32(src))
	binary.LittleEndian.PutUint32(b[4:], uint32(dst))
	binary.LittleEndian.PutUint32(b[8:], uint32(mtu))
	binary.LittleEndian.PutUint64(b[12:], id)
}

func encodeGTMHeader(src, dst mad.Rank, mtu int, id uint64) []byte {
	hdr := make([]byte, gtmHeaderLen)
	putGTMHeader(hdr, src, dst, mtu, id)
	return hdr
}

// decodeGTMHeader parses a GTM message header. It never panics on
// malformed input: ok is false when the header is not exactly
// gtmHeaderLen bytes or carries an unusable (zero) MTU — the fuzz targets
// pin this down, since the header crosses the wire and a corrupted length
// or MTU must not take down a gateway.
func decodeGTMHeader(hdr []byte) (src, dst mad.Rank, mtu int, id uint64, ok bool) {
	if len(hdr) != gtmHeaderLen {
		return 0, 0, 0, 0, false
	}
	mtu = int(binary.LittleEndian.Uint32(hdr[8:]))
	if mtu <= 0 {
		return 0, 0, 0, 0, false
	}
	return mad.Rank(binary.LittleEndian.Uint32(hdr[0:])),
		mad.Rank(binary.LittleEndian.Uint32(hdr[4:])),
		mtu,
		binary.LittleEndian.Uint64(hdr[12:]),
		true
}

var gtmHeaderDesc = []mad.BlockDesc{{Size: gtmHeaderLen, S: mad.SendCheaper, R: mad.ReceiveExpress}}

// encodeGTMCompact builds the first wire transfer of an eager (compact)
// message: the ordinary 20-byte self-description header immediately followed
// by the first data fragment, in one contiguous payload. The transfer's
// block descriptors keep the two parts separately typed ([header, fragment]),
// so gateways and receivers can split the frame without any extra length
// field on the wire.
func encodeGTMCompact(src, dst mad.Rank, mtu int, id uint64, frag []byte) []byte {
	b := make([]byte, gtmHeaderLen+len(frag))
	putGTMHeader(b, src, dst, mtu, id)
	copy(b[gtmHeaderLen:], frag)
	return b
}

// decodeGTMCompact splits a compact first frame back into its header fields
// and the piggybacked fragment. Like decodeGTMHeader it never panics on
// malformed input (the frame crosses the wire): ok is false when the payload
// is shorter than a header or carries an unusable MTU. The fragment may be
// empty — a header-only compact frame is how an empty eager message (and its
// terminator) travels as a single transfer.
func decodeGTMCompact(b []byte) (src, dst mad.Rank, mtu int, id uint64, frag []byte, ok bool) {
	if len(b) < gtmHeaderLen {
		return 0, 0, 0, 0, nil, false
	}
	mtu = int(binary.LittleEndian.Uint32(b[8:]))
	if mtu <= 0 {
		return 0, 0, 0, 0, nil, false
	}
	return mad.Rank(binary.LittleEndian.Uint32(b[0:])),
		mad.Rank(binary.LittleEndian.Uint32(b[4:])),
		mtu,
		binary.LittleEndian.Uint64(b[12:]),
		b[gtmHeaderLen:],
		true
}

// gtmPacking is the sender side of the generic transmission module: it
// bypasses the per-network BMMs (whose grouping differs across devices) and
// emits a uniform, self-described packet stream any gateway can relay
// without regrouping.
type gtmPacking struct {
	vc   *VirtualChannel
	node *mad.Node
	link *mad.Link
	mtu  int
	id   uint64
}

func newGTMPacking(p *vtime.Proc, vc *VirtualChannel, node *mad.Node, link *mad.Link, finalDst mad.Rank, id uint64) *gtmPacking {
	mtu := vc.PathMTU(node.Name, vc.sess.Node(finalDst).Name)
	g := &gtmPacking{vc: vc, node: node, link: link, mtu: mtu, id: id}
	link.Acquire(p)
	// Every transfer toward the gateway — header, fragments, terminator —
	// first spends one credit of the (gateway, sender) window; an
	// exhausted window parks the sender here instead of piling packets
	// into the gateway's mailbox (no-op with flow control off).
	vc.flowSpend(p, link.Dst.Name, node.Name, id)
	link.Send(p, mad.TxMeta{SOM: true, Kind: mad.KindGTM, Blocks: gtmHeaderDesc},
		encodeGTMHeader(node.Rank, finalDst, g.mtu, g.id))
	return g
}

// snapshotSafer honours SendSafer for the framings that send by reference
// (GTM, eager, multicast): the block is copied at Pack time. That copy is
// the only pack-stage cost of the streaming path (reference sends are
// free), so it alone is charged to the flight recorder's pack stage.
func (vc *VirtualChannel) snapshotSafer(p *vtime.Proc, node *mad.Node, id uint64, data []byte) []byte {
	t0 := p.Now()
	node.Host.Memcpy(p, len(data))
	data = append([]byte(nil), data...)
	vc.flightRing(node.Name).Record(flight.KindPack, p.Now(), vtime.Since(p.Now(), t0), id, len(data), "")
	return data
}

func (g *gtmPacking) pack(p *vtime.Proc, data []byte, s mad.SendMode, r mad.RecvMode) {
	if s == mad.SendSafer {
		data = g.vc.snapshotSafer(p, g.node, g.id, data)
	}
	net := g.link.Channel.Network().Name
	// One descriptor array per block, not per fragment: every full-MTU
	// fragment shares descs[0] and the tail has descs[1]. Nothing writes to
	// them afterwards, so each gateway on the path may re-send the slice it
	// received for as long as its relay runs.
	descs := []mad.BlockDesc{{Size: g.mtu, S: s, R: r}, {Size: len(data) % g.mtu, S: s, R: r}}
	mad.ForEachFragment(len(data), g.mtu, func(off, n int) {
		desc := descs[0:1:1]
		if n != g.mtu {
			desc = descs[1:]
		}
		g.vc.flowSpend(p, g.link.Dst.Name, g.node.Name, g.id)
		g.link.Send(p, mad.TxMeta{Kind: mad.KindGTM, Blocks: desc}, data[off:off+n])
		g.vc.hop(p, g.id, g.node.Name, "hop", obs.Detail{Form: hopVia, Peer: g.link.Dst.Name, Net: net}, n)
	})
}

func (g *gtmPacking) end(p *vtime.Proc) {
	// "To end a message, the sender sends the description of an empty
	// message."
	g.vc.flowSpend(p, g.link.Dst.Name, g.node.Name, g.id)
	g.link.Send(p, mad.TxMeta{Kind: mad.KindGTM, EOM: true}, nil)
	g.link.Release(p)
}

// gtmUnpacking is the receiver side of the generic module, used when the
// arrival note says the message crossed a gateway (Kind == KindGTM). It
// posts MTU-sized receives so relayed packets land in place.
type gtmUnpacking struct {
	vc   *VirtualChannel
	node *mad.Node
	link *mad.Link
	mtu  int
	from mad.Rank
	id   uint64
	got  int
}

func newGTMUnpacking(p *vtime.Proc, vc *VirtualChannel, node *mad.Node, a mad.Arrival) *gtmUnpacking {
	link := a.Link
	link.AcquireRecv(p)
	hdr := make([]byte, gtmHeaderLen)
	meta, _ := link.RecvInto(p, hdr)
	if !meta.SOM || meta.Kind != mad.KindGTM {
		panic("fwd: GTM unpacking of a message without a GTM header")
	}
	src, dst, mtu, id, ok := decodeGTMHeader(hdr)
	if !ok {
		panic("fwd: malformed GTM header delivered to " + node.Name)
	}
	if dst != node.Rank {
		panic(fmt.Sprintf("fwd: misrouted message: %s received a message for rank %d", node.Name, dst))
	}
	return &gtmUnpacking{vc: vc, node: node, link: link, mtu: mtu, from: src, id: id}
}

func (g *gtmUnpacking) unpack(p *vtime.Proc, dst []byte, s mad.SendMode, r mad.RecvMode) {
	mad.ForEachFragment(len(dst), g.mtu, func(off, n int) {
		meta, got := g.link.RecvInto(p, dst[off:off+n])
		if meta.EOM {
			panic("fwd: protocol error: message terminator while blocks were expected")
		}
		if len(meta.Blocks) != 1 {
			panic("fwd: protocol error: GTM packet without exactly one block")
		}
		d := meta.Blocks[0]
		if d.S != s || d.R != r || d.Size != n || got != n {
			panic(fmt.Sprintf("fwd: protocol error: packed %v, unpacked {%dB %v %v}", d, n, s, r))
		}
		g.got += got
	})
}

func (g *gtmUnpacking) end(p *vtime.Proc) {
	meta, _ := g.link.Recv(p)
	if !meta.EOM {
		panic("fwd: protocol error: expected GTM message terminator")
	}
	g.link.ReleaseRecv(p)
	g.vc.hop(p, g.id, g.node.Name, "deliver", obs.Detail{Form: hopReassembled}, g.got)
}
