package fwd

import (
	"fmt"

	"madgo/internal/mad"
	"madgo/internal/obs"
	"madgo/internal/vtime"
)

// The eager fast path (compact GTM framing) attacks the fixed ~40 µs
// per-wire-transfer software overhead measured in §3.4.1: the seed GTM
// framing spends F+2 transfers per message (self-description header, F
// fragments, empty terminator), so a 64-byte message pays three full
// per-transfer overheads. Compact framing elides both bracketing
// transfers:
//
//   - the header piggybacks on the first data fragment (one contiguous
//     [header|fragment] payload, kept split by the transfer's two block
//     descriptors), and
//   - the terminator collapses into the EOM flag of the last fragment's
//     transfer metadata — no empty trailing transfer.
//
// A message that fits one fragment therefore costs ONE wire transfer
// instead of three, and an F-fragment message costs F (or F+1 when the
// first fragment is too large to share a transfer with the header)
// instead of F+2. Gateways relay the compact frames obliviously
// (gateway.go, classify), and flow control charges the true transfer
// count because every Send below is preceded by exactly one flowSpend.

// eagerInlineMax bounds the fragment size that may share a wire transfer
// with the self-description header. Beyond a few KB the extra copy into
// the combined frame costs more than the one transfer it saves, so large
// first fragments fall back to a separate header transfer (still saving
// the terminator).
const eagerInlineMax = 4096

// eagerPacking is the sender side of the compact framing. Unlike
// gtmPacking it cannot emit a fragment the moment Pack stages it: whether
// a fragment is the *last* one — and so carries the EOM flag — is only
// known when the next fragment or EndPacking arrives. It therefore keeps
// exactly one fragment staged and flushes it one step behind.
type eagerPacking struct {
	vc       *VirtualChannel
	node     *mad.Node
	link     *mad.Link
	mtu      int
	id       uint64
	finalDst mad.Rank

	started bool // header already on the wire
	staged  bool // one fragment awaiting its EOM verdict
	sdata   []byte
	sdesc   mad.BlockDesc
}

func newEagerPacking(p *vtime.Proc, vc *VirtualChannel, node *mad.Node, link *mad.Link, finalDst mad.Rank, id uint64) *eagerPacking {
	mtu := vc.PathMTU(node.Name, vc.sess.Node(finalDst).Name)
	g := &eagerPacking{vc: vc, node: node, link: link, mtu: mtu, id: id, finalDst: finalDst}
	// Acquire only — the header is withheld until the first fragment (or
	// EndPacking) so it can piggyback.
	link.Acquire(p)
	return g
}

func (g *eagerPacking) pack(p *vtime.Proc, data []byte, s mad.SendMode, r mad.RecvMode) {
	if s == mad.SendSafer {
		// The other modes are held by reference until the fragment flushes
		// (at the next Pack or at EndPacking), which they permit.
		data = g.vc.snapshotSafer(p, g.node, g.id, data)
	}
	mad.ForEachFragment(len(data), g.mtu, func(off, n int) {
		g.flushStaged(p, false)
		g.sdata = data[off : off+n]
		g.sdesc = mad.BlockDesc{Size: n, S: s, R: r}
		g.staged = true
	})
}

// flushStaged puts the staged fragment on the wire, as the compact
// [header|fragment] first transfer when possible. last marks the
// fragment as the message terminator (EOM piggybacking).
func (g *eagerPacking) flushStaged(p *vtime.Proc, last bool) {
	if !g.staged {
		return
	}
	g.staged = false
	net := g.link.Channel.Network().Name
	if !g.started {
		g.started = true
		if len(g.sdata) <= eagerInlineMax && gtmHeaderLen+len(g.sdata) <= g.mtu {
			// Header + first fragment in one transfer. Building the
			// contiguous frame copies the fragment once — the price of
			// eliding a whole transfer.
			g.node.Host.Memcpy(p, len(g.sdata))
			g.vc.flowSpend(p, g.link.Dst.Name, g.node.Name, g.id)
			g.link.Send(p, mad.TxMeta{
				SOM:    true,
				EOM:    last,
				Kind:   mad.KindEager,
				Blocks: []mad.BlockDesc{gtmHeaderDesc[0], g.sdesc},
			}, encodeGTMCompact(g.node.Rank, g.finalDst, g.mtu, g.id, g.sdata))
			g.vc.hop(p, g.id, g.node.Name, "hop",
				obs.Detail{Form: hopVia + " (compact)", Peer: g.link.Dst.Name, Net: net}, len(g.sdata))
			g.sdata = nil
			return
		}
		// First fragment too large to share a transfer: header goes
		// alone, as in the seed framing. The terminator is still elided.
		g.vc.flowSpend(p, g.link.Dst.Name, g.node.Name, g.id)
		g.link.Send(p, mad.TxMeta{SOM: true, Kind: mad.KindEager, Blocks: gtmHeaderDesc},
			encodeGTMHeader(g.node.Rank, g.finalDst, g.mtu, g.id))
	}
	g.vc.flowSpend(p, g.link.Dst.Name, g.node.Name, g.id)
	g.link.Send(p, mad.TxMeta{
		EOM:    last,
		Kind:   mad.KindEager,
		Blocks: []mad.BlockDesc{g.sdesc},
	}, g.sdata)
	g.vc.hop(p, g.id, g.node.Name, "hop", obs.Detail{Form: hopVia, Peer: g.link.Dst.Name, Net: net}, len(g.sdata))
	g.sdata = nil
}

func (g *eagerPacking) end(p *vtime.Proc) {
	switch {
	case g.staged:
		// The staged fragment is the last one: it carries the terminator.
		g.flushStaged(p, true)
	case !g.started:
		// Message with no packed blocks at all: the header itself is the
		// terminator — still one single wire transfer.
		g.vc.flowSpend(p, g.link.Dst.Name, g.node.Name, g.id)
		g.link.Send(p, mad.TxMeta{SOM: true, EOM: true, Kind: mad.KindEager, Blocks: gtmHeaderDesc},
			encodeGTMHeader(g.node.Rank, g.finalDst, g.mtu, g.id))
	}
	g.link.Release(p)
}

// compactUnpacking is the receiver side of the compact framings — eager
// (KindEager) and multicast (KindMcast) — and of a multicast message a
// relaying gateway captured for its own node. All three are one walk over
// fragments that are already in memory (the payload that shared the first
// transfer with the header, or the gateway's capture) followed by fragments
// received in place off the link until the one flagged EOM; only the header
// decode differs per kind.
type compactUnpacking struct {
	vc   *VirtualChannel
	node *mad.Node
	link *mad.Link // nil for a gateway-local capture
	mtu  int
	from mad.Rank
	id   uint64
	got  int

	frags   [][]byte // fragments already in memory, consumed before the link is read
	descs   []mad.BlockDesc
	next    int
	eomSeen bool
	// elideEmpty is the multicast framing's rule that a zero-size block
	// never reaches the wire (its sender drops the descriptor); the eager
	// framing sends it as an empty fragment.
	elideEmpty bool
	one        [1][]byte // backs frags for the eager framing's single piggybacked fragment
}

// newCompactUnpacking opens a compact message off its first transfer. The
// transfer is self-describing by shape: its first block is the header, any
// further blocks describe payload that rode along and is parked until the
// application asks for it.
func newCompactUnpacking(p *vtime.Proc, vc *VirtualChannel, node *mad.Node, a mad.Arrival) *compactUnpacking {
	link := a.Link
	link.AcquireRecv(p)
	meta, slot := link.Recv(p)
	kind := a.Kind()
	if !meta.SOM || meta.Kind != kind || len(meta.Blocks) < 1 || meta.Blocks[0].Size > len(slot) {
		panic(fmt.Sprintf("fwd: %v unpacking of a message without a compact header", kind))
	}
	g := &compactUnpacking{vc: vc, node: node, link: link, eomSeen: meta.EOM, descs: meta.Blocks[1:]}
	hdr, payload := slot[:meta.Blocks[0].Size], slot[meta.Blocks[0].Size:]
	ok := false
	switch kind {
	case mad.KindEager:
		var dst mad.Rank
		g.from, dst, g.mtu, g.id, ok = decodeGTMHeader(hdr)
		if ok && dst != node.Rank {
			panic(fmt.Sprintf("fwd: misrouted message: %s received a compact message for rank %d", node.Name, dst))
		}
		// At most the first fragment shares the header's transfer.
		ok = ok && len(g.descs) <= 1
	case mad.KindMcast:
		var dests []mad.Rank
		g.from, g.mtu, g.id, dests, ok = decodeMcastHeader(hdr)
		if ok && !rankInSet(node.Rank, dests) {
			panic(fmt.Sprintf("fwd: misrouted multicast: %s is not in the destination set", node.Name))
		}
		// Payload shares the header's transfer only when all of it does.
		ok = ok && (len(g.descs) == 0 || meta.EOM)
		g.elideEmpty = true
	}
	if !ok {
		panic(fmt.Sprintf("fwd: malformed %v header delivered to %s", kind, node.Name))
	}
	g.frags = splitByDescs(g.one[:0], payload, g.descs)
	return g
}

// newCapturedUnpacking opens a multicast message the local gateway captured
// whole while replicating it downstream.
func newCapturedUnpacking(vc *VirtualChannel, node *mad.Node, ml *mcastLocal) *compactUnpacking {
	return &compactUnpacking{vc: vc, node: node, mtu: ml.mtu, from: ml.from, id: ml.id,
		frags: ml.frags, descs: ml.descs, eomSeen: true, elideEmpty: true}
}

func (g *compactUnpacking) unpack(p *vtime.Proc, dst []byte, s mad.SendMode, r mad.RecvMode) {
	mad.ForEachFragment(len(dst), g.mtu, func(off, n int) {
		if n == 0 && g.elideEmpty {
			return
		}
		if g.next < len(g.frags) {
			d := g.descs[g.next]
			if d.S != s || d.R != r || d.Size != n {
				panic(fmt.Sprintf("fwd: protocol error: packed %v, unpacked {%dB %v %v}", d, n, s, r))
			}
			// The fragment landed glued to the header (or was captured into
			// gateway memory), so handing it to the application is one real
			// copy.
			g.node.Host.Memcpy(p, n)
			copy(dst[off:off+n], g.frags[g.next])
			g.next++
			g.got += n
			return
		}
		if g.link == nil || g.eomSeen {
			panic("fwd: protocol error: blocks expected after the compact terminator")
		}
		meta, got := g.link.RecvInto(p, dst[off:off+n])
		if len(meta.Blocks) != 1 {
			panic("fwd: protocol error: compact packet without exactly one block")
		}
		d := meta.Blocks[0]
		if d.S != s || d.R != r || d.Size != n || got != n {
			panic(fmt.Sprintf("fwd: protocol error: packed %v, unpacked {%dB %v %v}", d, n, s, r))
		}
		g.eomSeen = meta.EOM
		g.got += got
	})
}

func (g *compactUnpacking) end(p *vtime.Proc) {
	if g.next != len(g.frags) {
		panic("fwd: protocol error: compact message ended with unconsumed fragments")
	}
	if !g.eomSeen {
		panic("fwd: protocol error: compact message ended before its terminator")
	}
	if g.link != nil {
		g.link.ReleaseRecv(p)
	}
	g.vc.hop(p, g.id, g.node.Name, "deliver", obs.Detail{Form: hopReassembled}, g.got)
}
