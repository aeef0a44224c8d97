package fwd

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"

	"madgo/internal/mad"
	"madgo/internal/vtime"
)

// Fuzz targets for the codecs that parse bytes off the wire: the stream
// header every gateway decodes before relaying (§2.3), through FuzzStreamOpen,
// the parse of a stream's first transfer, whatever its header's shape (a
// reliable data datagram opens with the unicast one too), and the reliable
// engine's ack batch and descriptor formats. The contract under test is the
// same for all of them: decode never panics, rejects malformed input with
// ok=false, and accepts exactly the encoder's output — for every accepted
// input the re-encoded fields reproduce the input byte for byte.

// encodeHeader is a header of kind as a value; the stream writer writes it in
// place.
func encodeHeader(kind mad.Kind, h streamHdr) []byte {
	b := make([]byte, streamHeaderLen(kind, len(h.dests)))
	putStreamHeader(b, kind, h)
	return b
}

// encodeCompact is the first transfer of a compact message: the unicast
// header with the first data fragment glued on.
func encodeCompact(h streamHdr, frag []byte) []byte {
	return append(encodeHeader(mad.KindEager, h), frag...)
}

// checkHeader holds a header that decodeStreamHeader accepted as h to what
// every receiver acts on: a usable MTU, a re-encoding of hdr byte for byte, a
// rail's span within its total and a unicast header in its first 20 bytes,
// and a multicast header's destinations strictly ascending, of a bounded
// count, with any single flipped byte rejected.
func checkHeader(t *testing.T, kind mad.Kind, h streamHdr, hdr []byte) {
	t.Helper()
	if h.mtu <= 0 {
		t.Fatalf("accepted a header with unusable mtu %d", h.mtu)
	}
	if re := encodeHeader(kind, h); !bytes.Equal(re, hdr) {
		t.Fatalf("%v header round-trip mismatch:\n in  %x\n out %x", kind, hdr, re)
	}
	switch kind {
	case mad.KindStripe:
		// A corrupted span must never index the posted buffer out of bounds.
		if h.nrails < 1 || h.rail >= h.nrails || h.spanStart < 0 || h.spanLen < 0 || h.spanStart+h.spanLen > h.total {
			t.Fatalf("accepted unusable rail fields: %+v", h)
		}
		// Its first 20 bytes are a unicast header, so a gateway routes a rail
		// without understanding striping.
		g, ok := decodeStreamHeader(mad.KindGTM, hdr[:gtmHeaderLen], nil)
		if !ok || g.src != h.src || g.dst != h.dst || g.mtu != h.mtu || g.id != h.id {
			t.Fatalf("rail header prefix is not a unicast header: %+v", h)
		}
	case mad.KindMcast:
		// A corrupted set silently mis-replicates: canonical lists of a
		// bounded count only, and the CRC catches every single-byte flip.
		if n := len(h.dests); n < 1 || n > mcastMaxDests {
			t.Fatalf("accepted a destination count of %d", n)
		}
		for i := 1; i < len(h.dests); i++ {
			if h.dests[i] <= h.dests[i-1] {
				t.Fatalf("accepted non-canonical destination set %v", h.dests)
			}
		}
		if len(hdr) <= 256 {
			for i := range hdr {
				hdr[i] ^= 0xFF
				if _, stillOK := decodeStreamHeader(kind, hdr, nil); stillOK {
					t.Fatalf("multicast header still decodes with byte %d flipped", i)
				}
				hdr[i] ^= 0xFF
			}
		}
	}
}

// TestStreamHeaderLayout pins the one stream header: every kind opens with
// the same 16 bytes (src, mtu, id), a unicast header is 20 bytes, a rail's 48
// and a multicast header of n destinations 18+4n+4, and each round-trips
// through decodeStreamHeader.
func TestStreamHeaderLayout(t *testing.T) {
	uni := streamHdr{src: 3, dst: 7, mtu: 32 << 10, id: 1<<40 + 9}
	rail := uni
	rail.rail, rail.nrails, rail.flags = 1, 2, stripeFlagForwarded|flagAgg
	rail.spanStart, rail.spanLen, rail.total = 100, 50, 300
	mcast := func(dests ...mad.Rank) streamHdr {
		return streamHdr{src: uni.src, mtu: uni.mtu, id: uni.id, dests: dests}
	}
	prefix := []byte{3, 0, 0, 0, 0, 0x80, 0, 0, 9, 0, 0, 0, 0, 1, 0, 0}
	for _, c := range []struct {
		kind mad.Kind
		h    streamHdr
		len  int
	}{
		{mad.KindGTM, uni, 20}, {mad.KindEager, uni, 20}, {mad.KindAgg, uni, 20},
		{mad.KindStripe, rail, 48},
		{mad.KindMcast, mcast(7), 18 + 4 + 4}, {mad.KindMcast, mcast(0, 2, 7, 9), 18 + 16 + 4},
	} {
		b := encodeHeader(c.kind, c.h)
		if len(b) != c.len {
			t.Errorf("%v header with %d dests: %d bytes, want %d", c.kind, len(c.h.dests), len(b), c.len)
		}
		if !bytes.Equal(b[:streamPrefixLen], prefix) {
			t.Errorf("%v header opens with % x, want % x", c.kind, b[:streamPrefixLen], prefix)
		}
		if got, ok := decodeStreamHeader(c.kind, b, nil); !ok || !reflect.DeepEqual(got, c.h) {
			t.Errorf("%v header round trip: ok %v, got %+v, want %+v", c.kind, ok, got, c.h)
		}
	}
}

// FuzzStreamOpen covers the step every receiver of a stream takes before it
// trusts a byte of it: parseStream on the first transfer — the final
// receiver's open and the gateway's classify are this one call, so what one
// accepts the other does. It never panics, and what it accepts is safe to act
// on: the header lies within the transfer and passes checkHeader, the
// descriptors of the payload that rode along cover the remaining bytes
// exactly with no negative size, at most one block rides an eager header, a
// frame is exactly one block and the whole message, multicast payload rides
// only with the terminator, and a header that always travels alone did. A
// well-formed unicast header is accepted: one is rejected for its length or a
// zero MTU only. So is a well-formed compact frame — that header with one
// fragment, possibly empty, behind it — which round-trips byte for byte. Every
// input is also parsed into scratch full of stale ranks, as a gateway's ring
// and a sink's channel reuse theirs: the result is the same, so nothing stale
// leaks into a decoded destination set.
func FuzzStreamOpen(f *testing.F) {
	for _, eom := range []bool{false, true} {
		for _, seed := range gtmHeaderSeeds() {
			f.Add(uint8(mad.KindGTM), true, eom, blockSizes(len(seed)), seed)
		}
		for _, seed := range stripeHeaderSeeds() {
			f.Add(uint8(mad.KindStripe), true, eom, blockSizes(len(seed)), seed)
		}
		for _, seed := range gtmCompactSeeds() {
			f.Add(uint8(mad.KindEager), true, eom, blockSizes(gtmHeaderLen, len(seed)-gtmHeaderLen), seed)
			f.Add(uint8(mad.KindAgg), true, eom, blockSizes(gtmHeaderLen, len(seed)-gtmHeaderLen), seed)
		}
		for _, seed := range mcastHeaderSeeds() {
			f.Add(uint8(mad.KindMcast), true, eom, blockSizes(len(seed)), seed)
			f.Add(uint8(mad.KindMcast), true, eom, blockSizes(len(seed), 3, 0, 4), append(seed[:len(seed):len(seed)], "payload"...))
		}
	}
	f.Add(uint8(mad.KindPlain), true, false, blockSizes(4), []byte("body"))
	f.Add(uint8(mad.KindGTM), false, false, blockSizes(gtmHeaderLen), gtmHeaderSeeds()[0])
	f.Fuzz(checkStreamOpen)
}

// FuzzGTMHeader, FuzzGTMCompactHeader, FuzzStripeHeader and FuzzMcastHeader
// were one target per header shape of the codec FuzzStreamOpen drives. They
// are kept as their seed corpora, replayed through its check: a header alone,
// or a compact frame's header and fragment. make fuzz fuzzes FuzzStreamOpen.
func FuzzGTMHeader(f *testing.F)        { replayStreamOpen(f, mad.KindGTM, gtmHeaderSeeds()) }
func FuzzStripeHeader(f *testing.F)     { replayStreamOpen(f, mad.KindStripe, stripeHeaderSeeds()) }
func FuzzMcastHeader(f *testing.F)      { replayStreamOpen(f, mad.KindMcast, mcastHeaderSeeds()) }
func FuzzGTMCompactHeader(f *testing.F) { replayStreamOpen(f, mad.KindEager, gtmCompactSeeds()) }

// replayStreamOpen runs seeds, first transfers of kind, through
// checkStreamOpen: an eager one as a header and one fragment, any other as a
// header alone.
func replayStreamOpen(f *testing.F, kind mad.Kind, seeds [][]byte) {
	for _, seed := range seeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, first []byte) {
		sizes := blockSizes(len(first))
		if kind == mad.KindEager {
			sizes = blockSizes(gtmHeaderLen, len(first)-gtmHeaderLen)
		}
		checkStreamOpen(t, uint8(kind), true, false, sizes, first)
	})
}

// blockSizes encodes FuzzStreamOpen's block sizes, two bytes each.
func blockSizes(ns ...int) []byte {
	var b []byte
	for _, n := range ns {
		b = binary.LittleEndian.AppendUint16(b, uint16(n))
	}
	return b
}

// checkStreamOpen is FuzzStreamOpen's check of one first transfer.
func checkStreamOpen(t *testing.T, k uint8, som, eom bool, sizes, first []byte) {
	kind := mad.Kind(k)
	unicast := kind == mad.KindGTM || kind == mad.KindEager || kind == mad.KindAgg
	if unicast && len(first) == gtmHeaderLen && binary.LittleEndian.Uint32(first[4:]) != 0 {
		if _, ok := decodeStreamHeader(kind, first, nil); !ok {
			t.Fatalf("rejected a well-formed %v header %x", kind, first)
		}
	}
	meta := mad.TxMeta{SOM: som, EOM: eom, Kind: kind}
	for ; len(sizes) >= 2; sizes = sizes[2:] {
		// Signed, so that a corrupted descriptor can claim a negative size.
		meta.Blocks = append(meta.Blocks, mad.BlockDesc{Size: int(int16(binary.LittleEndian.Uint16(sizes)))})
	}
	compact := kind == mad.KindEager && som && len(first) >= gtmHeaderLen && binary.LittleEndian.Uint32(first[4:]) != 0 &&
		len(meta.Blocks) == 2 && meta.Blocks[0].Size == gtmHeaderLen && meta.Blocks[1].Size == len(first)-gtmHeaderLen
	o, ok := parseStream(kind, meta, first, nil)
	if compact && (!ok || !bytes.Equal(encodeCompact(o.streamHdr, o.payload), first)) {
		t.Fatalf("a well-formed %d-byte compact frame: accepted %v, or it does not round-trip", len(first), ok)
	}
	dirty := []mad.Rank{9, 0xdeadbeef, 3, 3, 1, 0, 7, 5}
	if o2, ok2 := parseStream(kind, meta, first, dirty[:len(dirty)/2]); ok2 != ok || ok && !reflect.DeepEqual(o2, o) {
		t.Fatalf("parsed into stale scratch: %v %+v, into nil: %v %+v", ok2, o2.streamHdr, ok, o.streamHdr)
	}
	if !ok {
		return
	}
	if !som || framingOf(kind) == nil {
		t.Fatalf("accepted a transfer that starts no %v stream (SOM %v)", kind, som)
	}
	if o.hsize < 0 || o.hsize > len(first) || len(o.payload) != len(first)-o.hsize {
		t.Fatalf("header of %d bytes and payload of %d in a transfer of %d", o.hsize, len(o.payload), len(first))
	}
	checkHeader(t, kind, o.streamHdr, first[:o.hsize])
	covered := 0
	for _, d := range o.descs {
		if d.Size < 0 {
			t.Fatalf("accepted a negative block size: %v", o.descs)
		}
		covered += d.Size
	}
	if covered != len(o.payload) {
		t.Fatalf("descriptors %v cover %d of the %d payload bytes", o.descs, covered, len(o.payload))
	}
	var h heldMsg
	if h.park(first, o.payload, o.descs); len(h.frags) != len(o.descs) {
		t.Fatalf("%d fragments for %d descriptors", len(h.frags), len(o.descs))
	}
	switch n := len(o.descs); {
	case framingOf(kind).bracketed && (n != 0 || o.hsize != framingOf(kind).hdrDesc[0].Size):
		t.Fatalf("a %v header of %d bytes with %d payload blocks in its transfer", kind, o.hsize, n)
	case kind == mad.KindEager && n > 1:
		t.Fatalf("%d payload blocks ride an eager header", n)
	case kind == mad.KindAgg && (n != 1 || !eom):
		t.Fatalf("aggregate transfer of %d blocks, EOM %v", n, eom)
	case kind == mad.KindMcast && n > 0 && !eom:
		t.Fatalf("multicast payload rides a header without the terminator")
	}
}

// TestRelDatagramLayout pins the reliable data datagram: it opens with the
// unicast stream header a GTM stream opens with, then frag u24 at 20, total
// u24 at 23 and flags at 26, the payload behind a 27-byte header; an
// end-to-end ack's frag is all ones. An ack batch is a count and that many
// 8-byte sequence numbers, a descriptor a block count and 6 bytes a block.
func TestRelDatagramLayout(t *testing.T) {
	d := relData{src: 3, dst: 7, mtu: 32 << 10, id: 1<<40 + 9, frag: 0x050403, total: 0x0a0908, payload: []byte("xy")}
	pkt := make([]byte, relDataLen(len(d.payload)))
	putRelData(pkt, &d, flagAgg|relFlagFlush)
	if want := encodeHeader(mad.KindGTM, streamHdr{src: 3, dst: 7, mtu: 32 << 10, id: 1<<40 + 9}); !bytes.Equal(pkt[:gtmHeaderLen], want) {
		t.Errorf("datagram opens with % x, want the stream header % x", pkt[:gtmHeaderLen], want)
	}
	if got, want := pkt[20:], []byte{3, 4, 5, 8, 9, 10, flagAgg | relFlagFlush, 'x', 'y'}; !bytes.Equal(got, want) {
		t.Errorf("frag | total | flags | payload = % x, want % x", got, want)
	}
	if relDataHdrLen != 27 || len(pkt) != 27+len(d.payload) {
		t.Errorf("header = %d bytes, datagram %d; want 27 and %d", relDataHdrLen, len(pkt), 27+len(d.payload))
	}
	e2e := relData{src: 3, dst: 3, mtu: 1, id: 9, frag: e2eFrag}
	pkt = make([]byte, relDataLen(0))
	putRelData(pkt, &e2e, relFlagFlush)
	if got, ok := decodeRelData(pkt); !ok || got.frag != 0xFFFFFF || !bytes.Equal(pkt[20:23], []byte{0xFF, 0xFF, 0xFF}) {
		t.Errorf("end-to-end ack: ok %v, frag %#x, bytes % x", ok, got.frag, pkt[20:23])
	}
	acks := make([]byte, relAcksLen(2))
	putRelAcks(acks, []uint64{1, 0x0807060504030201})
	if want := []byte{2, 1, 0, 0, 0, 0, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8}; !bytes.Equal(acks, want) {
		t.Errorf("ack batch % x, want % x", acks, want)
	}
	desc := make([]byte, relDescLen(1))
	putRelDesc(desc, []relBlock{{data: make([]byte, 0x0102), s: mad.SendLater, r: mad.ReceiveExpress}}, 0x04030201)
	if want := []byte{1, 2, 3, 4, 1, 0, 0, 0, 2, 1, 0, 0, byte(mad.SendLater), byte(mad.ReceiveExpress)}; !bytes.Equal(desc, want) {
		t.Errorf("descriptor % x, want % x", desc, want)
	}
}

// FuzzRelData: decodeRelData accepts exactly a datagram that holds the fixed
// fields behind a unicast stream header decodeStreamHeader accepts, and what
// it accepts re-encodes byte for byte. Integrity is the link's: a datagram
// its link corrupts never reaches the decoder (mad.Link.deliver).
func FuzzRelData(f *testing.F) {
	for _, seed := range relDataSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d, ok := decodeRelData(data)
		if len(data) >= relDataHdrLen {
			if _, hdrOK := decodeStreamHeader(mad.KindRel, data[:gtmHeaderLen], nil); hdrOK != ok {
				t.Fatalf("datagram accepted %v, its header %v", ok, hdrOK)
			}
		}
		if !ok {
			return
		}
		checkHeader(t, mad.KindRel, streamHdr{src: d.src, dst: d.dst, mtu: int(d.mtu), id: d.id}, data[:gtmHeaderLen])
		if re := encodeRelData(d.src, d.dst, d.mtu, d.id, d.frag, d.total, d.flags, d.payload); !bytes.Equal(re, data) {
			t.Fatalf("round-trip mismatch:\n in  %x\n out %x", data, re)
		}
	})
}

// FuzzRelAck: decodeRelAcks accepts exactly a count of 1 to relAckBatchMax
// followed by that many sequence numbers, and what it accepts re-encodes byte
// for byte.
func FuzzRelAck(f *testing.F) {
	for _, seed := range relAckSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		raw, ok := decodeRelAcks(data)
		if wellFormed := len(data) > 0 && data[0] > 0 && data[0] <= relAckBatchMax && len(data) == relAcksLen(int(data[0])); ok != wellFormed {
			t.Fatalf("ack batch %x: accepted %v, well-formed %v", data, ok, wellFormed)
		}
		if !ok {
			return
		}
		if re := encodeRelAcks(ackSeqs(raw)); !bytes.Equal(re, data) {
			t.Fatalf("round-trip mismatch:\n in  %x\n out %x", data, re)
		}
	})
}

func FuzzRelDesc(f *testing.F) {
	for _, seed := range relDescSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		desc, seq, ok := decodeRelDesc(data, nil)
		if !ok {
			return
		}
		if len(data) != relDescLen(len(desc)) {
			t.Fatalf("accepted descriptor whose length %d does not match %d blocks",
				len(data), len(desc))
		}
		// Re-encode through the real encoder when the block sizes are small
		// enough to materialize; huge advertised sizes are legal in the
		// descriptor (the unpack calls reject them later) but not worth a
		// multi-gigabyte allocation here.
		total := 0
		for _, d := range desc {
			total += d.Size
			if d.Size > 1<<16 || total > 1<<20 {
				return
			}
		}
		blocks := make([]relBlock, len(desc))
		for i, d := range desc {
			blocks[i] = relBlock{data: make([]byte, d.Size), s: d.S, r: d.R}
		}
		if re := encodeRelDesc(blocks, seq); !bytes.Equal(re, data) {
			t.Fatalf("round-trip mismatch:\n in  %x\n out %x", data, re)
		}
	})
}

// FuzzRelHandle feeds a relaying node hostile bytes: while a0 sends a message
// to b0, the fuzzer's datagram reaches gw over a0's link, once as a KindRel
// data packet, once as a KindRelAck batch and once as a KindGTM stream, a kind
// the reliable engine does not speak, and the relChain world runs to
// quiescence. Nothing panics, and a datagram that does not decode — the GTM one
// always — is counted as a ChecksumDrop. No node holds a message no sender sent: b0 holds a0's, byte
// for byte and once, and the only other message anywhere is the one the
// datagram itself describes — a packet that decodes is a sender's as far as
// any node can tell, so one that impersonates a0 is held to the rest only.
// With the merged queues and partial reassemblies released, every buffer taken
// came back, poisoned on its way (PoisonRelBufs, the fwd_test worlds'
// auditRelBufs discipline). A finished world keeps its daemons parked, so the
// inputs share one world: a world an input for itself leaked its daemons, as
// many as the fuzzer runs inputs, once most inputs decoded as data packets, and
// the worker ran out of memory. What an input may leave behind — held
// messages, partial reassemblies, done windows a hostile message entered — is
// released or cleared after it. A failure `go test -fuzz` finds may still
// depend on the inputs that ran before it in the same worker (acks they
// applied, counters and link health they moved): replay the minimized input
// alone, from a fresh world, with `go test -run FuzzRelHandle/<file>`, and
// treat a crasher that passes there as such a dependence, not as fixed.
func FuzzRelHandle(f *testing.F) {
	for _, seed := range relHandleSeeds() {
		f.Add(seed)
	}
	var sim *vtime.Sim
	var vc *VirtualChannel
	f.Fuzz(func(t *testing.T, data []byte) {
		d, dataOK := decodeRelData(data)
		if vc == nil {
			sim, vc = relChain(t, DefaultConfig())
			PoisonRelBufs(vc)
		}
		want := vc.DeliveryStats()
		a0, b0 := vc.NodeRank("a0"), vc.NodeRank("b0")
		msg := make([]byte, 40<<10)
		for i := range msg {
			msg[i] = byte(i * 7)
		}
		sim.Spawn("send:a0", func(p *vtime.Proc) {
			px := vc.At("a0").BeginPacking(p, "b0")
			px.Pack(p, msg, mad.SendCheaper, mad.ReceiveCheaper)
			px.EndPacking(p)
		})
		link := vc.regular["sci0"].Link(a0, vc.NodeRank("gw"))
		for _, kind := range []mad.Kind{mad.KindRel, mad.KindRelAck, mad.KindGTM} {
			sim.Spawn("hostile:"+kind.String(), func(p *vtime.Proc) {
				pkt := vc.bufs.Get(len(data))
				copy(pkt, data)
				link.Acquire(p)
				if _, sent := link.Send(p, relMeta(kind), pkt); !sent {
					vc.bufs.Put(pkt)
				}
				link.Release(p)
			})
		}
		if err := sim.Run(); err != nil {
			t.Fatal(err)
		}

		nodes := mad.Rank(len(vc.sess.Nodes()))
		dataOK = dataOK && d.src < nodes && d.dst < nodes
		_, ackOK := decodeRelAcks(data)
		rejects := 1 // the GTM datagram
		for _, ok := range []bool{dataOK, ackOK} {
			if !ok {
				rejects++
			}
		}
		want.ChecksumDrops += int64(rejects)
		if got := vc.DeliveryStats(); got.ChecksumDrops < want.ChecksumDrops || rejects == 3 && got != want {
			t.Errorf("%d datagrams rejected: delivery stats %+v, want %+v", rejects, got, want)
		}
		impersonated := dataOK && d.src == a0
		delivered := 0
		for _, e := range vc.rel {
			for {
				in, ok := vc.merged[e.node.Rank].TryRecv()
				if !ok {
					break
				}
				h := in.held
				switch {
				case dataOK && h.src == d.src && h.id == d.id:
				case e.node.Rank == b0 && h.src == a0:
					delivered++
					if got := bytes.Join(h.frags, nil); !impersonated && !bytes.Equal(got, msg) {
						t.Errorf("b0 holds a0's message with %d bytes unlike the %d a0 sent", len(got), len(msg))
					}
				default:
					t.Errorf("%s holds message %d of rank %d, which no sender sent", e.node.Name, h.id, h.src)
				}
				vc.release(h)
			}
			for k, h := range e.rx {
				delete(e.rx, k)
				vc.release(h)
			}
			for _, w := range e.done { // a message the datagram numbers past its origin's next waits there
				for _, h := range w.held {
					if h != nil && !(dataOK && h.src == d.src && h.id == d.id) {
						t.Errorf("%s holds back message %d of rank %d, which no sender sent", e.node.Name, h.id, h.src)
					}
					if h != nil {
						vc.release(h)
					}
				}
			}
			clear(e.done) // or a message the datagram completed passes a later one off as a duplicate
		}
		if delivered != 1 && !impersonated {
			t.Errorf("b0 holds %d copies of a0's message, want 1", delivered)
		}
		if bk := vc.RelBookkeeping(); bk.BufsTaken != bk.BufsReturned {
			t.Errorf("buffer ledger: %d taken, %d returned", bk.BufsTaken, bk.BufsReturned)
		}
	})
}

// Seed corpora. The same byte sets feed f.Add at run time and the checked-in
// files under testdata/fuzz (regenerated by TestRegenFuzzCorpus), so `go test
// -fuzz` and a bare `go test` exercise identical seeds.

func gtmHeaderSeeds() [][]byte {
	return [][]byte{
		encodeHeader(mad.KindGTM, streamHdr{src: 0, dst: 1, mtu: 4096, id: 1}),
		encodeHeader(mad.KindGTM, streamHdr{src: 3, dst: 7, mtu: 1, id: ^uint64(0)}),
		encodeHeader(mad.KindGTM, streamHdr{src: 8, dst: 4, mtu: 1<<31 - 1, id: 42}),
		make([]byte, gtmHeaderLen), // right length, mtu 0 → rejected
		make([]byte, gtmHeaderLen-1),
		make([]byte, gtmHeaderLen+1),
		{},
	}
}

func gtmCompactSeeds() [][]byte {
	return [][]byte{
		encodeCompact(streamHdr{src: 0, dst: 1, mtu: 4096, id: 1}, []byte("tiny payload")),
		encodeCompact(streamHdr{src: 3, dst: 7, mtu: 1, id: ^uint64(0)}, nil), // header-only: empty eager message
		encodeCompact(streamHdr{src: 8, dst: 4, mtu: 1<<31 - 1, id: 42}, make([]byte, eagerInlineMax)),
		make([]byte, gtmHeaderLen), // right length, mtu 0 → rejected
		make([]byte, gtmHeaderLen-1),
		{},
	}
}

func stripeHeaderSeeds() [][]byte {
	return [][]byte{
		encodeHeader(mad.KindStripe, streamHdr{src: 0, dst: 1, mtu: 4096, id: 1,
			rail: 0, nrails: 2, spanStart: 0, spanLen: 64 << 10, total: 128 << 10}),
		encodeHeader(mad.KindStripe, streamHdr{src: 3, dst: 7, mtu: 1, id: ^uint64(0),
			rail: 2, nrails: 3, flags: stripeFlagForwarded, spanStart: 100, spanLen: 0, total: 100}),
		encodeHeader(mad.KindStripe, streamHdr{src: 8, dst: 4, mtu: 1 << 20, id: 42,
			rail: 0, nrails: 1, spanStart: 0, spanLen: 9, total: 9}),
		make([]byte, stripeHeaderLen), // mtu 0 → rejected
		make([]byte, stripeHeaderLen-1),
		make([]byte, stripeHeaderLen+1),
		{},
	}
}

func mcastHeaderSeeds() [][]byte {
	return [][]byte{
		encodeHeader(mad.KindMcast, streamHdr{src: 0, mtu: 4096, id: 1, dests: []mad.Rank{1}}),
		encodeHeader(mad.KindMcast, streamHdr{src: 3, mtu: 1, id: ^uint64(0), dests: []mad.Rank{0, 2, 7}}),
		encodeHeader(mad.KindMcast, streamHdr{src: 8, mtu: 1<<31 - 1, id: 42, dests: []mad.Rank{1, 2, 3, 4, 5, 6, 7, 8}}),
		make([]byte, streamHeaderLen(mad.KindMcast, 1)), // count 0 → rejected
		make([]byte, streamHeaderLen(mad.KindMcast, 1)-1),
		make([]byte, streamHeaderLen(mad.KindMcast, 2)),
		{},
	}
}

func relDataSeeds() [][]byte {
	return [][]byte{
		encodeRelData(0, 1, 4096, 1, 0, 3, 0, []byte("payload")),
		encodeRelData(5, 5, 32<<10, 9, e2eFrag, 0, relFlagFlush, nil), // end-to-end ack shape
		encodeRelData(2, 3, 1, 1<<40, 7, 8, 0, make([]byte, 64)),
		encodeRelData(1, 2, 1<<31-1, 4, 0, 1, relFlagFlush|flagAgg, []byte("flush")),
		make([]byte, relDataHdrLen), // mtu 0 → rejected
		make([]byte, relDataHdrLen-1),
		{},
	}
}

func relAckSeeds() [][]byte {
	return [][]byte{
		encodeRelAcks([]uint64{1}),
		encodeRelAcks([]uint64{^uint64(0)}),
		encodeRelAcks([]uint64{7, 8, 1 << 40}),
		make([]byte, relAcksLen(1)), // count 0 → rejected
		make([]byte, relAckEntry),
		{},
	}
}

func relDescSeeds() [][]byte {
	return [][]byte{
		encodeRelDesc(nil, 0),
		encodeRelDesc([]relBlock{{data: []byte("abc"), s: mad.SendCheaper, r: mad.ReceiveCheaper}}, 1),
		encodeRelDesc([]relBlock{
			{data: make([]byte, 100), s: mad.SendSafer, r: mad.ReceiveExpress},
			{data: nil, s: mad.SendLater, r: mad.ReceiveCheaper},
		}, 1<<32-1),
		{0, 0, 0, 0, 1, 0, 0, 0}, // one block announced, none there → rejected
		make([]byte, 7),
		{},
	}
}

// relHandleSeeds are the data and ack seeds, then a whole one-fragment message
// gw never sent, a packet naming a rank the session does not have, the first
// of two fragments b0 never sent to a0, and a whole message numbered second in
// its pair's sequence, which its sink holds back for a first that never comes.
func relHandleSeeds() [][]byte {
	return append(append(relDataSeeds(), relAckSeeds()...),
		encodeRelData(1, 2, 4096, 7, 0, 1, 0, encodeRelDesc(nil, 0)),
		encodeRelData(0, 9, 4096, 7, 0, 1, 0, nil),
		encodeRelData(2, 0, 4096, 7, 0, 2, 0, []byte("x")),
		encodeRelData(1, 2, 4096, 8, 0, 1, 0, encodeRelDesc(nil, 2)))
}

// TestRegenFuzzCorpus rewrites the seed corpora under testdata/fuzz from the
// live encoders. Run with MADGO_REGEN_CORPUS=1 after changing a wire format;
// a bare `go test` only verifies the files are present and well-formed.
func TestRegenFuzzCorpus(t *testing.T) {
	corpora := map[string][][]byte{
		"FuzzGTMHeader":        gtmHeaderSeeds(),
		"FuzzGTMCompactHeader": gtmCompactSeeds(),
		"FuzzStripeHeader":     stripeHeaderSeeds(),
		"FuzzMcastHeader":      mcastHeaderSeeds(),
		"FuzzRelData":          relDataSeeds(),
		"FuzzRelAck":           relAckSeeds(),
		"FuzzRelDesc":          relDescSeeds(),
		"FuzzRelHandle":        relHandleSeeds(),
	}
	regen := os.Getenv("MADGO_REGEN_CORPUS") != ""
	for name, seeds := range corpora {
		dir := filepath.Join("testdata", "fuzz", name)
		if regen {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
		}
		for i, seed := range seeds {
			path := filepath.Join(dir, "seed-"+strconv.Itoa(i))
			want := "go test fuzz v1\n[]byte(" + strconv.Quote(string(seed)) + ")\n"
			if regen {
				if err := os.WriteFile(path, []byte(want), 0o644); err != nil {
					t.Fatal(err)
				}
				continue
			}
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing seed corpus entry (MADGO_REGEN_CORPUS=1 regenerates): %v", err)
			}
			if string(got) != want {
				t.Errorf("%s is stale; regenerate with MADGO_REGEN_CORPUS=1", path)
			}
		}
	}
}
