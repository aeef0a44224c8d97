package fwd

// The copying encoders the reliable dataplane shipped before its packets
// moved into pooled buffers: each makes its datagram fresh. They survive
// here as the oracle the encode-into-buffer codec is held to, byte for byte,
// and as the fuzz targets' round-trip reference.

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"madgo/internal/mad"
)

// encodeRelData writes the data datagram byte by byte, the stream header
// included, so the oracle does not share the codec it checks.
func encodeRelData(src, dst mad.Rank, mtu uint32, id uint64, frag, total uint32, flags uint8, payload []byte) []byte {
	pkt := make([]byte, 27+len(payload))
	binary.LittleEndian.PutUint32(pkt[0:], uint32(src))
	binary.LittleEndian.PutUint32(pkt[4:], mtu)
	binary.LittleEndian.PutUint64(pkt[8:], id)
	binary.LittleEndian.PutUint32(pkt[16:], uint32(dst))
	pkt[20], pkt[21], pkt[22] = byte(frag), byte(frag>>8), byte(frag>>16)
	pkt[23], pkt[24], pkt[25] = byte(total), byte(total>>8), byte(total>>16)
	pkt[26] = flags
	copy(pkt[27:], payload)
	return pkt
}

func encodeRelAcks(seqs []uint64) []byte {
	if len(seqs) == 0 || len(seqs) > relAckBatchMax {
		panic("fwd: ack batch size out of range")
	}
	pkt := []byte{byte(len(seqs))}
	for _, seq := range seqs {
		pkt = binary.LittleEndian.AppendUint64(pkt, seq)
	}
	return pkt
}

func encodeRelDesc(blocks []relBlock, seq uint32) []byte {
	b := binary.LittleEndian.AppendUint32(nil, seq)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(blocks)))
	for _, bl := range blocks {
		b = append(binary.LittleEndian.AppendUint32(b, uint32(len(bl.data))), byte(bl.s), byte(bl.r))
	}
	return b
}

// ackSeqs decodes an ack batch's body.
func ackSeqs(raw []byte) []uint64 {
	var seqs []uint64
	for off := 0; off < len(raw); off += relAckEntry {
		seqs = append(seqs, binary.LittleEndian.Uint64(raw[off:]))
	}
	return seqs
}

// PoisonRelBufs makes the channel's pool overwrite every buffer it gets back,
// so a payload, descriptor, ack trailer, aggregate frame, landing slot or
// staging buffer — a driver's static ones too — read through an alias the
// owner should have dropped comes out as 0xDB garbage — failing the byte-exact
// delivery checks, or a decoder's structural ones — instead of passing by luck.
// Every descriptor pair given back reads Size -1, which no transfer carries:
// a hop or a sink that reads one after its final receiver returned it fails
// the sink's size check with a protocol error, or the link's. Exported to the
// package's external tests; it exists in test builds only.
func PoisonRelBufs(vc *VirtualChannel) { vc.bufs.OnPut, vc.bufs.OnPutPair = poison, poisonPair }

// SinkFrames reports what a sink holds of the aggregated path: whether it is
// draining a frame — sub-messages of it are still unread, asked of a copy of
// the reader — and how many entries — frames, when nothing else is sent to
// it — the polling threads have queued ahead of the application.
func SinkFrames(vc *VirtualChannel, node string) (draining bool, ahead int) {
	rank := vc.NodeRank(node)
	for _, rx := range vc.aggst.rx[rank] {
		_, ok := rx.rd.Next()
		draining = draining || ok
	}
	return draining, vc.merged[rank].Len()
}

func poison(buf []byte) {
	for i := range buf {
		buf[i] = 0xDB
	}
}

func poisonPair(pair []mad.BlockDesc) {
	for i := range pair {
		pair[i] = mad.BlockDesc{Size: -1}
	}
}

// pooledEqualsOracle encodes one data packet both ways — the second into a
// dirty pooled buffer — and compares.
func pooledEqualsOracle(t *testing.T, bp *mad.Pool, d relData) {
	t.Helper()
	want := encodeRelData(d.src, d.dst, d.mtu, d.id, d.frag, d.total, d.flags, d.payload)
	pkt := bp.Get(relDataLen(len(d.payload)))
	putRelData(pkt, &d, d.flags)
	if !bytes.Equal(pkt, want) {
		t.Fatalf("pooled encoding differs from the copying encoder:\n got  %x\n want %x", pkt, want)
	}
	bp.Put(pkt)
}

// TestPooledEncodersMatchCopyingOracle: random headers and payloads (and the
// FuzzRelData seed corpus) encode byte-identically into recycled, poisoned
// buffers; so do ack batches and descriptors.
func TestPooledEncodersMatchCopyingOracle(t *testing.T) {
	bp := mad.Pool{OnPut: poison}
	for _, seed := range relDataSeeds() {
		if d, ok := decodeRelData(seed); ok { // the corpus holds malformed packets too
			pooledEqualsOracle(t, &bp, d)
		}
	}
	rng := rand.New(rand.NewSource(14))
	for i := 0; i < 2000; i++ {
		payload := make([]byte, rng.Intn(3)*rng.Intn(20000))
		rng.Read(payload)
		d := relData{src: mad.Rank(rng.Intn(64)), dst: mad.Rank(rng.Intn(64)), mtu: 1 + rng.Uint32()>>1, id: rng.Uint64(),
			frag: rng.Uint32() & (1<<24 - 1), total: rng.Uint32() & (1<<24 - 1), flags: uint8(rng.Intn(4)), payload: payload}
		pooledEqualsOracle(t, &bp, d)

		seqs := make([]uint64, 1+rng.Intn(relAckBatchMax))
		for j := range seqs {
			seqs[j] = rng.Uint64()
		}
		pkt := bp.Get(relAcksLen(len(seqs)))
		putRelAcks(pkt, seqs)
		if want := encodeRelAcks(seqs); !bytes.Equal(pkt, want) {
			t.Fatalf("pooled ack batch differs:\n got  %x\n want %x", pkt, want)
		}
		bp.Put(pkt)

		blocks := make([]relBlock, rng.Intn(5))
		for j := range blocks {
			blocks[j] = relBlock{data: make([]byte, rng.Intn(4096)),
				s: mad.SendMode(rng.Intn(3)), r: mad.RecvMode(rng.Intn(2))}
		}
		seq := rng.Uint32() >> rng.Intn(32)
		desc := bp.Get(relDescLen(len(blocks)))
		putRelDesc(desc, blocks, seq)
		if want := encodeRelDesc(blocks, seq); !bytes.Equal(desc, want) {
			t.Fatalf("pooled descriptor differs:\n got  %x\n want %x", desc, want)
		}
		bp.Put(desc)
	}
	if l := bp.Ledger(); l.BufsTaken != l.BufsReturned {
		t.Fatalf("ledger: took %d, returned %d", l.BufsTaken, l.BufsReturned)
	}
}

// TestRelBufPoolClasses: a capacity is its own class, classes are monotone,
// and a recycled buffer serves any request of its class.
func TestRelBufPoolClasses(t *testing.T) {
	const page = 4096
	classOf := func(n int) (size int) {
		var bp mad.Pool
		return cap(bp.Get(n))
	}
	prevSize := 0
	for n := 0; n <= 300<<10; n += 1 + n/7 {
		size := classOf(n)
		if size < n || size < 64 {
			t.Fatalf("a %d-byte request got a class of %d bytes: too small", n, size)
		}
		if s2 := classOf(size); s2 != size {
			t.Fatalf("capacity %d maps to a class of %d bytes", size, s2)
		}
		if size < prevSize {
			t.Fatalf("classes not monotone at %d: %d bytes after %d", n, size, prevSize)
		}
		if n > page && size-n >= page {
			t.Fatalf("a %d-byte request wastes %d bytes, a page or more", n, size-n)
		}
		prevSize = size
	}
	var bp mad.Pool
	b := bp.Get(32800)
	bp.Put(b)
	if c := bp.Get(33000); &c[0] != &b[0] {
		t.Fatal("a buffer of the same class was not reused")
	}
	if s := bp.Ledger(); s != (mad.Ledger{BufsTaken: 2, BufsReturned: 1, BufsAllocated: 1}) {
		t.Fatalf("ledger after reuse: %+v", s)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a foreign buffer was accepted into the pool")
		}
	}()
	bp.Put(make([]byte, 100))
}
