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
func encodeRelData(src, dst mad.Rank, mtu uint32, id uint64, frag, total uint32, flags uint8, payload []byte, acks []relAckKey) []byte {
	if len(acks) > relAckBatchMax {
		panic("fwd: too many piggybacked acks")
	}
	pkt := make([]byte, 28+len(payload)+relAckEntry*len(acks)+relTrailerLen)
	binary.LittleEndian.PutUint32(pkt[0:], uint32(src))
	binary.LittleEndian.PutUint32(pkt[4:], mtu)
	binary.LittleEndian.PutUint64(pkt[8:], id)
	binary.LittleEndian.PutUint32(pkt[16:], uint32(dst))
	pkt[20], pkt[21], pkt[22] = byte(frag), byte(frag>>8), byte(frag>>16)
	pkt[23], pkt[24], pkt[25] = byte(total), byte(total>>8), byte(total>>16)
	pkt[26] = flags
	pkt[27] = byte(len(acks))
	copy(pkt[28:], payload)
	off := 28 + len(payload)
	for _, k := range acks {
		putAckEntry(pkt[off:], k)
		off += relAckEntry
	}
	sealCRC(pkt)
	return pkt
}

func encodeRelAcks(keys []relAckKey) []byte {
	if len(keys) == 0 || len(keys) > relAckBatchMax {
		panic("fwd: ack batch size out of range")
	}
	pkt := make([]byte, 1+relAckEntry*len(keys)+relTrailerLen)
	pkt[0] = byte(len(keys))
	for i, k := range keys {
		putAckEntry(pkt[1+relAckEntry*i:], k)
	}
	sealCRC(pkt)
	return pkt
}

func encodeRelDesc(mtu int, blocks []relBlock) []byte {
	b := make([]byte, 8+6*len(blocks))
	binary.LittleEndian.PutUint32(b[0:], uint32(mtu))
	binary.LittleEndian.PutUint32(b[4:], uint32(len(blocks)))
	off := 8
	for _, bl := range blocks {
		binary.LittleEndian.PutUint32(b[off:], uint32(len(bl.data)))
		b[off+4] = byte(bl.s)
		b[off+5] = byte(bl.r)
		off += 6
	}
	return b
}

// ackKeys decodes a raw run of ack entries (a data packet's trailer, an ack
// batch's body).
func ackKeys(raw []byte) []relAckKey {
	var keys []relAckKey
	for off := 0; off < len(raw); off += relAckEntry {
		keys = append(keys, getAckEntry(raw[off:]))
	}
	return keys
}

// PoisonRelBufs makes the channel's pools overwrite every buffer they get
// back, so a payload, descriptor, ack trailer, aggregate frame or staging
// buffer read through an alias the owner should have dropped comes out as
// 0xDB garbage — failing the byte-exact delivery checks, or the CRC — instead
// of passing by luck. The gateways' static pools, made later, copy the hook.
// Exported to the package's external tests; it exists in test builds only.
func PoisonRelBufs(vc *VirtualChannel) { vc.bufs.onPut = poison }

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

// pooledEqualsOracle encodes one data packet both ways — the second into a
// dirty pooled buffer — and compares.
func pooledEqualsOracle(t *testing.T, bp *wireBufPool, d relData, acks []relAckKey) {
	t.Helper()
	want := encodeRelData(d.src, d.dst, d.mtu, d.id, d.frag, d.total, d.flags, d.payload, acks)
	pkt := bp.get(relDataLen(len(d.payload), len(acks)))
	putRelData(pkt, &d, d.flags, acks)
	if !bytes.Equal(pkt, want) {
		t.Fatalf("pooled encoding differs from the copying encoder:\n got  %x\n want %x", pkt, want)
	}
	bp.put(pkt)
}

// TestPooledEncodersMatchCopyingOracle: random headers, payloads and
// piggybacked acks (and the FuzzRelData seed corpus) encode byte-identically
// into recycled, poisoned buffers; so do ack batches and descriptors.
func TestPooledEncodersMatchCopyingOracle(t *testing.T) {
	bp := wireBufPool{onPut: poison}
	for _, seed := range relDataSeeds() {
		if d, ok := decodeRelData(seed); ok { // the corpus holds malformed packets too
			pooledEqualsOracle(t, &bp, d, ackKeys(d.acks))
		}
	}
	rng := rand.New(rand.NewSource(14))
	randKeys := func(n int) []relAckKey {
		keys := make([]relAckKey, n)
		for i := range keys {
			keys[i] = relAckKey{origin: mad.Rank(rng.Intn(64)), id: rng.Uint64(), frag: rng.Uint32()}
		}
		return keys
	}
	for i := 0; i < 2000; i++ {
		payload := make([]byte, rng.Intn(3)*rng.Intn(20000))
		rng.Read(payload)
		d := relData{src: mad.Rank(rng.Intn(64)), dst: mad.Rank(rng.Intn(64)), mtu: 1 + rng.Uint32()>>1, id: rng.Uint64(),
			frag: rng.Uint32() & (1<<24 - 1), total: rng.Uint32() & (1<<24 - 1), flags: uint8(rng.Intn(4)), payload: payload}
		pooledEqualsOracle(t, &bp, d, randKeys(rng.Intn(3)*rng.Intn(relAckBatchMax/2+1)))

		keys := randKeys(1 + rng.Intn(relAckBatchMax))
		pkt := bp.get(relAcksLen(len(keys)))
		putRelAcks(pkt, keys)
		if want := encodeRelAcks(keys); !bytes.Equal(pkt, want) {
			t.Fatalf("pooled ack batch differs:\n got  %x\n want %x", pkt, want)
		}
		bp.put(pkt)

		blocks := make([]relBlock, rng.Intn(5))
		for j := range blocks {
			blocks[j] = relBlock{data: make([]byte, rng.Intn(4096)),
				s: mad.SendMode(rng.Intn(3)), r: mad.RecvMode(rng.Intn(2))}
		}
		mtu := 1 + rng.Intn(1<<16)
		desc := bp.get(relDescLen(len(blocks)))
		putRelDesc(desc, mtu, blocks)
		if want := encodeRelDesc(mtu, blocks); !bytes.Equal(desc, want) {
			t.Fatalf("pooled descriptor differs:\n got  %x\n want %x", desc, want)
		}
		bp.put(desc)
	}
	if bp.taken != bp.returned {
		t.Fatalf("ledger: took %d, returned %d", bp.taken, bp.returned)
	}
}

// TestRelBufPoolClasses: a capacity is its own class, classes are monotone,
// and a recycled buffer serves any request of its class.
func TestRelBufPoolClasses(t *testing.T) {
	prevClass, prevSize := -1, 0
	for n := 0; n <= 300<<10; n += 1 + n/7 {
		class, size := relBufClass(n)
		if size < n || size < 1<<relBufMinShift {
			t.Fatalf("relBufClass(%d) = class %d of %d bytes: too small", n, class, size)
		}
		if c2, s2 := relBufClass(size); c2 != class || s2 != size {
			t.Fatalf("capacity %d of class %d maps to class %d of %d bytes", size, class, c2, s2)
		}
		if class < prevClass || size < prevSize {
			t.Fatalf("classes not monotone at %d: (%d, %d) after (%d, %d)", n, class, size, prevClass, prevSize)
		}
		if n > relBufPage && size-n >= relBufPage {
			t.Fatalf("relBufClass(%d) wastes %d bytes, a page or more", n, size-n)
		}
		prevClass, prevSize = class, size
	}
	var bp wireBufPool
	b := bp.get(32800)
	bp.put(b)
	if c := bp.get(33000); &c[0] != &b[0] {
		t.Fatal("a buffer of the same class was not reused")
	}
	var s RelBookkeeping
	if bp.tally(&s); s != (RelBookkeeping{BufsTaken: 2, BufsReturned: 1, BufsAllocated: 1}) {
		t.Fatalf("ledger after reuse: %+v", s)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a foreign buffer was accepted into the pool")
		}
	}()
	bp.put(make([]byte, 100))
}
