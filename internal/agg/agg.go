// Package agg implements the cross-message aggregation codec of the eager
// small-message path: a self-contained binary frame that packs several
// sub-MTU messages, each with its block structure and pack-flag modes, into
// one wire transfer.
//
// The motivation is §3.4.1 of the paper: every wire transfer through a
// gateway pays a fixed ~40 µs software overhead, so a stream of tiny
// messages is overhead-bound no matter how compact each message's framing
// is. The coalescer in package fwd batches consecutive small messages bound
// for the same next hop into one aggregate frame; this package is only the
// codec — it knows nothing about channels, links or virtual time, which
// keeps the frame format independently fuzzable and reusable.
//
// Wire format (all integers little-endian):
//
//	frame  := header sub*
//	header := magic u16 | version u8 | flags u8 | count u16 | reserved u16
//	          | totalLen u32 | crc u32
//	sub    := subLen u32 | id u64 | nblocks u16
//	          | nblocks × (size u32 | sendMode u8 | recvMode u8)
//	          | payload (concatenated block bytes)
//
// totalLen is the full frame length including the header; crc is the IEEE
// CRC-32 of everything after the header; subLen counts the bytes of the
// entry after the subLen field itself. The decoder (NewReader) validates
// every length against every other before anything is handed out, and
// never panics on arbitrary input — truncated, overlapping or oversized
// sub-message bounds are rejected, which FuzzAggFrame pins down.
package agg

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

const (
	// HeaderLen is the fixed size of the aggregate frame header.
	HeaderLen = 16

	frameMagic   = 0x4741 // "AG"
	frameVersion = 1

	// subFixedLen is the fixed part of a sub-message entry counted by its
	// subLen field: the 8-byte message ID and the 2-byte block count.
	subFixedLen = 10
	// blockDescLen is the wire size of one block descriptor.
	blockDescLen = 6

	// MaxSubs caps the sub-messages per frame (the count field is 16-bit).
	MaxSubs = 1<<16 - 1

	// rearmMin is the smallest buffer Detach re-arms a builder with.
	rearmMin = 512
)

// Block is one packed block of a sub-message: its payload and the send and
// receive modes it was packed with, carried as raw bytes so the codec does
// not depend on the mad package's types.
type Block struct {
	Data []byte
	S, R uint8
}

// SubSize returns the wire size one sub-message with the given blocks
// contributes to a frame, including its subLen field. The coalescer uses it
// to decide whether another message still fits under the frame limit.
func SubSize(blocks []Block) int {
	payload := 0
	for _, b := range blocks {
		payload += len(b.Data)
	}
	return SubSizeParts(len(blocks), payload)
}

// SubSizeParts is SubSize from the block count and summed payload length
// alone, for callers that track both incrementally and do not want to build
// the Block slice just to size it.
func SubSizeParts(nblocks, payload int) int {
	return 4 + subFixedLen + blockDescLen*nblocks + payload
}

// Builder accumulates sub-messages into one aggregate frame. Its buffer is
// reused across Reset cycles, so a warmed-up builder appends with zero
// allocations — the aggregator hot-path property the regression test pins.
type Builder struct {
	buf    []byte
	spare  []byte // a detached buffer handed back (Recycle), for the next Detach
	count  int
	prefix int
	hint   int // the capacity hint the builder was made with
}

// NewBuilder returns a Builder with room for a frame of the given capacity
// hint (it grows beyond it if needed).
func NewBuilder(capacity int) *Builder {
	return NewBuilderPrefix(0, capacity)
}

// NewBuilderPrefix is NewBuilder with prefix bytes reserved in front of the
// frame, so a caller that wraps every frame in its own wire header (e.g. the
// 20-byte GTM routing header) can build the full wire payload in place and
// Detach it without a copy.
func NewBuilderPrefix(prefix, capacity int) *Builder {
	if prefix < 0 {
		panic("agg: negative builder prefix")
	}
	if capacity < prefix+HeaderLen {
		capacity = prefix + HeaderLen
	}
	return &Builder{buf: make([]byte, prefix+HeaderLen, capacity), prefix: prefix, hint: capacity}
}

// Reset discards the accumulated sub-messages, keeping the buffer.
func (b *Builder) Reset() {
	b.buf = b.buf[:b.prefix+HeaderLen]
	b.count = 0
}

// Len is the frame size Finish would currently produce (the reserved prefix
// is not part of the frame).
func (b *Builder) Len() int { return len(b.buf) - b.prefix }

// Count is the number of sub-messages added since the last Reset.
func (b *Builder) Count() int { return b.count }

// Add appends one sub-message. It panics when the frame is structurally
// full (count field exhausted) — the coalescer flushes on a byte limit far
// below that.
func (b *Builder) Add(id uint64, blocks []Block) {
	if b.count >= MaxSubs {
		panic("agg: too many sub-messages in one frame")
	}
	subLen := subFixedLen + blockDescLen*len(blocks)
	for _, blk := range blocks {
		subLen += len(blk.Data)
	}
	var tmp [12]byte
	binary.LittleEndian.PutUint32(tmp[0:], uint32(subLen))
	binary.LittleEndian.PutUint64(tmp[4:], id)
	b.buf = append(b.buf, tmp[:12]...)
	binary.LittleEndian.PutUint16(tmp[0:], uint16(len(blocks)))
	b.buf = append(b.buf, tmp[:2]...)
	for _, blk := range blocks {
		binary.LittleEndian.PutUint32(tmp[0:], uint32(len(blk.Data)))
		tmp[4] = blk.S
		tmp[5] = blk.R
		b.buf = append(b.buf, tmp[:6]...)
	}
	for _, blk := range blocks {
		b.buf = append(b.buf, blk.Data...)
	}
	b.count++
}

// Finish seals the header (magic, counts, total length, body CRC) and
// returns the frame. The returned slice aliases the builder's buffer: the
// caller must copy it out — or take ownership with Detach — before the next
// Reset/Add cycle if the frame is held past the flush.
func (b *Builder) Finish() []byte {
	hdr := b.buf[b.prefix:]
	binary.LittleEndian.PutUint16(hdr[0:], frameMagic)
	hdr[2] = frameVersion
	hdr[3] = 0
	binary.LittleEndian.PutUint16(hdr[4:], uint16(b.count))
	binary.LittleEndian.PutUint16(hdr[6:], 0)
	binary.LittleEndian.PutUint32(hdr[8:], uint32(len(b.buf)-b.prefix))
	binary.LittleEndian.PutUint32(hdr[12:], crc32.ChecksumIEEE(hdr[HeaderLen:]))
	return b.buf[b.prefix:]
}

// Detach hands the caller ownership of the sealed buffer — the reserved
// prefix followed by the frame Finish produced — and re-arms the builder
// with an empty one. Use it when the frame's lifetime outlives the flush (a
// wire layer that references payloads instead of copying them): the builder
// never touches the detached buffer again, unless the caller hands it back
// with Recycle, so no defensive copy is needed.
//
// The empty buffer is the recycled one if there is one. A fresh one is sized
// by the frame just sealed, twice its length within [rearmMin, the capacity
// hint], and grows by append if the next frame is larger: a stream of full
// frames keeps a full-size buffer, while a coalescer that flushes one small
// message at a time does not pay for a whole MTU per flush. The bound is the
// hint and not the old buffer's capacity, which append may have rounded up
// into a larger size class that every later buffer would then inherit.
func (b *Builder) Detach() []byte {
	out := b.buf
	if b.spare != nil {
		b.buf, b.spare = b.spare[:b.prefix+HeaderLen], nil
	} else {
		b.buf = make([]byte, b.prefix+HeaderLen, min(b.hint, max(rearmMin, 2*len(out))))
	}
	b.count = 0
	return out
}

// Recycle hands back a buffer Detach gave out, for the next Detach to re-arm
// with. The caller vouches that nothing refers to it any more: the builder
// will overwrite it.
func (b *Builder) Recycle(buf []byte) { b.spare = buf }

// Sub is one decoded sub-message: its ID, block descriptors and the
// concatenated block payload, aliasing the frame.
type Sub struct {
	ID      uint64
	descs   []byte // nblocks × blockDescLen, aliases the frame
	payload []byte // aliases the frame
}

// NumBlocks is the number of packed blocks of this sub-message.
func (s Sub) NumBlocks() int { return len(s.descs) / blockDescLen }

// Block returns the i-th block descriptor: payload size and the raw send
// and receive modes it was packed with.
func (s Sub) Block(i int) (size int, sMode, rMode uint8) {
	d := s.descs[i*blockDescLen:]
	return int(binary.LittleEndian.Uint32(d[0:])), d[4], d[5]
}

// Payload is the concatenation of the sub-message's block payloads, in
// block order.
func (s Sub) Payload() []byte { return s.payload }

// Reader walks the sub-messages of a validated frame.
type Reader struct {
	body  []byte
	count int
	off   int
	next  int
}

// NewReader validates a frame end to end — magic, version, total length,
// body checksum, and every sub-message's bounds (entries must tile the body
// exactly; block sizes must sum to the entry's payload) — and returns a
// Reader positioned at the first sub-message. ok is false on any
// malformation; the function never panics, whatever the input.
func NewReader(frame []byte) (*Reader, bool) {
	if len(frame) < HeaderLen {
		return nil, false
	}
	if binary.LittleEndian.Uint16(frame[0:]) != frameMagic || frame[2] != frameVersion {
		return nil, false
	}
	if int(binary.LittleEndian.Uint32(frame[8:])) != len(frame) {
		return nil, false
	}
	body := frame[HeaderLen:]
	if binary.LittleEndian.Uint32(frame[12:]) != crc32.ChecksumIEEE(body) {
		return nil, false
	}
	count := int(binary.LittleEndian.Uint16(frame[4:]))
	off := 0
	for i := 0; i < count; i++ {
		if len(body)-off < 4 {
			return nil, false
		}
		subLen := int(binary.LittleEndian.Uint32(body[off:]))
		if subLen < subFixedLen || subLen > len(body)-off-4 {
			return nil, false
		}
		entry := body[off+4 : off+4+subLen]
		nblocks := int(binary.LittleEndian.Uint16(entry[8:]))
		descLen := blockDescLen * nblocks
		if subFixedLen+descLen > subLen {
			return nil, false
		}
		payload := subLen - subFixedLen - descLen
		sum := 0
		for j := 0; j < nblocks; j++ {
			sum += int(binary.LittleEndian.Uint32(entry[subFixedLen+j*blockDescLen:]))
			if sum > payload {
				return nil, false
			}
		}
		if sum != payload {
			return nil, false
		}
		off += 4 + subLen
	}
	if off != len(body) {
		return nil, false
	}
	return &Reader{body: body, count: count}, true
}

// Count is the number of sub-messages in the frame.
func (r *Reader) Count() int { return r.count }

// Next returns the next sub-message, or ok=false past the last. The bounds
// were fully validated by NewReader, so Next performs no checks.
func (r *Reader) Next() (Sub, bool) {
	if r.next >= r.count {
		return Sub{}, false
	}
	r.next++
	subLen := int(binary.LittleEndian.Uint32(r.body[r.off:]))
	entry := r.body[r.off+4 : r.off+4+subLen]
	r.off += 4 + subLen
	nblocks := int(binary.LittleEndian.Uint16(entry[8:]))
	descEnd := subFixedLen + blockDescLen*nblocks
	return Sub{
		ID:      binary.LittleEndian.Uint64(entry[0:]),
		descs:   entry[subFixedLen:descEnd],
		payload: entry[descEnd:],
	}, true
}

// MustReader is NewReader for frames this process built itself (the sink's
// trusted path): it panics on malformation instead of returning ok=false.
func MustReader(frame []byte) *Reader {
	r, ok := NewReader(frame)
	if !ok {
		panic(fmt.Sprintf("agg: malformed aggregate frame (%d bytes)", len(frame)))
	}
	return r
}
