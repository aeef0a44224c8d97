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
// Wire format (fixed-width integers little-endian; uvarint is the unsigned
// base-128 varint of encoding/binary, in its shortest form only):
//
//	frame  := header sub*
//	header := magic u16 | version u8 | flags u8 | count u16 | reserved u16
//	          | totalLen u32 | crc u32
//	sub    := subLen uvarint | idDelta uvarint | nblocks uvarint
//	          | nblocks × (size uvarint | modes u8)
//	          | payload (concatenated block bytes)
//
// totalLen is the full frame length including the header; crc is the IEEE
// CRC-32 of everything after the header; subLen counts the bytes of the
// entry after the subLen field itself. idDelta is the zig-zag encoding of the
// entry's message ID minus the ID of the entry before it (minus zero for the
// first), in wrapping 64-bit arithmetic, so consecutive IDs cost one byte and
// any ID can follow any other; modes is sendMode<<4 | recvMode. A 64-byte
// one-block message costs 5 bytes of entry where the fixed-width layout of
// frame version 1 (u32 | u64 | u16 | u32 u8 u8) cost 20 — at that size the
// entry header was a quarter of what the link carried (DESIGN.md §27).
//
// The decoder (NewReader) validates every length against every other before
// anything is handed out, and never panics on arbitrary input — truncated,
// overlapping or oversized sub-message bounds, varints that do not end,
// overflow 64 bits or are padded, and frames of another version are rejected,
// which FuzzAggFrame pins down.
package agg

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/bits"
)

const (
	// HeaderLen is the fixed size of the aggregate frame header.
	HeaderLen = 16

	frameMagic   = 0x4741 // "AG"
	frameVersion = 2

	// MaxSubs caps the sub-messages per frame (the count field is 16-bit).
	MaxSubs = 1<<16 - 1
)

// Block is one packed block of a sub-message: its payload and the send and
// receive modes it was packed with, carried as raw values below 16 so the
// codec does not depend on the mad package's types.
type Block struct {
	Data []byte
	S, R uint8
}

// SubSize returns the most one sub-message with the given blocks adds to a
// frame, whatever its ID and the ID before it: see SubSizeParts.
func SubSize(blocks []Block) int {
	payload := 0
	for _, b := range blocks {
		payload += len(b.Data)
	}
	return SubSizeParts(len(blocks), payload)
}

// SubSizeParts is an upper bound on the wire size of one sub-message of
// nblocks blocks and payload bytes in all, its subLen field included: the ID
// delta at its ten bytes and every block size at the width of the whole
// payload. What an entry really takes depends on the frame it joins
// (Builder.Need); this is for deciding whether a message can be coalesced at
// all, which must not depend on what is queued.
func SubSizeParts(nblocks, payload int) int {
	n := binary.MaxVarintLen64 + uvarintLen(uint64(nblocks)) + nblocks*(uvarintLen(uint64(payload))+1) + payload
	return uvarintLen(uint64(n)) + n
}

// uvarintLen is the number of bytes binary.AppendUvarint writes for v.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// zigzag maps a signed delta, given in two's complement, to an unsigned value
// that is small when the delta is near zero on either side; unzigzag inverts it.
func zigzag(d uint64) uint64   { return d<<1 ^ uint64(int64(d)>>63) }
func unzigzag(z uint64) uint64 { return z>>1 ^ -(z & 1) }

// uvarint decodes one uvarint from the front of buf. ok is false when it does
// not end within buf, overflows 64 bits, or is not in its shortest form (a
// padded varint would decode but not re-encode to the same bytes).
func uvarint(buf []byte) (v uint64, n int, ok bool) {
	v, n = binary.Uvarint(buf)
	return v, n, n > 0 && (n == 1 || buf[n-1] != 0)
}

// Builder accumulates sub-messages into one aggregate frame. Its buffer is
// reused across Reset cycles, so a warmed-up builder appends with zero
// allocations — the aggregator hot-path property the regression test pins.
type Builder struct {
	buf    []byte // nil while unarmed: from a Detach to the next Arm or use
	count  int
	last   uint64 // the ID of the entry added last, zero in an empty frame
	prefix int
	hint   int // the capacity an unarmed builder takes fresh memory of
}

// NewBuilder returns a Builder with room for a frame of the given capacity
// hint (it grows beyond it if needed).
func NewBuilder(capacity int) *Builder {
	return NewBuilderPrefix(0, capacity)
}

// NewBuilderPrefix is NewBuilder with prefix bytes reserved in front of the
// frame, so a caller that wraps every frame in its own wire header (e.g. the
// 20-byte GTM routing header) can build the full wire payload in place and
// Detach it without a copy. The builder starts unarmed.
func NewBuilderPrefix(prefix, capacity int) *Builder {
	if prefix < 0 {
		panic("agg: negative builder prefix")
	}
	return &Builder{prefix: prefix, hint: max(capacity, prefix+HeaderLen)}
}

// Arm gives an empty, unarmed builder the buffer to build its next frame in:
// the caller's, whose capacity must cover the prefix and the frame header. A
// frame that outgrows it grows by append, into memory the caller did not
// give. An unarmed builder that is used takes fresh memory of its capacity
// hint instead.
func (b *Builder) Arm(buf []byte) { b.buf = buf[:b.prefix+HeaderLen] }

func (b *Builder) armed() {
	if b.buf == nil {
		b.Arm(make([]byte, 0, b.hint))
	}
}

// Reset discards the accumulated sub-messages, keeping the buffer.
func (b *Builder) Reset() {
	b.armed()
	b.buf = b.buf[:b.prefix+HeaderLen]
	b.count, b.last = 0, 0
}

// Len is the frame size Finish would currently produce (the reserved prefix
// is not part of the frame).
func (b *Builder) Len() int {
	if b.buf == nil {
		return HeaderLen
	}
	return len(b.buf) - b.prefix
}

// Count is the number of sub-messages added since the last Reset.
func (b *Builder) Count() int { return b.count }

// entryLen is what an entry's subLen field holds: the bytes behind it.
func entryLen(idDelta uint64, blocks []Block) int {
	n := uvarintLen(idDelta) + uvarintLen(uint64(len(blocks)))
	for _, blk := range blocks {
		n += uvarintLen(uint64(len(blk.Data))) + 1 + len(blk.Data)
	}
	return n
}

// Need is by how much Add(id, blocks) would grow the frame now. It depends on
// the ID added last, so it holds until the next Add, Reset or Detach.
func (b *Builder) Need(id uint64, blocks []Block) int {
	n := entryLen(zigzag(id-b.last), blocks)
	return uvarintLen(uint64(n)) + n
}

// Add appends one sub-message. It panics when the frame is structurally
// full (count field exhausted) — the coalescer flushes on a byte limit far
// below that — and on a mode that does not fit its four bits.
func (b *Builder) Add(id uint64, blocks []Block) {
	if b.count >= MaxSubs {
		panic("agg: too many sub-messages in one frame")
	}
	b.armed()
	delta := zigzag(id - b.last)
	b.buf = binary.AppendUvarint(b.buf, uint64(entryLen(delta, blocks)))
	b.buf = binary.AppendUvarint(b.buf, delta)
	b.buf = binary.AppendUvarint(b.buf, uint64(len(blocks)))
	for _, blk := range blocks {
		if blk.S > 15 || blk.R > 15 {
			panic(fmt.Sprintf("agg: block modes %d/%d do not fit four bits", blk.S, blk.R))
		}
		b.buf = binary.AppendUvarint(b.buf, uint64(len(blk.Data)))
		b.buf = append(b.buf, blk.S<<4|blk.R)
	}
	for _, blk := range blocks {
		b.buf = append(b.buf, blk.Data...)
	}
	b.last = id
	b.count++
}

// Finish seals the header (magic, counts, total length, body CRC) and
// returns the frame. The returned slice aliases the builder's buffer: the
// caller must copy it out — or take ownership with Detach — before the next
// Reset/Add cycle if the frame is held past the flush.
func (b *Builder) Finish() []byte {
	b.armed()
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
// prefix followed by the frame Finish produced — and leaves the builder
// empty and unarmed. Use it when the frame's lifetime outlives the flush (a
// wire layer that references payloads instead of copying them): the builder
// never touches the detached buffer again, unless the caller arms it with it,
// so no defensive copy is needed.
func (b *Builder) Detach() []byte {
	out := b.buf
	b.buf, b.count, b.last = nil, 0, 0
	return out
}

// Sub is one decoded sub-message: its ID and, aliasing the frame, its block
// descriptors and the concatenated block payload behind them.
type Sub struct {
	ID      uint64
	nblocks int
	body    []byte // descriptors, then payload
	// at and atOff are the descriptor Block read last, plus one, and where it
	// ends in body: reading the blocks in order decodes each descriptor once.
	at, atOff int
	descLen   int // where the payload starts in body, zero until Payload has found it
}

// NumBlocks is the number of packed blocks of this sub-message.
func (s *Sub) NumBlocks() int { return s.nblocks }

// Block returns the i-th block descriptor: payload size and the raw send
// and receive modes it was packed with. Blocks read in ascending order cost
// one descriptor each; going back re-reads from the first.
func (s *Sub) Block(i int) (size int, sMode, rMode uint8) {
	if i < 0 || i >= s.nblocks {
		panic(fmt.Sprintf("agg: block %d of a sub-message of %d", i, s.nblocks))
	}
	if i < s.at {
		s.at, s.atOff = 0, 0
	}
	for {
		v, n := binary.Uvarint(s.body[s.atOff:])
		modes := s.body[s.atOff+n]
		s.at, s.atOff = s.at+1, s.atOff+n+1
		if s.at > i {
			return int(v), modes >> 4, modes & 15
		}
	}
}

// Payload is the concatenation of the sub-message's block payloads, in
// block order. The first call finds where the descriptors end, going on from
// the one Block read last: nothing, after Block(0) of a one-block message.
func (s *Sub) Payload() []byte {
	if s.descLen == 0 && s.nblocks > 0 {
		s.descLen = s.atOff
		for at := s.at; at < s.nblocks; at++ {
			_, n := binary.Uvarint(s.body[s.descLen:])
			s.descLen += n + 1
		}
	}
	return s.body[s.descLen:]
}

// Reader walks the sub-messages of a validated frame. It is a value: a sink
// keeps the one it is draining in place and allocates nothing per frame.
type Reader struct {
	rest  []byte // the entries not yet read
	count int
	next  int
	last  uint64 // the ID of the entry read last
}

// NewReader validates a frame end to end — magic, version, total length,
// body checksum, and every sub-message's bounds (entries must tile the body
// exactly; descriptors must fit their entry and block sizes sum to its
// payload; every varint must end, fit 64 bits and be in its shortest form) —
// and returns a Reader positioned at the first sub-message. ok is false on
// any malformation; the function never panics, whatever the input.
func NewReader(frame []byte) (Reader, bool) {
	if len(frame) < HeaderLen {
		return Reader{}, false
	}
	if binary.LittleEndian.Uint16(frame[0:]) != frameMagic || frame[2] != frameVersion {
		return Reader{}, false
	}
	if uint64(binary.LittleEndian.Uint32(frame[8:])) != uint64(len(frame)) {
		return Reader{}, false
	}
	body := frame[HeaderLen:]
	if binary.LittleEndian.Uint32(frame[12:]) != crc32.ChecksumIEEE(body) {
		return Reader{}, false
	}
	count := int(binary.LittleEndian.Uint16(frame[4:]))
	rest := body
	for i := 0; i < count; i++ {
		subLen, n, ok := uvarint(rest)
		if !ok || subLen > uint64(len(rest)-n) {
			return Reader{}, false
		}
		entry := rest[n : n+int(subLen)]
		rest = rest[n+int(subLen):]
		if _, n, ok = uvarint(entry); !ok { // the ID delta: any value is an ID
			return Reader{}, false
		}
		entry = entry[n:]
		nblocks, n, ok := uvarint(entry)
		if !ok || nblocks > uint64(len(entry)-n)/2 { // a descriptor is two bytes at least
			return Reader{}, false
		}
		entry = entry[n:]
		var sum uint64
		for j := uint64(0); j < nblocks; j++ {
			size, n, ok := uvarint(entry)
			if !ok || n == len(entry) || size > uint64(len(body)) {
				return Reader{}, false
			}
			entry = entry[n+1:] // the size and the modes byte
			sum += size
		}
		if sum != uint64(len(entry)) {
			return Reader{}, false
		}
	}
	if len(rest) != 0 {
		return Reader{}, false
	}
	return Reader{rest: body, count: count}, true
}

// Count is the number of sub-messages in the frame.
func (r *Reader) Count() int { return r.count }

// Next returns the next sub-message, or ok=false past the last, where it lets
// go of the frame. The bounds were fully validated by NewReader, so Next
// performs no checks.
func (r *Reader) Next() (Sub, bool) {
	if r.next >= r.count {
		r.rest = nil
		return Sub{}, false
	}
	r.next++
	subLen, n := binary.Uvarint(r.rest)
	entry := r.rest[n : n+int(subLen)]
	r.rest = r.rest[n+int(subLen):]
	delta, n := binary.Uvarint(entry)
	r.last += unzigzag(delta)
	nblocks, m := binary.Uvarint(entry[n:])
	return Sub{ID: r.last, nblocks: int(nblocks), body: entry[n+m:]}, true
}

// MustReader is NewReader for frames this process built itself (the sink's
// trusted path): it panics on malformation instead of returning ok=false.
func MustReader(frame []byte) Reader {
	r, ok := NewReader(frame)
	if !ok {
		panic(fmt.Sprintf("agg: malformed aggregate frame (%d bytes)", len(frame)))
	}
	return r
}
