package agg

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"
)

func sampleBlocks() [][]Block {
	return [][]Block{
		{{Data: []byte("hello"), S: 0, R: 1}},
		{{Data: []byte("multi"), S: 1, R: 0}, {Data: []byte("block"), S: 2, R: 2}},
		{{Data: nil, S: 0, R: 0}}, // empty payload block
		{},                        // sub-message with no blocks at all
	}
}

// buildSample packs the sample sub-messages into one frame.
func buildSample() []byte {
	b := NewBuilder(256)
	for i, blocks := range sampleBlocks() {
		b.Add(uint64(i+1)*7, blocks)
	}
	return b.Finish()
}

func TestRoundTrip(t *testing.T) {
	frame := buildSample()
	r, ok := NewReader(frame)
	if !ok {
		t.Fatal("builder output rejected by its own reader")
	}
	want := sampleBlocks()
	if r.Count() != len(want) {
		t.Fatalf("Count() = %d, want %d", r.Count(), len(want))
	}
	for i, blocks := range want {
		sub, ok := r.Next()
		if !ok {
			t.Fatalf("Next() ran dry at sub-message %d", i)
		}
		if sub.ID != uint64(i+1)*7 {
			t.Errorf("sub %d: ID = %d, want %d", i, sub.ID, uint64(i+1)*7)
		}
		if sub.NumBlocks() != len(blocks) {
			t.Fatalf("sub %d: NumBlocks() = %d, want %d", i, sub.NumBlocks(), len(blocks))
		}
		var payload []byte
		for j, blk := range blocks {
			size, s, r := sub.Block(j)
			if size != len(blk.Data) || s != blk.S || r != blk.R {
				t.Errorf("sub %d block %d: (%d, %d, %d), want (%d, %d, %d)",
					i, j, size, s, r, len(blk.Data), blk.S, blk.R)
			}
			payload = append(payload, blk.Data...)
		}
		if !bytes.Equal(sub.Payload(), payload) {
			t.Errorf("sub %d: payload %q, want %q", i, sub.Payload(), payload)
		}
	}
	if _, ok := r.Next(); ok {
		t.Error("Next() returned a sub-message past Count()")
	}
}

func TestSubSizeMatchesWire(t *testing.T) {
	b := NewBuilder(64)
	for _, blocks := range sampleBlocks() {
		before := b.Len()
		b.Add(1, blocks)
		if got, want := b.Len()-before, SubSize(blocks); got != want {
			t.Errorf("Add grew the frame by %d bytes, SubSize said %d", got, want)
		}
	}
}

func TestBuilderResetReuses(t *testing.T) {
	b := NewBuilder(64)
	b.Add(1, []Block{{Data: []byte("first")}})
	first := append([]byte(nil), b.Finish()...)
	b.Reset()
	if b.Len() != HeaderLen || b.Count() != 0 {
		t.Fatalf("Reset left Len %d Count %d", b.Len(), b.Count())
	}
	b.Add(1, []Block{{Data: []byte("first")}})
	if !bytes.Equal(b.Finish(), first) {
		t.Error("frame built after Reset differs from the first build")
	}
}

// TestBuilderPrefixDetach covers the zero-copy flush contract: a builder
// with a reserved prefix produces a frame whose bytes sit right after the
// prefix in the detached buffer, Detach hands that buffer over intact, and
// the re-armed builder produces an identical frame from identical input.
func TestBuilderPrefixDetach(t *testing.T) {
	const prefix = 20
	b := NewBuilderPrefix(prefix, 256)
	if b.Len() != HeaderLen {
		t.Fatalf("fresh prefixed builder Len = %d, want %d", b.Len(), HeaderLen)
	}
	b.Add(7, []Block{{Data: []byte("payload"), S: 2, R: 3}})
	frame := append([]byte(nil), b.Finish()...)
	wire := b.Detach()
	if len(wire) != prefix+len(frame) {
		t.Fatalf("detached buffer is %d bytes, want prefix %d + frame %d", len(wire), prefix, len(frame))
	}
	if !bytes.Equal(wire[prefix:], frame) {
		t.Error("frame bytes after the prefix differ from Finish's frame")
	}
	if _, ok := NewReader(wire[prefix:]); !ok {
		t.Error("detached frame does not validate")
	}
	if b.Len() != HeaderLen || b.Count() != 0 {
		t.Fatalf("Detach left Len %d Count %d", b.Len(), b.Count())
	}
	b.Add(7, []Block{{Data: []byte("payload"), S: 2, R: 3}})
	if !bytes.Equal(b.Finish(), frame) {
		t.Error("frame built after Detach differs from the detached one")
	}
}

// TestDetachRearmsToTheFrameJustSealed pins the size of the buffer Detach
// leaves behind: an idle flush of one small message must not cost a whole
// MTU-sized buffer, a full frame keeps its full-size buffer (no regrowth on
// a stream of full frames), the detached buffer is never the builder's
// again, and a frame larger than the re-armed buffer still builds.
func TestDetachRearmsToTheFrameJustSealed(t *testing.T) {
	const prefix, mtu = 20, 32 << 10
	b := NewBuilderPrefix(prefix, prefix+mtu)
	small := []Block{{Data: make([]byte, 64), S: 1, R: 1}}

	b.Add(1, small)
	b.Finish()
	wire := b.Detach()
	if got := cap(b.buf); got != rearmMin {
		t.Errorf("after a %d-byte frame the builder holds a %d-byte buffer, want %d", len(wire), got, rearmMin)
	}
	if &wire[0] == &b.buf[0] {
		t.Fatal("Detach re-armed the builder with the buffer it handed out")
	}

	// A full frame: the buffer grows by append, then stays.
	for id := uint64(0); b.Len()+SubSize(small) <= mtu; id++ {
		b.Add(id, small)
	}
	b.Finish()
	full := b.Detach()
	if _, ok := NewReader(full[prefix:]); !ok {
		t.Fatal("full frame built in a grown buffer does not validate")
	}
	if cap(b.buf) < len(full) {
		t.Errorf("after a full %d-byte frame the builder holds only %d bytes", len(full), cap(b.buf))
	}
	before := cap(b.buf)
	for id := uint64(0); b.Len()+SubSize(small) <= mtu; id++ {
		b.Add(id, small)
	}
	if cap(b.buf) != before {
		t.Errorf("a second full frame regrew the buffer from %d to %d bytes", before, cap(b.buf))
	}
}

// TestDetachRearmIsBoundedByTheHint pins the other end of the re-arm: after a
// small first frame the builder holds a small buffer, append grows it for the
// full frame behind — past the hint, into whatever size class the allocator
// rounds to — and the buffer after that must be sized by the hint again, not
// by the capacity append happened to leave.
func TestDetachRearmIsBoundedByTheHint(t *testing.T) {
	const prefix, mtu = 20, 32 << 10
	b := NewBuilderPrefix(prefix, mtu)
	small := []Block{{Data: make([]byte, 64), S: 1, R: 1}}
	b.Add(1, small)
	b.Finish()
	b.Detach()
	for id := uint64(0); b.Len()+SubSize(small) <= mtu-prefix; id++ {
		b.Add(id, small)
	}
	b.Finish()
	if grown := cap(b.Detach()); grown <= mtu {
		t.Skipf("append grew the buffer to %d bytes only: nothing to bound", grown)
	}
	if got := cap(b.buf); got != mtu {
		t.Errorf("after a full frame in a grown buffer the builder holds %d bytes, want the hint, %d", got, mtu)
	}
}

// TestRecycleRearmsWithTheBufferHandedBack: the next Detach re-arms the
// builder with the recycled buffer instead of a fresh one, once, and the frame
// built in it — over whatever its last user left there — is the frame a fresh
// buffer would hold.
func TestRecycleRearmsWithTheBufferHandedBack(t *testing.T) {
	const prefix = 20
	b := NewBuilderPrefix(prefix, 4096)
	blocks := []Block{{Data: []byte("payload"), S: 2, R: 3}}
	b.Add(7, blocks)
	want := append([]byte(nil), b.Finish()...)
	first := b.Detach()
	whole := first[:cap(first)]
	for i := range whole {
		whole[i] = 0xDB
	}
	b.Recycle(first)
	b.Add(8, blocks)
	b.Finish()
	second := b.Detach() // re-arms with first
	if &b.buf[0] != &first[0] {
		t.Fatal("Detach did not re-arm the builder with the recycled buffer")
	}
	b.Add(7, blocks)
	if !bytes.Equal(b.Finish(), want) {
		t.Error("frame built in a recycled, overwritten buffer differs from the one built in a fresh buffer")
	}
	if third := b.Detach(); &third[0] != &first[0] || &b.buf[0] == &second[0] || &b.buf[0] == &first[0] {
		t.Error("a recycled buffer was used twice, or a detached one came back unrecycled")
	}
}

// TestBuilderHotPathAllocsNothing pins the aggregator hot path at zero
// allocations per coalesced message once the builder's buffer is warm: an
// incast of mice must not churn the garbage collector.
func TestBuilderHotPathAllocsNothing(t *testing.T) {
	payload := make([]byte, 512)
	blocks := []Block{{Data: payload, S: 1, R: 1}}
	b := NewBuilder(64 << 10)
	// Warm up: grow the buffer to its steady-state size once.
	for i := 0; i < 32; i++ {
		b.Add(uint64(i), blocks)
	}
	b.Finish()
	b.Reset()
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 32; i++ {
			b.Add(uint64(i), blocks)
		}
		b.Finish()
		b.Reset()
	})
	if allocs != 0 {
		t.Errorf("steady-state Add/Finish/Reset cycle allocates %.1f times, want 0", allocs)
	}
}

// reseal fixes up totalLen and crc after a structural mutation, so the test
// reaches the bounds checks behind the checksum.
func reseal(frame []byte) []byte {
	binary.LittleEndian.PutUint32(frame[8:], uint32(len(frame)))
	binary.LittleEndian.PutUint32(frame[12:], crc32.ChecksumIEEE(frame[HeaderLen:]))
	return frame
}

func TestReaderRejectsMalformedFrames(t *testing.T) {
	good := buildSample()
	cases := map[string]func() []byte{
		"empty":     func() []byte { return nil },
		"too-short": func() []byte { return good[:HeaderLen-1] },
		"bad-magic": func() []byte {
			f := append([]byte(nil), good...)
			f[0] ^= 0xFF
			return f
		},
		"bad-version": func() []byte {
			f := append([]byte(nil), good...)
			f[2]++
			return f
		},
		"bad-total-len": func() []byte {
			f := append([]byte(nil), good...)
			binary.LittleEndian.PutUint32(f[8:], uint32(len(f)+1))
			return f
		},
		"truncated-body": func() []byte {
			// totalLen honest about the truncation, but the last sub-message
			// entry now runs past the body.
			f := append([]byte(nil), good[:len(good)-3]...)
			return reseal(f)
		},
		"bad-crc": func() []byte {
			f := append([]byte(nil), good...)
			f[len(f)-1] ^= 0xFF
			return f
		},
		"count-overruns-body": func() []byte {
			f := append([]byte(nil), good...)
			binary.LittleEndian.PutUint16(f[4:], uint16(len(sampleBlocks())+1))
			return f // header not CRC-covered: bounds check must catch it
		},
		"count-undercounts-body": func() []byte {
			f := append([]byte(nil), good...)
			binary.LittleEndian.PutUint16(f[4:], uint16(len(sampleBlocks())-1))
			return f // entries must tile the body exactly
		},
		"sub-len-overlaps-next": func() []byte {
			f := append([]byte(nil), good...)
			// First entry claims one byte more than it has; the walk would
			// read into the next entry.
			binary.LittleEndian.PutUint32(f[HeaderLen:], binary.LittleEndian.Uint32(f[HeaderLen:])+1)
			return reseal(f)
		},
		"sub-len-below-fixed": func() []byte {
			f := append([]byte(nil), good...)
			binary.LittleEndian.PutUint32(f[HeaderLen:], subFixedLen-1)
			return reseal(f)
		},
		"block-descs-exceed-sub": func() []byte {
			f := append([]byte(nil), good...)
			// First sub claims 1000 blocks; the descriptors alone overrun
			// its subLen.
			binary.LittleEndian.PutUint16(f[HeaderLen+4+8:], 1000)
			return reseal(f)
		},
		"block-sizes-exceed-payload": func() []byte {
			f := append([]byte(nil), good...)
			// First sub's first block claims a huge size: the sizes no
			// longer sum to the entry's payload length.
			binary.LittleEndian.PutUint32(f[HeaderLen+4+subFixedLen:], 1<<30)
			return reseal(f)
		},
		"block-sizes-undercount-payload": func() []byte {
			f := append([]byte(nil), good...)
			binary.LittleEndian.PutUint32(f[HeaderLen+4+subFixedLen:], 0)
			return reseal(f)
		},
	}
	for name, corrupt := range cases {
		if _, ok := NewReader(corrupt()); ok {
			t.Errorf("%s: malformed frame accepted", name)
		}
	}
	if _, ok := NewReader(good); !ok {
		t.Fatal("control: pristine frame rejected")
	}
}

func TestMustReaderPanicsOnMalformed(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustReader accepted a malformed frame without panicking")
		}
	}()
	MustReader([]byte("not a frame"))
}

func TestAddPanicsPastMaxSubs(t *testing.T) {
	b := NewBuilder(HeaderLen + 4*(MaxSubs+1)*(subFixedLen+4))
	for i := 0; i < MaxSubs; i++ {
		b.Add(uint64(i), nil)
	}
	defer func() {
		if recover() == nil {
			t.Error("Add accepted a sub-message past MaxSubs without panicking")
		}
	}()
	b.Add(0, nil)
}
