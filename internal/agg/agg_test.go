package agg

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
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

// TestRoundTripProperty packs seeded random frames and reads them back: no
// blocks, empty blocks, up to forty of them, sizes either side of the one-,
// two- and three-byte varint edges, IDs that fall, repeat, step by one and
// jump by more than 2³², the first of a frame next to 2⁶⁴. The reader returns
// what Add was given, Need said by how much each Add would grow the frame, and
// reading the blocks out of order, or the payload between two of them, returns
// the same descriptors and bytes.
func TestRoundTripProperty(t *testing.T) {
	sizes := []int{0, 0, 1, 5, 64, 126, 127, 128, 129, 16382, 16383, 16384, 16385}
	for seed := int64(1); seed <= 100; seed++ {
		rng := rand.New(rand.NewSource(seed))
		type sub struct {
			id     uint64
			blocks []Block
		}
		subs := make([]sub, rng.Intn(12))
		b := NewBuilderPrefix(rng.Intn(3)*10, 64)
		id := ^uint64(0) - uint64(rng.Intn(3))
		for i := range subs {
			switch rng.Intn(5) {
			case 0:
				id -= uint64(rng.Intn(1000))
			case 1: // the same again
			case 2:
				id += 1<<32 + uint64(rng.Int63())
			case 3:
				id = rng.Uint64()
			default:
				id++
			}
			blocks := make([]Block, rng.Intn(5)*rng.Intn(11)) // 0..40, a third of them none
			for j := range blocks {
				data := make([]byte, sizes[rng.Intn(len(sizes))])
				rng.Read(data)
				blocks[j] = Block{Data: data, S: uint8(rng.Intn(16)), R: uint8(rng.Intn(16))}
			}
			subs[i] = sub{id, blocks}
			need, before := b.Need(id, blocks), b.Len()
			b.Add(id, blocks)
			if got := b.Len() - before; got != need || got > SubSize(blocks) {
				t.Fatalf("seed %d sub %d: Add grew the frame by %d bytes, Need said %d, SubSize %d", seed, i, got, need, SubSize(blocks))
			}
		}
		r, ok := NewReader(b.Finish())
		if !ok || r.Count() != len(subs) {
			t.Fatalf("seed %d: frame of %d sub-messages rejected, or read as %d", seed, len(subs), r.Count())
		}
		for i, want := range subs {
			got, ok := r.Next()
			if !ok || got.ID != want.id || got.NumBlocks() != len(want.blocks) {
				t.Fatalf("seed %d sub %d: read id %d with %d blocks (ok %v), want id %d with %d",
					seed, i, got.ID, got.NumBlocks(), ok, want.id, len(want.blocks))
			}
			var payload []byte
			for _, blk := range want.blocks {
				payload = append(payload, blk.Data...)
			}
			mid, at := got, rng.Intn(len(want.blocks)+1) // as a sink reads: blocks in order, the payload first asked for part-way
			for j := 0; j < at; j++ {
				mid.Block(j)
			}
			if !bytes.Equal(got.Payload(), payload) || !bytes.Equal(mid.Payload(), payload) {
				t.Fatalf("seed %d sub %d: payload of %d bytes, or of %d asked for after block %d, differs from the %d packed",
					seed, i, len(got.Payload()), len(mid.Payload()), at, len(payload))
			}
			for j := at; j < len(want.blocks); j++ {
				if size, sm, rm := mid.Block(j); size != len(want.blocks[j].Data) || sm != want.blocks[j].S || rm != want.blocks[j].R {
					t.Fatalf("seed %d sub %d block %d, read on after the payload: (%d, %d, %d)", seed, i, j, size, sm, rm)
				}
			}
			order := rng.Perm(len(want.blocks)) // out of order first, then in order
			for j := range want.blocks {
				order = append(order, j)
			}
			for _, j := range order {
				size, sm, rm := got.Block(j)
				if blk := want.blocks[j]; size != len(blk.Data) || sm != blk.S || rm != blk.R {
					t.Fatalf("seed %d sub %d block %d: (%d, %d, %d), want (%d, %d, %d)", seed, i, j, size, sm, rm, len(blk.Data), blk.S, blk.R)
				}
			}
		}
		if _, ok := r.Next(); ok {
			t.Fatalf("seed %d: Next returned a sub-message past the last", seed)
		}
	}
}

// TestSubSizeMatchesWire holds the two sizings to the encoder: Need is by how
// much Add grows the frame it is asked about, and SubSize, which knows neither
// the ID nor the one before it, is never under that.
func TestSubSizeMatchesWire(t *testing.T) {
	ids := []uint64{1, 2, 2, 1 << 40, 0, ^uint64(0), 1 << 63, 1<<63 - 1}
	shapes := append(sampleBlocks(),
		[]Block{{Data: make([]byte, 127)}}, []Block{{Data: make([]byte, 128)}},
		[]Block{{Data: make([]byte, 16383)}, {Data: make([]byte, 16384)}, {}})
	t.Run("Need is the growth of Add", func(t *testing.T) {
		b := NewBuilder(64)
		for i, id := range ids {
			for _, blocks := range shapes {
				need, before := b.Need(id+uint64(i), blocks), b.Len()
				b.Add(id+uint64(i), blocks)
				if got := b.Len() - before; got != need {
					t.Errorf("id %d, %d blocks: Add grew the frame by %d bytes, Need said %d", id, len(blocks), got, need)
				}
			}
		}
	})
	t.Run("SubSize bounds the growth for any id", func(t *testing.T) {
		b := NewBuilder(64)
		for _, id := range ids {
			for _, blocks := range shapes {
				before := b.Len()
				b.Add(id, blocks)
				if got, bound := b.Len()-before, SubSize(blocks); got > bound {
					t.Errorf("id %d, %d blocks: Add grew the frame by %d bytes, over SubSize's %d", id, len(blocks), got, bound)
				}
			}
		}
		// The bound is met: the widest delta in front of one block.
		b.Reset()
		one := []Block{{Data: make([]byte, 64)}}
		if got, bound := b.Need(1<<63, one), SubSize(one); got != bound {
			t.Errorf("a 64 B block behind the widest ID delta needs %d bytes, SubSize says %d", got, bound)
		}
		if got := NewBuilder(64).Need(1, one); got != 5+64 {
			t.Errorf("a 64 B block behind a one-byte ID delta needs %d bytes, want 5 of entry and the payload", got)
		}
	})
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
// the builder, unarmed, produces an identical frame from identical input.
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

// TestDetachLeavesTheBuilderUnarmed: Detach keeps nothing of the buffer it
// hands out, and a builder used unarmed — as the frames of a caller that arms
// it from no pool are built — takes fresh memory of its capacity hint, never
// the buffer it handed out.
func TestDetachLeavesTheBuilderUnarmed(t *testing.T) {
	const prefix, mtu = 20, 32 << 10
	b := NewBuilderPrefix(prefix, mtu)
	if b.buf != nil {
		t.Fatal("a new builder holds a buffer before its first use")
	}
	small := []Block{{Data: make([]byte, 64), S: 1, R: 1}}
	b.Add(1, small)
	b.Finish()
	wire := b.Detach()
	if b.buf != nil || b.Len() != HeaderLen || b.Count() != 0 {
		t.Fatalf("Detach left a buffer of %d bytes, Len %d, Count %d", cap(b.buf), b.Len(), b.Count())
	}
	if cap(wire) != mtu {
		t.Errorf("an unarmed builder took %d bytes, want its hint, %d", cap(wire), mtu)
	}
	b.Add(2, small)
	if cap(b.buf) != mtu || &b.buf[0] == &wire[0] {
		t.Errorf("after a Detach the builder holds %d bytes, want a fresh %d", cap(b.buf), mtu)
	}
}

// TestDetachRearmIsBoundedByTheHint: a frame that outgrows the hint grows by
// append — past the hint, into whatever size class the allocator rounds to —
// and the buffer the builder takes after that is sized by the hint again, not
// by the capacity append happened to leave.
func TestDetachRearmIsBoundedByTheHint(t *testing.T) {
	const prefix, mtu = 20, 32 << 10
	b := NewBuilderPrefix(prefix, mtu)
	small := []Block{{Data: make([]byte, 64), S: 1, R: 1}}
	for id := uint64(0); b.Len() <= mtu; id++ {
		b.Add(id, small)
	}
	b.Finish()
	full := b.Detach()
	if _, ok := NewReader(full[prefix:]); !ok {
		t.Fatal("a frame grown past the hint does not validate")
	}
	b.Add(1, small)
	if cap(full) <= mtu || cap(b.buf) != mtu || &b.buf[0] == &full[0] {
		t.Errorf("after a %d-byte frame the builder holds %d bytes, want a fresh %d", cap(full), cap(b.buf), mtu)
	}
}

// TestArmBuildsInTheBufferGiven: an armed builder builds its next frame in the
// caller's buffer — over whatever its last user left there — and the frame is
// the one a fresh buffer would hold; Detach hands that very buffer back.
func TestArmBuildsInTheBufferGiven(t *testing.T) {
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
	b.Arm(first[:0])
	b.Add(7, blocks)
	if !bytes.Equal(b.Finish(), want) {
		t.Error("frame built in an armed, overwritten buffer differs from the one built in a fresh buffer")
	}
	if again := b.Detach(); &again[0] != &first[0] || b.buf != nil {
		t.Error("Detach did not hand back the buffer the builder was armed with")
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

// rawFrame seals a header of the given version and count around a body
// written out by hand.
func rawFrame(version uint8, count int, body ...byte) []byte {
	f := make([]byte, HeaderLen, HeaderLen+len(body))
	binary.LittleEndian.PutUint16(f[0:], frameMagic)
	f[2] = version
	binary.LittleEndian.PutUint16(f[4:], uint16(count))
	return reseal(append(f, body...))
}

// maxUvarint is 2⁶⁴−1 in its ten bytes.
var maxUvarint = []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}

func TestReaderRejectsMalformedFrames(t *testing.T) {
	// The sample's first entry, behind the header: subLen 9 | idDelta 14 |
	// nblocks 1 | size 5 | modes 0x01 | "hello".
	const subLenAt, nblocksAt, sizeAt = HeaderLen, HeaderLen + 2, HeaderLen + 3
	good := buildSample()
	poke := func(at int, v byte) func() []byte {
		return func() []byte {
			f := append([]byte(nil), good...)
			f[at] = v
			return reseal(f)
		}
	}
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
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
		// First entry claims one byte more than it has; the walk would read
		// into the next entry.
		"sub-len-overlaps-next": poke(subLenAt, good[subLenAt]+1),
		"sub-len-past-body":     poke(subLenAt, 0x7f),
		"sub-len-zero":          poke(subLenAt, 0),
		// First sub claims 100 blocks; the descriptors alone overrun it.
		"nblocks-exceeds-entry": poke(nblocksAt, 100),
		// Its one block claims more, then less, than the entry's payload.
		"block-sizes-exceed-payload":     poke(sizeAt, 6),
		"block-sizes-undercount-payload": poke(sizeAt, 4),

		// Bodies written out by hand, one entry each.
		"sub-len-varint-unterminated": func() []byte { return rawFrame(frameVersion, 1, 0x80) },
		"id-varint-unterminated":      func() []byte { return rawFrame(frameVersion, 1, 2, 0x80, 0x80) },
		"nblocks-varint-unterminated": func() []byte { return rawFrame(frameVersion, 1, 2, 0, 0x80) },
		"size-varint-unterminated":    func() []byte { return rawFrame(frameVersion, 1, 4, 0, 1, 0x80, 0x80) },
		"sub-len-varint-padded":       func() []byte { return rawFrame(frameVersion, 1, 0x82, 0, 0, 0) },
		"id-varint-padded":            func() []byte { return rawFrame(frameVersion, 1, 3, 0x80, 0, 0) },
		"size-varint-padded":          func() []byte { return rawFrame(frameVersion, 1, 5, 0, 1, 0x80, 0, 0) },
		"modes-byte-missing": func() []byte {
			// Two descriptors in four bytes, the first three of them: size 128
			// in two, its modes, and the second's size where the entry ends. A
			// second, sound entry makes the body long enough for a 128 B block.
			b := NewBuilder(256)
			b.Add(0, []Block{{Data: make([]byte, 130)}})
			return rawFrame(frameVersion, 2, cat([]byte{6, 0, 2, 0x80, 0x01, 0, 0}, b.Finish()[HeaderLen:])...)
		},
		"nblocks-with-no-descriptors": func() []byte { return rawFrame(frameVersion, 1, 2, 0, 0x7f) },
		"sub-len-overflows-64-bits":   func() []byte { return rawFrame(frameVersion, 1, cat(maxUvarint[:9], []byte{2, 0})...) },
		"id-overflows-64-bits":        func() []byte { return rawFrame(frameVersion, 1, cat([]byte{11}, maxUvarint[:9], []byte{2, 0})...) },
		"nblocks-overflows-64-bits":   func() []byte { return rawFrame(frameVersion, 1, cat([]byte{12, 0}, maxUvarint[:9], []byte{2, 0})...) },
		"nblocks-is-huge":             func() []byte { return rawFrame(frameVersion, 1, cat([]byte{11, 0}, maxUvarint)...) },
		"block-size-is-huge":          func() []byte { return rawFrame(frameVersion, 1, cat([]byte{14, 0, 1}, maxUvarint, []byte{0, 'x'})...) },
		"block-sizes-wrap-to-the-payload": func() []byte {
			// 2⁶⁴−1 and 2 sum to the one byte of payload there is.
			return rawFrame(frameVersion, 1, cat([]byte{16, 0, 2}, maxUvarint, []byte{0, 2, 0, 'x'})...)
		},
		"valid-v1-frame": func() []byte {
			// subLen u32 | id u64 | nblocks u16 | size u32, sendMode, recvMode | payload
			return rawFrame(1, 1, cat([]byte{17, 0, 0, 0}, []byte{7, 0, 0, 0, 0, 0, 0, 0}, []byte{1, 0},
				[]byte{1, 0, 0, 0, 0, 1}, []byte{'x'})...)
		},
	}
	for name, corrupt := range cases {
		if _, ok := NewReader(corrupt()); ok {
			t.Errorf("%s: malformed frame accepted", name)
		}
	}
	// Controls: the pristine sample, and the hand-written layout when nothing
	// is wrong with it, so the cases above fail for the reason they name.
	if _, ok := NewReader(good); !ok {
		t.Fatal("control: pristine frame rejected")
	}
	r, ok := NewReader(rawFrame(frameVersion, 1, 7, 14, 2, 1, 0x21, 0, 0x00, 'x'))
	if !ok {
		t.Fatal("control: hand-written frame rejected")
	}
	if sub, _ := r.Next(); sub.ID != 7 || sub.NumBlocks() != 2 || string(sub.Payload()) != "x" {
		t.Errorf("control: hand-written frame read as id %d, %d blocks, payload %q", sub.ID, sub.NumBlocks(), sub.Payload())
	} else if size, sm, rm := sub.Block(0); size != 1 || sm != 2 || rm != 1 {
		t.Errorf("control: first block read as (%d, %d, %d), want (1, 2, 1)", size, sm, rm)
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
	b := NewBuilder(HeaderLen + 3*(MaxSubs+1))
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

// TestAddPanicsOnAModePastFourBits: the two modes share a byte, so a value the
// nibble cannot hold must stop the sender, not reach the receiver as another.
func TestAddPanicsOnAModePastFourBits(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Add packed a send mode of 16 without panicking")
		}
	}()
	NewBuilder(64).Add(1, []Block{{Data: []byte("x"), S: 16, R: 0}})
}
