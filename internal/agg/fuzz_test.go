package agg

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// FuzzAggFrame pins the decoder's wire contract: NewReader never panics on
// arbitrary bytes, rejects truncated and overlapping sub-message bounds, and
// for every accepted frame the walked sub-messages re-encode to the input
// byte for byte (modulo the flags/reserved header bytes the reader ignores).
func FuzzAggFrame(f *testing.F) {
	for _, seed := range aggFrameSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r, ok := NewReader(data)
		if !ok {
			return
		}
		// Walk every sub-message; the reader guaranteed the bounds, so any
		// panic here is a validation gap.
		b := NewBuilder(len(data))
		subs := 0
		for {
			sub, more := r.Next()
			if !more {
				break
			}
			subs++
			blocks := make([]Block, sub.NumBlocks())
			payload := sub.Payload()
			off := 0
			for i := range blocks {
				size, s, rm := sub.Block(i)
				if size < 0 || off+size > len(payload) {
					t.Fatalf("accepted block %d with out-of-range size %d (payload %d)", i, size, len(payload))
				}
				blocks[i] = Block{Data: payload[off : off+size], S: s, R: rm}
				off += size
			}
			if off != len(payload) {
				t.Fatalf("block sizes sum to %d, payload is %d", off, len(payload))
			}
			b.Add(sub.ID, blocks)
		}
		if subs != r.Count() {
			t.Fatalf("walked %d sub-messages, Count() says %d", subs, r.Count())
		}
		// The reader ignores the flags and reserved header fields, so clear
		// them before comparing with the canonical re-encoding.
		in := append([]byte(nil), data...)
		in[3] = 0
		in[6], in[7] = 0, 0
		if re := b.Finish(); !bytes.Equal(re, in) {
			t.Fatalf("round-trip mismatch:\n in  %x\n out %x", in, re)
		}
	})
}

func aggFrameSeeds() [][]byte {
	one := NewBuilder(64)
	one.Add(42, []Block{{Data: []byte("mouse"), S: 0, R: 1}})
	many := NewBuilder(256)
	many.Add(1, []Block{{Data: []byte("a"), S: 1, R: 1}, {Data: []byte("bb"), S: 2, R: 0}})
	many.Add(2, nil)
	many.Add(^uint64(0), []Block{{Data: nil, S: 0, R: 0}})
	empty := NewBuilder(HeaderLen)
	truncated := append([]byte(nil), one.Finish()...)

	// An overlapping-bounds frame with a valid checksum: the first entry's
	// subLen reaches one byte into the next entry, its length field.
	overlap := NewBuilder(128)
	overlap.Add(7, []Block{{Data: []byte("xy"), S: 0, R: 0}})
	overlap.Add(8, []Block{{Data: []byte("z"), S: 0, R: 0}})
	ob := append([]byte(nil), overlap.Finish()...)
	ob[HeaderLen]++
	binary.LittleEndian.PutUint32(ob[12:], crc32.ChecksumIEEE(ob[HeaderLen:]))

	return [][]byte{
		append([]byte(nil), one.Finish()...),
		append([]byte(nil), many.Finish()...),
		append([]byte(nil), empty.Finish()...),
		truncated[:len(truncated)-3],
		ob,
		make([]byte, HeaderLen),
		{},
	}
}

// TestRegenFuzzCorpus mirrors internal/fwd's corpus regeneration: run with
// MADGO_REGEN_CORPUS=1 after changing the frame format; a bare `go test`
// verifies the checked-in seeds are present and current.
func TestRegenFuzzCorpus(t *testing.T) {
	regen := os.Getenv("MADGO_REGEN_CORPUS") != ""
	dir := filepath.Join("testdata", "fuzz", "FuzzAggFrame")
	if regen {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for i, seed := range aggFrameSeeds() {
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
