package flow

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

func TestGrantRoundTrip(t *testing.T) {
	g := Grant{Gateway: 3, Upstream: 17, Credits: 8, Seq: 42}
	enc := AppendGrant(nil, g)
	if len(enc) != GrantLen {
		t.Fatalf("encoded length %d, want %d", len(enc), GrantLen)
	}
	got, ok := DecodeGrant(enc)
	if !ok || got != g {
		t.Fatalf("round trip: %+v %v, want %+v", got, ok, g)
	}
}

func TestGrantAppendReusesBuffer(t *testing.T) {
	buf := make([]byte, 0, 2*GrantLen)
	buf = AppendGrant(buf, Grant{Gateway: 1, Upstream: 2, Credits: 3, Seq: 0})
	buf = AppendGrant(buf, Grant{Gateway: 1, Upstream: 2, Credits: 4, Seq: 1})
	if len(buf) != 2*GrantLen {
		t.Fatalf("appended length %d", len(buf))
	}
	g1, ok1 := DecodeGrant(buf[:GrantLen])
	g2, ok2 := DecodeGrant(buf[GrantLen:])
	if !ok1 || !ok2 || g1.Credits != 3 || g2.Credits != 4 || g2.Seq != 1 {
		t.Fatalf("decoded %+v/%v %+v/%v", g1, ok1, g2, ok2)
	}
}

func TestGrantRejections(t *testing.T) {
	if _, ok := DecodeGrant(nil); ok {
		t.Error("accepted nil")
	}
	if _, ok := DecodeGrant(make([]byte, GrantLen-1)); ok {
		t.Error("accepted short buffer")
	}
	if _, ok := DecodeGrant(make([]byte, GrantLen+1)); ok {
		t.Error("accepted long buffer")
	}
	// Zero credits: correctly checksummed but unusable.
	if _, ok := DecodeGrant(AppendGrant(nil, Grant{Gateway: 1, Upstream: 2, Credits: 0})); ok {
		t.Error("accepted zero-credit grant")
	}
	// A grant past the burst cap is treated as corruption.
	if _, ok := DecodeGrant(AppendGrant(nil, Grant{Credits: MaxGrantCredits + 1})); ok {
		t.Error("accepted over-cap grant")
	}
	// Corrupted checksum.
	enc := AppendGrant(nil, Grant{Gateway: 1, Upstream: 2, Credits: 3})
	enc[16] ^= 0xFF
	if _, ok := DecodeGrant(enc); ok {
		t.Error("accepted bad checksum")
	}
}

// FuzzFlowCredit pins the credit-grant codec's wire contract: decode never
// panics, every accepted input re-encodes byte-identically, accepted grants
// carry usable credit counts, and the CRC detects every single-byte
// corruption — a flipped grant must never widen a window.
func FuzzFlowCredit(f *testing.F) {
	for _, seed := range flowCreditSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, ok := DecodeGrant(data)
		if !ok {
			return
		}
		if g.Credits == 0 || g.Credits > MaxGrantCredits {
			t.Fatalf("accepted grant with unusable credits %d", g.Credits)
		}
		if re := AppendGrant(nil, g); !bytes.Equal(re, data) {
			t.Fatalf("round-trip mismatch:\n in  %x\n out %x", data, re)
		}
		for i := range data {
			data[i] ^= 0xFF
			if _, stillOK := DecodeGrant(data); stillOK {
				t.Fatalf("grant still decodes with byte %d flipped", i)
			}
			data[i] ^= 0xFF
		}
	})
}

// Seed corpus: the same byte sets feed f.Add at run time and the checked-in
// files under testdata/fuzz (regenerated by TestRegenFlowCorpus), so `go
// test -fuzz` and a bare `go test` exercise identical seeds.
func flowCreditSeeds() [][]byte {
	return [][]byte{
		AppendGrant(nil, Grant{Gateway: 0, Upstream: 1, Credits: 1, Seq: 0}),
		AppendGrant(nil, Grant{Gateway: 7, Upstream: 3, Credits: 16, Seq: ^uint32(0)}),
		AppendGrant(nil, Grant{Gateway: ^uint32(0), Upstream: 0, Credits: MaxGrantCredits, Seq: 9}),
		AppendGrant(nil, Grant{Gateway: 2, Upstream: 2, Credits: 0, Seq: 1}), // zero credits -> rejected
		make([]byte, GrantLen), // zero CRC -> rejected
		make([]byte, GrantLen-1),
		make([]byte, GrantLen+1),
		{},
	}
}

// TestRegenFlowCorpus rewrites the seed corpus under testdata/fuzz from the
// live encoder. Run with MADGO_REGEN_CORPUS=1 after changing the wire
// format; a bare `go test` only verifies the files are present and
// well-formed.
func TestRegenFlowCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzFlowCredit")
	regen := os.Getenv("MADGO_REGEN_CORPUS") != ""
	if regen {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for i, seed := range flowCreditSeeds() {
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
