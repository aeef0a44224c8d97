package health

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"madgo/internal/vtime"
)

func TestProbeRoundTrip(t *testing.T) {
	req := Probe{Kind: ProbeReq, Seq: 42, T0: vtime.Time(7 * vtime.Millisecond)}
	b := EncodeProbe(req)
	if len(b) != ProbeSize {
		t.Fatalf("encoded length = %d", len(b))
	}
	got, ok := DecodeProbe(b)
	if !ok || got != req {
		t.Fatalf("decode = %+v, %v", got, ok)
	}
	resp := req.Response()
	if resp.Kind != ProbeResp || resp.Seq != req.Seq || resp.T0 != req.T0 {
		t.Fatalf("response = %+v", resp)
	}
	if _, ok := DecodeProbe(EncodeProbe(resp)); !ok {
		t.Fatal("response does not decode")
	}
}

// FuzzHealthProbe checks the probe codec's wire contract: decode never
// panics, accepts exactly the encoder's output — a probe-sized input with the
// magic, the version and a known kind, whatever its seq and t0 — and every
// accepted input re-encodes byte for byte. Integrity is the link's: a probe
// its link corrupts never reaches the decoder (mad.Link).
func FuzzHealthProbe(f *testing.F) {
	for _, seed := range healthProbeSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, ok := DecodeProbe(data)
		wellFormed := len(data) == ProbeSize && binary.LittleEndian.Uint16(data) == probeMagic &&
			data[2] == probeVersion && (ProbeKind(data[3]) == ProbeReq || ProbeKind(data[3]) == ProbeResp)
		if ok != wellFormed {
			t.Fatalf("decode of %x: ok %v, well-formed %v", data, ok, wellFormed)
		}
		if !ok {
			return
		}
		if re := EncodeProbe(p); !bytes.Equal(re, data) {
			t.Fatalf("round-trip mismatch:\n in  %x\n out %x", data, re)
		}
	})
}

// healthProbeSeeds feeds both f.Add and the checked-in corpus under
// testdata/fuzz, mirroring the convention of internal/fwd.
func healthProbeSeeds() [][]byte {
	return [][]byte{
		EncodeProbe(Probe{Kind: ProbeReq, Seq: 1, T0: 0}),
		EncodeProbe(Probe{Kind: ProbeResp, Seq: ^uint64(0), T0: vtime.Time(1 << 40)}),
		EncodeProbe(Probe{Kind: ProbeReq, Seq: 0, T0: vtime.Time(5 * vtime.Millisecond)}),
		make([]byte, ProbeSize), // zero magic → rejected
		make([]byte, ProbeSize-1),
		make([]byte, ProbeSize+1),
		{},
	}
}

// TestRegenFuzzCorpus rewrites the seed corpus under testdata/fuzz from the
// live encoder. Run with MADGO_REGEN_CORPUS=1 after changing the wire
// format; a bare `go test` only verifies the files are present and current.
func TestRegenFuzzCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzHealthProbe")
	regen := os.Getenv("MADGO_REGEN_CORPUS") != ""
	if regen {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for i, seed := range healthProbeSeeds() {
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
