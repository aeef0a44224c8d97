package health

import (
	"encoding/binary"
	"hash/crc32"

	"madgo/internal/vtime"
)

// Probe wire format — the payload of every heartbeat/probation packet the
// forwarding layer exchanges on mad.KindHealth. Fixed 24 bytes:
//
//	off size field
//	0   2    magic 0x4d48 ("MH", little-endian on the wire)
//	2   1    version (probeVersion)
//	3   1    kind: 1 request, 2 response
//	4   8    seq   — prober-chosen, echoed verbatim by the responder
//	12  8    t0    — prober's virtual send time (ns), echoed verbatim,
//	             so the RTT needs no responder clock
//	20  4    CRC32 (IEEE) over bytes [0,20)
//
// A responder flips kind to response and returns seq/t0 untouched; the
// prober matches responses to outstanding awaits by seq and derives the
// round-trip from its own clock minus t0.

const (
	// ProbeSize is the exact encoded length of a probe packet.
	ProbeSize = 24

	probeMagic   uint16 = 0x4d48
	probeVersion byte   = 1
)

// ProbeKind distinguishes requests from responses.
type ProbeKind byte

const (
	ProbeReq  ProbeKind = 1
	ProbeResp ProbeKind = 2
)

// Probe is one decoded heartbeat/probation packet.
type Probe struct {
	Kind ProbeKind
	Seq  uint64
	T0   vtime.Time
}

// EncodeProbe renders p into its canonical 24-byte wire form.
func EncodeProbe(p Probe) []byte {
	b := make([]byte, ProbeSize)
	PutProbe(b, p)
	return b
}

// PutProbe renders p into the first ProbeSize bytes of b, for a sender that
// brings its own packet buffer.
func PutProbe(b []byte, p Probe) {
	b = b[:ProbeSize]
	binary.LittleEndian.PutUint16(b[0:], probeMagic)
	b[2] = probeVersion
	b[3] = byte(p.Kind)
	binary.LittleEndian.PutUint64(b[4:], p.Seq)
	binary.LittleEndian.PutUint64(b[12:], uint64(p.T0))
	binary.LittleEndian.PutUint32(b[20:], crc32.ChecksumIEEE(b[:20]))
}

// DecodeProbe parses a probe packet. ok=false covers every malformation:
// wrong length, magic, version or kind, and any checksum mismatch.
func DecodeProbe(b []byte) (Probe, bool) {
	if len(b) != ProbeSize {
		return Probe{}, false
	}
	if binary.LittleEndian.Uint16(b[0:]) != probeMagic || b[2] != probeVersion {
		return Probe{}, false
	}
	k := ProbeKind(b[3])
	if k != ProbeReq && k != ProbeResp {
		return Probe{}, false
	}
	if binary.LittleEndian.Uint32(b[20:]) != crc32.ChecksumIEEE(b[:20]) {
		return Probe{}, false
	}
	return Probe{
		Kind: k,
		Seq:  binary.LittleEndian.Uint64(b[4:]),
		T0:   vtime.Time(binary.LittleEndian.Uint64(b[12:])),
	}, true
}

// Response builds the reply to a request: same seq and t0, kind flipped.
func (p Probe) Response() Probe {
	return Probe{Kind: ProbeResp, Seq: p.Seq, T0: p.T0}
}
