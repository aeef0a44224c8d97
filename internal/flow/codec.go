package flow

import (
	"encoding/binary"
	"hash/crc32"
)

// A credit grant is the unit of the gateway-advertised window: the gateway
// returns one grant toward an upstream sender each time a staging-ring slot
// frees, and the sender's window widens by Credits transfers. On a real
// wire grants would ride piggybacked on reverse traffic, so they must be
// self-checking: a corrupted grant that inflated a window would silently
// defeat the overload protection, which is why the trailer CRC covers every
// preceding byte. The simulator returns credits out of band and encodes
// none (internal/fwd); this is the format such a wire would carry.
//
// Wire layout (little-endian), GrantLen = 20 bytes:
//
//	[0:4)   gateway rank   (the granting node)
//	[4:8)   upstream rank  (the sender the credits are addressed to)
//	[8:12)  credits        (1..MaxGrantCredits)
//	[12:16) sequence       (per-account grant counter, duplicate detection)
//	[16:20) CRC32 (IEEE) over bytes [0:16)

// GrantLen is the wire size of one credit grant.
const GrantLen = 20

// MaxGrantCredits caps a single grant. A grant claiming more than this is
// treated as corruption: no slot pool in the system frees that many slots
// at once, and accepting it would blow the window open.
const MaxGrantCredits = 1 << 20

// Grant is one decoded credit grant.
type Grant struct {
	Gateway  uint32 // rank of the granting gateway
	Upstream uint32 // rank of the sender being credited
	Credits  uint32 // window widening, in transfers
	Seq      uint32 // per-account grant sequence number
}

// AppendGrant appends the wire form of g to buf and returns the extended
// slice. Appending (rather than allocating) keeps the per-grant hot path in
// the gateway allocation-free: each credit account reuses one scratch
// buffer.
func AppendGrant(buf []byte, g Grant) []byte {
	off := len(buf)
	var w [GrantLen]byte
	binary.LittleEndian.PutUint32(w[0:], g.Gateway)
	binary.LittleEndian.PutUint32(w[4:], g.Upstream)
	binary.LittleEndian.PutUint32(w[8:], g.Credits)
	binary.LittleEndian.PutUint32(w[12:], g.Seq)
	buf = append(buf, w[:]...)
	binary.LittleEndian.PutUint32(buf[off+16:], crc32.ChecksumIEEE(buf[off:off+16]))
	return buf
}

// EncodeGrant returns the wire form of g in a fresh buffer.
func EncodeGrant(g Grant) []byte { return AppendGrant(nil, g) }

// DecodeGrant parses one credit grant. It never panics on malformed input:
// ok is false when the buffer is not exactly GrantLen bytes, the checksum
// does not cover the content, or the credit count is unusable (zero, or
// past MaxGrantCredits). The fuzz target pins this contract down — grants
// adjust sender windows, so a corrupted one must be rejected, not applied.
func DecodeGrant(b []byte) (g Grant, ok bool) {
	if len(b) != GrantLen {
		return Grant{}, false
	}
	if crc32.ChecksumIEEE(b[:16]) != binary.LittleEndian.Uint32(b[16:]) {
		return Grant{}, false
	}
	g = Grant{
		Gateway:  binary.LittleEndian.Uint32(b[0:]),
		Upstream: binary.LittleEndian.Uint32(b[4:]),
		Credits:  binary.LittleEndian.Uint32(b[8:]),
		Seq:      binary.LittleEndian.Uint32(b[12:]),
	}
	if g.Credits == 0 || g.Credits > MaxGrantCredits {
		return Grant{}, false
	}
	return g, true
}
