package fwd

import "madgo/internal/mad"

// Buffer pooling: one pool for every buffer the forwarding layer recycles —
// reliable datagrams, aggregate frames, a sink's reassembly buffers and a
// gateway's staging buffers — owned by the virtual channel, split by size
// class and ledgered: at quiescence every buffer taken has been returned.
// Taker and returner may be different nodes; DESIGN.md §33 has the table.
// Only an egress driver can make its static buffers (§2.3), so a gateway ring
// keeps a pool of the same type per egress network whose misses call the
// driver's AllocStatic, in the same ledger (RelBookkeeping).
//
// A returned buffer can be taken again at once. The link reads a streamed
// payload a WireLatency after Send returned, and a gateway returns a staging
// buffer a SwapOverhead after it, so Build rejects a streaming channel whose
// wire is slower than the buffer switch. Unsynchronized: one simulation, one
// thread.

const (
	relBufMinShift = 6  // smallest class: 64 bytes
	relBufPageBits = 12 // classes are powers of two up to a 4 KiB page, whole pages above
	relBufPage     = 1 << relBufPageBits
)

// relBufClass returns the free list a buffer of n bytes belongs to and the
// capacity of that list's buffers. A capacity maps to its own class.
func relBufClass(n int) (class, size int) {
	if n <= relBufPage {
		shift := relBufMinShift
		for 1<<shift < n {
			shift++
		}
		return shift - relBufMinShift, 1 << shift
	}
	pages := (n + relBufPage - 1) >> relBufPageBits
	return relBufPageBits - relBufMinShift + pages - 1, pages << relBufPageBits
}

// wireBufPool is the size-classed free list; the zero value is ready to use.
type wireBufPool struct {
	free     [][][]byte // by class, LIFO
	taken    int64
	returned int64
	misses   int64 // gets no free buffer could serve: the buffers allocated
	// alloc, when set, makes a buffer of a class's capacity on a miss (a
	// driver's static buffers); nil is make.
	alloc func(size int) []byte
	// onPut, when set, sees every returned buffer at full capacity before
	// it is pooled. Only tests set it, to poison the memory so that a read
	// through a stale alias fails loudly.
	onPut func(buf []byte)
	// pairs are the block-descriptor pairs of frames sent in one transfer: a
	// pair travels with its frame, by reference, to the sink that returns both.
	pairs []*[2]mad.BlockDesc
}

// get returns a buffer of length n whose content is unspecified: the last one
// returned to the smallest class that fits n and has one free. A buffer
// borrowed from a larger class goes back to its own, so concurrent bursts of
// mixed sizes share one set of buffers instead of warming a set per size.
func (bp *wireBufPool) get(n int) []byte {
	bp.taken++
	class, size := relBufClass(n)
	for c := class; c < len(bp.free); c++ {
		if l := bp.free[c]; len(l) > 0 {
			b := l[len(l)-1]
			l[len(l)-1] = nil
			bp.free[c] = l[:len(l)-1]
			return b[:n]
		}
	}
	bp.misses++
	if bp.alloc != nil {
		return bp.alloc(size)[:n]
	}
	return make([]byte, n, size)
}

// put returns a buffer taken with get; the caller keeps no alias into it.
// Nil is ignored, so a packet that never had a buffer (one this node
// originated) is released like any other.
func (bp *wireBufPool) put(b []byte) {
	if b == nil {
		return
	}
	class, size := relBufClass(cap(b))
	if size != cap(b) {
		panic("fwd: buffer returned to the wire pool was not taken from it")
	}
	bp.returned++
	b = b[:size]
	if bp.onPut != nil {
		bp.onPut(b)
	}
	for class >= len(bp.free) {
		bp.free = append(bp.free, nil)
	}
	bp.free[class] = append(bp.free[class], b)
}

// getPair returns a descriptor pair whose content is unspecified.
func (bp *wireBufPool) getPair() *[2]mad.BlockDesc {
	if n := len(bp.pairs); n > 0 {
		d := bp.pairs[n-1]
		bp.pairs = bp.pairs[:n-1]
		return d
	}
	return new([2]mad.BlockDesc)
}

// putPair returns a pair nothing reads any more.
func (bp *wireBufPool) putPair(d *[2]mad.BlockDesc) { bp.pairs = append(bp.pairs, d) }

// tally adds the pool's ledger to s.
func (bp *wireBufPool) tally(s *RelBookkeeping) {
	s.BufsTaken += bp.taken
	s.BufsReturned += bp.returned
	s.BufsAllocated += bp.misses
	for _, l := range bp.free {
		s.BufsFree += len(l)
	}
}
