package fwd

import "madgo/internal/mad"

// Staging-buffer pooling for the gateway pipeline.
//
// A gateway rotates PipelineDepth staging buffers per ingress network
// between its receive thread and the egress senders. Allocating them per
// message (let alone per packet) puts the allocator on the forwarding hot
// path; instead each gateway keeps, per ingress network, free lists a packet
// slot takes a buffer from for every fragment it stages and gives it back to
// when the fragment has left. Steady-state relays then touch the allocator
// only while a list warms up (a ring's worth of misses per buffer mode and
// size), which the allocation-regression tests pin down.
//
// The pools are deliberately unsynchronized: the simulation scheduler is
// single-threaded and each pool is owned by exactly one ingress network's
// forwarding engine, so there is nothing to race with.

// bufPool is a LIFO free list of byte buffers with capacity-class reuse: get
// returns any pooled buffer whose capacity covers the request, sliced to the
// requested length, and only falls back to alloc when none fits.
type bufPool struct {
	bufs  [][]byte
	alloc func(n int) []byte

	gets   int64
	puts   int64
	misses int64
}

// newBufPool creates a pool backed by the given allocator (called only on
// misses). A nil allocator defaults to make.
func newBufPool(alloc func(n int) []byte) *bufPool {
	if alloc == nil {
		alloc = func(n int) []byte { return make([]byte, n) }
	}
	return &bufPool{alloc: alloc}
}

// get returns a buffer of length n, reusing the most recently returned one
// that is large enough.
func (bp *bufPool) get(n int) []byte {
	bp.gets++
	for i := len(bp.bufs) - 1; i >= 0; i-- {
		b := bp.bufs[i]
		if cap(b) < n {
			continue
		}
		last := len(bp.bufs) - 1
		bp.bufs[i] = bp.bufs[last]
		bp.bufs[last] = nil
		bp.bufs = bp.bufs[:last]
		return b[:n]
	}
	bp.misses++
	return bp.alloc(n)
}

// put returns a buffer to the pool. Nil buffers are ignored so slot-mode
// tokens can be recycled unconditionally.
func (bp *bufPool) put(b []byte) {
	if b == nil {
		return
	}
	bp.puts++
	bp.bufs = append(bp.bufs, b[:cap(b)])
}

// PoolStats aggregates the free-list counters of one gateway: how many
// staging buffers were requested, returned, and actually allocated. On a
// steady-state relay Misses stays at the warmup level (one ring's worth per
// buffer mode) while Gets keeps growing, and a quiescent gateway holds none:
// Gets == Puts.
type PoolStats struct {
	Gets   int64
	Puts   int64
	Misses int64
}

func (s *PoolStats) observe(bp *bufPool) {
	s.Gets += bp.gets
	s.Puts += bp.puts
	s.Misses += bp.misses
}

// Wire-buffer pooling: memory whose life ends on another node.
//
// A reliable datagram lives in one buffer per hop: the sender takes it here
// and encodes into it, the link hands that same memory to the receiver
// (mad.TxMeta.Owned), and whoever holds it last returns it — the hand-over
// table is in DESIGN.md §17. An aggregate frame lives in one buffer from the
// coalescer that builds it to the sink that ends its last sub-message, and a
// sink reassembles a reliable or striped frame into one (DESIGN.md §29).
// Unlike the gateway rings above, the sizes are mixed (a 37-byte ack batch, a
// 24-byte probe, an MTU-sized fragment or frame) and the taker and the
// returner are different nodes, so the free list belongs to the virtual
// channel, is split by size class, and keeps a ledger: at quiescence every
// buffer taken has been returned.

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
// Unsynchronized like bufPool: one simulation, one thread.
type wireBufPool struct {
	free     [][][]byte // by class, LIFO
	taken    int64
	returned int64
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

// pooled counts the buffers on the free lists.
func (bp *wireBufPool) pooled() int {
	n := 0
	for _, l := range bp.free {
		n += len(l)
	}
	return n
}
