package fwd

import "madgo/internal/mad"

// Buffer pooling: one pool for every buffer the forwarding layer recycles —
// reliable datagrams, stream headers, eager, aggregate and multicast frames, a
// sink's reassembly buffers, a gateway's staging buffers and its own node's
// copy — owned by the virtual channel, split by size class and ledgered: at
// quiescence every buffer taken, and every transfer's descriptor pair, has
// been returned. Taker and returner may be different nodes; DESIGN.md §33
// has the table. Only an egress driver can make its static buffers (§2.3), so
// a gateway ring keeps a pool of the same type per egress network whose misses
// call the driver's AllocStatic, in the same ledger (RelBookkeeping).
//
// A returned buffer can be taken again at once. The link reads a streamed
// payload a WireLatency after Send returned, and a gateway returns a staging
// buffer a SwapOverhead after it, so Build rejects a streaming channel whose
// wire is slower than the buffer switch. Unsynchronized: one simulation, one
// thread.
//
// Framing records are reused too (records, below; DESIGN.md §43). End zeroes
// one and puts it back, for nothing refers to it once End returns —
// sendMessage holds the blocks until then, the coalescer copies a message into
// its frame in add, a stream's transfers carry nothing of it (streamTx) — and
// its generation stops a stale handle (Packing); a GTM record keeps its lists'
// storage (gtmPacking.retire, streamUnpacking.retire). The lists belong to one
// virtual channel.

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
	// pairs hold transfers' descriptors, by reference to the one receiver
	// that returns them (putPair): a LIFO of lists with room for two, or for
	// a compact multicast frame's header and blocks; onPutPair is onPut's twin.
	pairs                     [][]mad.BlockDesc
	pairsTaken, pairsReturned int64
	onPutPair                 func(pair []mad.BlockDesc)
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

// getPair returns an empty descriptor list with room for n: the one returned
// last, or a new one where that one has less room and is dropped.
func (bp *wireBufPool) getPair(n int) []mad.BlockDesc {
	bp.pairsTaken++
	if k := len(bp.pairs); k > 0 {
		pair := bp.pairs[k-1]
		bp.pairs = bp.pairs[:k-1]
		if cap(pair) >= n {
			return pair
		}
	}
	return make([]mad.BlockDesc, 0, max(n, 2))
}

// putPair returns the descriptors a transfer travelled in, taken with getPair.
func (bp *wireBufPool) putPair(pair []mad.BlockDesc) {
	bp.pairsReturned++
	if bp.onPutPair != nil {
		bp.onPutPair(pair[:cap(pair)])
	}
	bp.pairs = append(bp.pairs, pair[:0])
}

// tally adds the pool's ledger to s.
func (bp *wireBufPool) tally(s *RelBookkeeping) {
	s.BufsTaken += bp.taken
	s.BufsReturned += bp.returned
	s.BufsAllocated += bp.misses
	s.PairsTaken += bp.pairsTaken
	s.PairsReturned += bp.pairsReturned
	for _, l := range bp.free {
		s.BufsFree += len(l)
	}
}

// records are the free lists of framing records — plain and GTM at each end,
// and a coalesced sub-message's — zero on a list but for their generation and
// their lists' storage, and of held messages, which keep their storage too.
type records struct {
	gtmPacking      freeList[gtmPacking, *gtmPacking]
	plainPacking    freeList[plainPacking, *plainPacking]
	streamUnpacking freeList[streamUnpacking, *streamUnpacking]
	aggUnpacking    freeList[aggUnpacking, *aggUnpacking]
	plainUnpacking  freeList[plainUnpacking, *plainUnpacking]
	held            freeList[heldMsg, *heldMsg]
}

// freeList is a LIFO of spare objects of one kind, the one free list of the
// forwarding layer's records: framing records, a sink's frame records and a
// reliable engine's bookkeeping, chained through the spare each one embeds.
type freeList[T any, P interface {
	*T
	spareLink() **T
}] struct{ head *T }

// spare links a record to the one behind it on its freeList.
type spare[T any] struct{ nextSpare *T }

func (s *spare[T]) spareLink() **T { return &s.nextSpare }

// framingRec is a framing record's spare and generation, which outlives each
// of its messages (retire) to stop a stale handle.
type framingRec[T any] struct {
	spare[T]
	gen uint32
}

// get returns the object put last, as it was put, or a new one.
func (l *freeList[T, P]) get() *T {
	x := l.head
	if x == nil {
		return new(T)
	}
	l.head, *P(x).spareLink() = *P(x).spareLink(), nil
	return x
}

// put keeps an object nothing refers to any more.
func (l *freeList[T, P]) put(x *T) { *P(x).spareLink(), l.head = l.head, x }

// retire puts a framing record whose message has ended, zeroed but for its
// generation gen, on l.
func (l *freeList[T, P]) retire(x *T, gen *uint32) {
	g := *gen
	*x = *new(T)
	*gen = g
	l.put(x)
}
