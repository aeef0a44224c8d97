package mad

import "madgo/internal/hw"

// Pool is the one owner of the byte buffers transfers travel in, from the
// driver memory a transfer lands in (Link.landed) to the last holder of what a
// receive handed over: landing slots, aggregates, and everything a forwarding
// layer recycles — datagrams, headers, frames, reassembly and staging buffers.
// A channel draws from the pool it was made with: a forwarding layer's
// channels share one, a bare channel uses its session's. Buffers are split by
// size class and ledgered: at quiescence every buffer taken, and every
// transfer's descriptor pair, has been returned; taker and returner may be
// different nodes (DESIGN.md §33). A driver's static buffers on one host are a
// class of their own (Static). A returned buffer can be taken again at once:
// a link reads a streamed payload a WireLatency after Send returned, and a
// gateway returns a staging buffer a SwapOverhead after it, so a forwarding
// layer refuses a streaming channel whose wire is slower than the buffer
// switch. Unsynchronized: one simulation, one thread. The zero value is ready
// to use.
type Pool struct {
	own    Class // the pool's own memory
	static []*Class
	// Buffers taken and returned, and gets no free buffer could serve: the
	// buffers allocated.
	taken, returned, misses int64
	// OnPut, when set, sees every returned buffer at full capacity before
	// it is pooled. Only tests set it, to poison the memory so that a read
	// through a stale alias fails loudly.
	OnPut func(buf []byte)
	// pairs hold transfers' descriptors, by reference to the one receiver
	// that returns them (PutPair): a LIFO of lists with room for two, or for
	// a compact multicast frame's header and blocks; OnPutPair is OnPut's twin.
	pairs                     [][]BlockDesc
	pairsTaken, pairsReturned int64
	OnPutPair                 func(pair []BlockDesc)
}

// Class is a pool's free lists of one kind of memory, by size class, LIFO:
// the pool's own, or one driver's static buffers on one host, whose misses
// call the driver's AllocStatic and which stay with the host that made them.
type Class struct {
	free [][][]byte
	pool *Pool
	drv  Driver // nil for the pool's own memory
	host *hw.Host
}

const (
	bufMinShift = 6  // smallest class: 64 bytes
	bufPageBits = 12 // classes are powers of two up to a 4 KiB page, whole pages above
	bufPage     = 1 << bufPageBits
)

// bufClass returns the free list a buffer of n bytes belongs to and the
// capacity of that list's buffers. A capacity maps to its own class.
func bufClass(n int) (class, size int) {
	if n <= bufPage {
		shift := bufMinShift
		for 1<<shift < n {
			shift++
		}
		return shift - bufMinShift, 1 << shift
	}
	pages := (n + bufPage - 1) >> bufPageBits
	return bufPageBits - bufMinShift + pages - 1, pages << bufPageBits
}

// Get returns a buffer of the pool's own memory (Class.Get).
func (bp *Pool) Get(n int) []byte { return bp.get(&bp.own, n) }

// Put returns a buffer taken with Get (Class.Put).
func (bp *Pool) Put(b []byte) { bp.put(&bp.own, b) }

// Static returns the class of drv's static buffers on h, made on first use.
func (bp *Pool) Static(drv Driver, h *hw.Host) *Class {
	for _, c := range bp.static {
		if c.drv == drv && c.host == h {
			return c
		}
	}
	c := &Class{pool: bp, drv: drv, host: h}
	bp.static = append(bp.static, c)
	return c
}

// Get returns a buffer of length n whose content is unspecified: the last one
// returned to the smallest size class that fits n and has one free. A buffer
// borrowed from a larger size class goes back to its own, so concurrent
// bursts of mixed sizes share one set of buffers instead of warming a set per
// size.
func (c *Class) Get(n int) []byte { return c.pool.get(c, n) }

// Put returns a buffer taken with Get; the caller keeps no alias into it.
// Nil is ignored, so a packet that never had a buffer (one this node
// originated) is released like any other.
func (c *Class) Put(b []byte) { c.pool.put(c, b) }

func (bp *Pool) get(c *Class, n int) []byte {
	bp.taken++
	class, size := bufClass(n)
	for k := class; k < len(c.free); k++ {
		if l := c.free[k]; len(l) > 0 {
			b := l[len(l)-1]
			l[len(l)-1] = nil
			c.free[k] = l[:len(l)-1]
			return b[:n]
		}
	}
	bp.misses++
	if c.drv != nil {
		return c.drv.AllocStatic(c.host, size)[:n]
	}
	return make([]byte, n, size)
}

func (bp *Pool) put(c *Class, b []byte) {
	if b == nil {
		return
	}
	class, size := bufClass(cap(b))
	if size != cap(b) {
		panic("mad: buffer returned to the pool was not taken from it")
	}
	bp.returned++
	b = b[:size]
	if bp.OnPut != nil {
		bp.OnPut(b)
	}
	for class >= len(c.free) {
		c.free = append(c.free, nil)
	}
	c.free[class] = append(c.free[class], b)
}

// GetPair returns an empty descriptor list with room for n: the one returned
// last, or a new one where that one has less room and is dropped.
func (bp *Pool) GetPair(n int) []BlockDesc {
	bp.pairsTaken++
	if k := len(bp.pairs); k > 0 {
		pair := bp.pairs[k-1]
		bp.pairs = bp.pairs[:k-1]
		if cap(pair) >= n {
			return pair
		}
	}
	return make([]BlockDesc, 0, max(n, 2))
}

// PutPair returns the descriptors a transfer travelled in, taken with GetPair.
func (bp *Pool) PutPair(pair []BlockDesc) {
	bp.pairsReturned++
	if bp.OnPutPair != nil {
		bp.OnPutPair(pair[:cap(pair)])
	}
	bp.pairs = append(bp.pairs, pair[:0])
}

// Ledger is a pool's account, its static classes included.
type Ledger struct {
	// BufsTaken and BufsReturned are how many buffers were taken and how
	// many came back. Equal on a quiesced run — a difference is a leaked (or
	// twice-returned) buffer. BufsFree is how many sit on the free lists,
	// BufsAllocated how many the pool ever made.
	BufsTaken, BufsReturned, BufsAllocated int64
	BufsFree                               int
	// PairsTaken and PairsReturned are the same ledger for the descriptor
	// pairs transfers travel with: each has one receiver, which returns it.
	PairsTaken, PairsReturned int64
}

// Ledger returns the pool's account.
func (bp *Pool) Ledger() Ledger {
	l := Ledger{BufsTaken: bp.taken, BufsReturned: bp.returned, BufsAllocated: bp.misses,
		PairsTaken: bp.pairsTaken, PairsReturned: bp.pairsReturned}
	count := func(c *Class) {
		for _, f := range c.free {
			l.BufsFree += len(f)
		}
	}
	count(&bp.own)
	for _, c := range bp.static {
		count(c)
	}
	return l
}
