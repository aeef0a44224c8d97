package mad

import (
	"fmt"

	"madgo/internal/vtime"
)

// decideCopy is the shared BMM policy for dynamic-buffer drivers: whether a
// block travels inside a copied aggregate or is sent by reference. It
// depends only on the flag pair, the block size and the driver caps, so the
// packer and the mirrored unpacker always agree.
func decideCopy(s SendMode, r RecvMode, size int, caps Caps) bool {
	switch s {
	case SendLater:
		return false
	case SendSafer:
		return true
	default: // SendCheaper: the library chooses
		return r == ReceiveExpress || size <= caps.CopyThreshold
	}
}

// Packing is an in-progress outgoing message (the state between
// BeginPacking and EndPacking).
type Packing struct {
	e       *Endpoint
	link    *Link
	kind    Kind
	sentAny bool
	ended   bool
	packer  packer
}

type packer interface {
	pack(p *vtime.Proc, data []byte, s SendMode, r RecvMode)
	end(p *vtime.Proc)
}

// BeginPacking starts a message to the node with rank to, acquiring the
// connection for the whole message. It mirrors mad_begin_packing.
func (e *Endpoint) BeginPacking(p *vtime.Proc, to Rank) *Packing {
	return e.BeginPackingKind(p, to, KindPlain)
}

// BeginPackingKind starts a message with an explicit kind note; the
// forwarding layer uses KindGTM for self-described messages.
func (e *Endpoint) BeginPackingKind(p *vtime.Proc, to Rank, kind Kind) *Packing {
	link := e.ch.Link(e.node.Rank, to)
	link.Acquire(p)
	px := &Packing{e: e, link: link, kind: kind}
	caps := e.ch.drv.Caps()
	switch {
	case caps.StaticBuffers && caps.MaxTransmission <= 0:
		panic("mad: static-buffer driver must set MaxTransmission (slot size)")
	case caps.StaticBuffers:
		px.packer = &staticPacker{px: px, caps: caps}
	case caps.AggregateLimit > 0:
		px.packer = &dynPacker{px: px, caps: caps}
	default:
		px.packer = &eagerPacker{px: px, caps: caps}
	}
	return px
}

// Pack appends one data block to the message with the given constraint
// flags. The block is referenced or copied according to the channel's BMM
// policy.
func (px *Packing) Pack(p *vtime.Proc, data []byte, s SendMode, r RecvMode) {
	if px.ended {
		panic("mad: Pack after EndPacking")
	}
	p.Sleep(px.e.node.Host.CPU.PackCost)
	px.packer.pack(p, data, s, r)
}

// EndPacking flushes and completes the message. When it returns, the whole
// message has been pushed to the receiving side (the paper's guarantee).
func (px *Packing) EndPacking(p *vtime.Proc) {
	if px.ended {
		panic("mad: double EndPacking")
	}
	px.packer.end(p)
	if !px.sentAny {
		// A message with no blocks still announces itself.
		px.emit(p, nil, nil, false)
	}
	px.ended = true
	px.link.Release(p)
}

// emit sends one transmission carrying the given blocks; owned says the
// packer never writes data or blocks again (TxMeta.Owned).
func (px *Packing) emit(p *vtime.Proc, blocks []BlockDesc, data []byte, owned bool) {
	meta := TxMeta{SOM: !px.sentAny, Kind: px.kind, Blocks: blocks, Owned: owned}
	px.sentAny = true
	px.link.Send(p, meta, data)
}

// emitReferenced sends a zero-copy block. When it would be the first
// transmission of the message and the link delivers it eagerly, a small
// announce goes ahead so the receiver can post its buffer in time; on
// rendezvous links the request itself plays that role.
func (px *Packing) emitReferenced(p *vtime.Proc, desc BlockDesc, data []byte) {
	if !px.sentAny {
		nic := px.link.NIC()
		if !(nic.RendezvousThreshold > 0 && len(data) > nic.RendezvousThreshold) {
			px.link.Send(p, TxMeta{SOM: true, Announce: true, Kind: px.kind}, nil)
			px.sentAny = true
		}
	}
	px.emit(p, []BlockDesc{desc}, data, false)
}

// dynPacker is the aggregating BMM for dynamic-buffer drivers: small,
// safer and express blocks are copied into an aggregation buffer; large
// cheaper/later blocks flush the aggregate and go by reference, fragmented
// at the TM MTU if one is set. The aggregate is a buffer of the channel's
// pool, taken at its first copied block and returned by its receiver
// (mirrorUnpacker); it flushes at the driver's AggregateLimit, whatever room
// its pool class has.
type dynPacker struct {
	px     *Packing
	caps   Caps
	agg    []byte
	blocks []BlockDesc
}

func (d *dynPacker) pack(p *vtime.Proc, data []byte, s SendMode, r RecvMode) {
	if decideCopy(s, r, len(data), d.caps) {
		d.packCopied(p, data, s, r)
		return
	}
	d.flush(p)
	ForEachFragment(len(data), d.caps.MaxTransmission, func(off, n int) {
		d.px.emitReferenced(p, BlockDesc{Size: n, S: s, R: r}, data[off:off+n])
	})
}

// packCopied moves the block into the aggregate, splitting across flushes
// when it does not fit. On scatter/gather NICs the "copy" is a gather-DMA
// descriptor: the bytes still coalesce on the wire, but the host CPU never
// touches them, so no copy is charged and the descriptor ring bounds the
// aggregate instead.
func (d *dynPacker) packCopied(p *vtime.Proc, data []byte, s SendMode, r RecvMode) {
	if len(data) == 0 {
		d.blocks = append(d.blocks, BlockDesc{Size: 0, S: s, R: r})
		return
	}
	for len(data) > 0 {
		if d.caps.ScatterGather && d.caps.GatherEntries > 0 && len(d.blocks) >= d.caps.GatherEntries {
			d.flush(p)
		}
		if len(d.agg) == d.caps.AggregateLimit {
			d.flush(p)
		}
		if d.agg == nil {
			d.agg = d.px.e.ch.pool.Get(d.caps.AggregateLimit)[:0]
		}
		n := min(len(data), d.caps.AggregateLimit-len(d.agg))
		if !d.caps.ScatterGather || s == SendSafer {
			// A gather descriptor is uncharged coalescing; SendSafer
			// still snapshots — the card reads the memory later
			// than Pack returns.
			d.px.e.node.Host.Memcpy(p, n)
		}
		d.agg = append(d.agg, data[:n]...)
		d.blocks = append(d.blocks, BlockDesc{Size: n, S: s, R: r})
		data = data[n:]
	}
}

func (d *dynPacker) flush(p *vtime.Proc) {
	if len(d.blocks) == 0 {
		return
	}
	// Fresh storage follows: the aggregate and its descriptors are never
	// written again, so they are handed over rather than copied at delivery
	// (a real TM rotates preallocated aggregates the same way).
	d.px.emit(p, d.blocks, d.agg, true)
	d.agg, d.blocks = nil, nil
}

func (d *dynPacker) end(p *vtime.Proc) { d.flush(p) }

// eagerPacker sends every block as its own transmission the moment it is
// packed; SendSafer still pays its snapshot copy.
type eagerPacker struct {
	px   *Packing
	caps Caps
}

func (d *eagerPacker) pack(p *vtime.Proc, data []byte, s SendMode, r RecvMode) {
	if s == SendSafer {
		d.px.e.node.Host.Memcpy(p, len(data))
		data = append([]byte(nil), data...)
	}
	ForEachFragment(len(data), d.caps.MaxTransmission, func(off, n int) {
		d.px.emitReferenced(p, BlockDesc{Size: n, S: s, R: r}, data[off:off+n])
	})
}

func (d *eagerPacker) end(p *vtime.Proc) {}

// staticPacker is the BMM for static-buffer drivers (SBP): every block is
// copied into driver-owned slots, which are transmitted when full.
type staticPacker struct {
	px     *Packing
	caps   Caps
	slot   []byte // the slot being filled, nil until a block needs one
	blocks []BlockDesc
}

func (d *staticPacker) pack(p *vtime.Proc, data []byte, s SendMode, r RecvMode) {
	if len(data) == 0 {
		d.ensureSlot()
		d.blocks = append(d.blocks, BlockDesc{Size: 0, S: s, R: r})
		return
	}
	for len(data) > 0 {
		if d.slot != nil && len(d.slot) == cap(d.slot) {
			d.flush(p)
		}
		d.ensureSlot()
		n := min(len(data), cap(d.slot)-len(d.slot))
		d.px.e.node.Host.Memcpy(p, n)
		d.slot = append(d.slot, data[:n]...)
		d.blocks = append(d.blocks, BlockDesc{Size: n, S: s, R: r})
		data = data[n:]
	}
}

func (d *staticPacker) ensureSlot() {
	if d.slot == nil {
		d.slot = d.px.e.ch.drv.AllocStatic(d.px.e.node.Host, d.caps.MaxTransmission)[:0]
	}
}

func (d *staticPacker) flush(p *vtime.Proc) {
	if len(d.blocks) == 0 {
		return
	}
	d.px.emit(p, d.blocks, d.slot, false)
	d.slot, d.blocks = nil, nil
}

func (d *staticPacker) end(p *vtime.Proc) { d.flush(p) }

// ForEachFragment invokes fn for each MTU-sized fragment of an n-byte
// block; an MTU of zero means a single fragment. A zero-length block still
// yields one empty fragment. The generic transmission module shares this
// fragmentation with the regular BMMs so both ends always agree on packet
// boundaries.
func ForEachFragment(n, mtu int, fn func(off, size int)) {
	if n == 0 {
		fn(0, 0)
		return
	}
	if mtu <= 0 {
		fn(0, n)
		return
	}
	for off := 0; off < n; off += mtu {
		size := n - off
		if size > mtu {
			size = mtu
		}
		fn(off, size)
	}
}

// Unpacking is an in-progress incoming message (the state between
// BeginUnpacking and EndUnpacking).
type Unpacking struct {
	e        *Endpoint
	link     *Link
	arrival  Arrival // a copy: the caller's note need not outlive Open
	ended    bool
	unpacker mirrorUnpacker
	pulled   bool
}

// BeginUnpacking blocks until any message arrives on this endpoint's
// channel and opens it. It mirrors mad_begin_unpacking.
func (e *Endpoint) BeginUnpacking(p *vtime.Proc) *Unpacking {
	a := e.NextArrival(p)
	return e.Open(p, &a)
}

// Open starts unpacking a specific announced message. The forwarding layer
// separates WaitArrival from Open so its polling threads can dispatch on the
// message kind first.
func (e *Endpoint) Open(p *vtime.Proc, a *Arrival) *Unpacking {
	a.Link.AcquireRecv(p)
	u := &Unpacking{e: e, link: a.Link, arrival: *a}
	if a.Meta.Announce {
		// Consume the header-only announce so the next receive posts
		// for the payload itself.
		meta, _ := a.Link.Recv(p)
		if !meta.Announce || len(meta.Blocks) != 0 {
			panic("mad: protocol error: announced message without announce transmission")
		}
		u.pulled = true
	}
	// One mirror suffices: it replays the packer's decisions from the
	// same inputs, whatever the packer flavour.
	u.unpacker = mirrorUnpacker{u: u, caps: e.ch.drv.Caps()}
	return u
}

// From returns the sender's rank.
func (u *Unpacking) From() Rank { return u.arrival.From() }

// Kind returns the message kind announced ahead of the body.
func (u *Unpacking) Kind() Kind { return u.arrival.Kind() }

// Unpack extracts the next block into dst. The flags and the block size
// must match the corresponding Pack call exactly — Madeleine messages are
// not self-described, and any divergence panics with a protocol error.
func (u *Unpacking) Unpack(p *vtime.Proc, dst []byte, s SendMode, r RecvMode) {
	if u.ended {
		panic("mad: Unpack after EndUnpacking")
	}
	p.Sleep(u.e.node.Host.CPU.PackCost)
	u.unpacker.unpack(p, dst, s, r)
	u.pulled = true
}

// EndUnpacking completes the message and releases the connection.
func (u *Unpacking) EndUnpacking(p *vtime.Proc) {
	if u.ended {
		panic("mad: double EndUnpacking")
	}
	u.unpacker.end(p)
	if !u.pulled {
		// Empty message: consume its announcement transmission.
		meta, _ := u.link.Recv(p)
		if len(meta.Blocks) != 0 {
			panic("mad: protocol error: empty unpacking of a non-empty message")
		}
	}
	u.ended = true
	u.link.ReleaseRecv(p)
}

// mirrorUnpacker replays the packer's BMM decisions: copied blocks are
// pulled out of aggregate transmissions (slot handoff plus a charged copy,
// the slot returned to the pool once drained), referenced blocks are
// received in place via posted receives.
type mirrorUnpacker struct {
	u    *Unpacking
	caps Caps

	// Current aggregate being consumed.
	cur    []byte
	blocks []BlockDesc
	idx    int
	off    int
}

func (m *mirrorUnpacker) unpack(p *vtime.Proc, dst []byte, s SendMode, r RecvMode) {
	// Eager-packer blocks (including safer snapshots) travel as their
	// own transmissions; so do referenced blocks of the aggregating BMM.
	if !m.caps.StaticBuffers && (m.caps.AggregateLimit == 0 || !decideCopy(s, r, len(dst), m.caps)) {
		m.unpackReferenced(p, dst, s, r)
		return
	}
	m.unpackCopied(p, dst, s, r)
}

func (m *mirrorUnpacker) unpackReferenced(p *vtime.Proc, dst []byte, s SendMode, r RecvMode) {
	if m.idx < len(m.blocks) {
		panic(fmt.Sprintf("mad: protocol error: aggregate has %d unconsumed blocks before a referenced block",
			len(m.blocks)-m.idx))
	}
	ForEachFragment(len(dst), m.caps.MaxTransmission, func(off, n int) {
		meta, got := m.u.link.RecvInto(p, dst[off:off+n])
		if len(meta.Blocks) != 1 {
			panic("mad: protocol error: expected single-block transmission")
		}
		m.check(meta.Blocks[0], BlockDesc{Size: n, S: s, R: r})
		if got != n {
			panic(fmt.Sprintf("mad: protocol error: fragment size %d, expected %d", got, n))
		}
	})
}

func (m *mirrorUnpacker) unpackCopied(p *vtime.Proc, dst []byte, s SendMode, r RecvMode) {
	if len(dst) == 0 {
		m.need(p)
		m.check(m.blocks[m.idx], BlockDesc{Size: 0, S: s, R: r})
		m.idx++
		m.finishAggregate()
		return
	}
	for len(dst) > 0 {
		m.need(p)
		desc := m.blocks[m.idx]
		m.check(desc, BlockDesc{Size: -1, S: s, R: r}) // fragment sizes vary; flags must match
		if desc.Size > len(dst) {
			panic(fmt.Sprintf("mad: protocol error: %d-byte fragment for %d-byte destination", desc.Size, len(dst)))
		}
		m.u.e.node.Host.Memcpy(p, desc.Size)
		copy(dst, m.cur[m.off:m.off+desc.Size])
		m.off += desc.Size
		m.idx++
		dst = dst[desc.Size:]
		m.finishAggregate()
	}
}

// need ensures an aggregate with unconsumed blocks is current.
func (m *mirrorUnpacker) need(p *vtime.Proc) {
	if m.idx < len(m.blocks) {
		return
	}
	meta, slot := m.u.link.Recv(p)
	if len(meta.Blocks) == 0 {
		panic("mad: protocol error: empty transmission inside a message")
	}
	m.cur, m.blocks, m.idx, m.off = slot, meta.Blocks, 0, 0
}

// finishAggregate resets state when the current aggregate is drained, and
// returns the slot it was handed to the channel's pool.
func (m *mirrorUnpacker) finishAggregate() {
	if m.idx == len(m.blocks) {
		m.u.e.ch.pool.Put(m.cur)
		m.cur, m.blocks, m.idx, m.off = nil, nil, 0, 0
	}
}

// check verifies a received descriptor against the mirrored expectation.
func (m *mirrorUnpacker) check(got, want BlockDesc) {
	if got.S != want.S || got.R != want.R || (want.Size >= 0 && got.Size != want.Size) {
		panic(fmt.Sprintf("mad: protocol error: packed %v, unpacked %v — blocks must be unpacked in pack order with matching flags", got, want))
	}
}

func (m *mirrorUnpacker) end(p *vtime.Proc) {
	if m.idx < len(m.blocks) {
		panic(fmt.Sprintf("mad: protocol error: EndUnpacking with %d unconsumed blocks", len(m.blocks)-m.idx))
	}
}

func (d BlockDesc) String() string {
	return fmt.Sprintf("{%dB %v %v}", d.Size, d.S, d.R)
}
