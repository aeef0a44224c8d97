package mad

import (
	"fmt"

	"madgo/internal/fault"
	"madgo/internal/flight"
	"madgo/internal/fluid"
	"madgo/internal/hw"
	"madgo/internal/obs"
	"madgo/internal/vtime"
	"madgo/internal/vtime/vsync"
)

// Framing costs charged on the wire for every transmission: a fixed header
// plus a small descriptor per block.
const (
	txHeaderBytes  = 8
	blockDescBytes = 4
)

// BlockDesc describes one packed block inside a transmission: its size and
// the flag pair it was packed with. The receiving BMM verifies its mirrored
// expectations against these descriptors, turning pack/unpack mismatches
// into immediate errors instead of silent corruption.
type BlockDesc struct {
	Size int
	S    SendMode
	R    RecvMode
}

// TxMeta is the metadata of one transmission.
type TxMeta struct {
	// SOM marks the first transmission of a message; its delivery is
	// what BeginUnpacking waits for.
	SOM bool
	// Announce marks a header-only transmission sent ahead of a
	// referenced first block on an eager link, so the receiver can post
	// its destination before the payload streams in (rendezvous links
	// announce implicitly through their request).
	Announce bool
	// EOM marks a payload-free end-of-message terminator. The generic
	// transmission module closes every self-described message with one —
	// "to end a message, the sender sends the description of an empty
	// message" (§2.3).
	EOM bool
	// Kind is the message class, transmitted ahead of the body so the
	// receiver can pick the regular or generic decoding path.
	Kind Kind
	// Blocks describes the payload layout.
	Blocks []BlockDesc
	// Seq is the per-link sequence number (diagnostics; links are FIFO
	// by construction).
	Seq uint64
	// Reliable marks a transmission of the fwd reliability protocol: it
	// always takes the plain eager path (no rendezvous or post gating,
	// which would wedge a sender when the counterpart is lost) and it is
	// the only traffic the fault injector may drop, corrupt or stall —
	// unprotected traffic keeps the seed's exact behaviour. Blocks may be
	// left nil: the link then describes the payload as one SendCheaper /
	// ReceiveCheaper block in the transmission record, and Recv returns the
	// metadata without it. A reliable datagram is encoded afresh for every
	// transmission, so it is also Owned.
	Reliable bool
	// Owned says the sender never writes the payload, nor the block
	// descriptors, again: a frame built for this one transfer, a header in a
	// record that lives for one message or in a buffer passed on hop by hop, a
	// datagram, a driver slot a gateway received. Where the payload would land
	// in driver memory the link hands the buffer itself to the receiver instead
	// of copying it there; from then on it is the receiver's (RecvIntoSpent
	// returns it when the receive copies it out). Send reports, for a Reliable
	// transmission, whether the hand-over happened. Memory its sender goes on
	// using — the application's, a gateway's staging slots — is copied.
	Owned bool
}

func (m TxMeta) payloadBytes() int {
	n := 0
	for _, b := range m.Blocks {
		n += b.Size
	}
	return n
}

// wireBytes is the number of bytes the transmission occupies on the wire.
func (m TxMeta) wireBytes() int {
	return m.payloadBytes() + txHeaderBytes + blockDescBytes*len(m.Blocks)
}

// transmission is one in-flight unit on a link.
type transmission struct {
	meta    TxMeta
	payload []byte // sender-side reference
	slot    []byte // receiver-side driver memory (eager or ungranted data)

	rendezvous bool
	dataReady  bool
	credited   bool         // eager flow-control credit already returned
	announced  bool         // SOM arrival already notified (post-gated path)
	senderW    vtime.Waker  // sender waits here: for the rendezvous grant, or at the post gate
	recvW      *vtime.Waker // rendezvous: receiver waits for completion (its posted receive's waker)
	granted    *postedRecv

	// Fault verdicts, decided at send time so the injected randomness is
	// consumed in deterministic scheduler order. corruptAt < 0 means no
	// corruption.
	dropped   bool
	corruptAt int

	// selfDesc is the block descriptor of a Reliable datagram sent without
	// one; meta.Blocks then points here until the record is recycled.
	selfDesc [1]BlockDesc
}

// postedRecv is an outstanding posted receive on a link. dst == nil means
// the receiver wants a driver-slot handoff instead of in-place delivery.
// A link has at most one (its receiving side serves one process at a time),
// so the record is part of the Link and re-armed by every receive that has
// to wait.
type postedRecv struct {
	dst    []byte
	w      vtime.Waker // the receiving process parks here
	tx     *transmission
	placed bool // payload went straight into dst with no CPU copy
	armed  bool // a receive is waiting on this record
}

// wireEvent is one thing due at the receiver a wire latency after it was
// queued: a transmission (or rendezvous request) to deliver, or the
// completion of a granted rendezvous to signal.
type wireEvent struct {
	tx       *transmission
	complete bool
}

// wireQueue is the FIFO of a link's pending wire events, a ring that grows
// to the link's high-water mark and then allocates no more.
type wireQueue struct {
	buf     []wireEvent // len is zero or a power of two
	head, n int
}

func (q *wireQueue) push(ev wireEvent) {
	if q.n == len(q.buf) {
		grown := make([]wireEvent, max(4, 2*len(q.buf)))
		for i := 0; i < q.n; i++ {
			grown[i] = q.buf[(q.head+i)&(len(q.buf)-1)]
		}
		q.buf, q.head = grown, 0
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = ev
	q.n++
}

func (q *wireQueue) pop() wireEvent {
	ev := q.buf[q.head]
	q.buf[q.head] = wireEvent{}
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return ev
}

// Link is one unidirectional point-to-point connection of a channel. The
// engine implements the two delivery disciplines every modelled protocol
// uses:
//
//   - eager: the sender streams immediately; data lands in driver memory
//     unless a receive was already posted, in which case the NIC places it
//     directly (zero copy).
//   - rendezvous (large messages on Myrinet/BIP): the sender announces the
//     message and waits for the receiver, then streams straight into the
//     posted destination.
type Link struct {
	Channel *Channel
	Src     *Node
	Dst     *Node

	drv     Driver
	nic     hw.NICParams
	wire    *fluid.Resource
	mailbox *vsync.Chan[*transmission]
	posted  *postedRecv    // &recv while a receive is posted and unmatched, else nil
	recv    postedRecv     // the link's one posted-receive record
	gated   []*vtime.Waker // senders waiting for a posted receive
	credits *vsync.Sem     // eager flow-control window (nil = unlimited)
	msgMu   vsync.Mutex    // serializes whole messages on the sending side
	recvMu  vsync.Mutex    // serializes whole messages on the receiving side
	seq     uint64
	flRing  *flight.Ring // cached flight ring; nil until a recorder is armed

	// Constants of the link, built once: what every Send would otherwise
	// format and allocate anew.
	flowName string       // fluid.Spec name of the link's transfers
	route    [3]fluid.Hop // sender bus → wire → receiver bus

	// The link's send accounting and the handle of its {net, node} latency
	// series (BindMetrics); the counters' series sum every link of the node.
	sends, sendBytes obs.Counter
	sendSeconds      *obs.Histogram

	// Wire events leave in the order they were queued — the wire latency
	// is one constant per link — so one callback, bound once, serves them
	// all from a FIFO instead of a closure per transmission.
	inflight wireQueue
	onWire   func()

	// Transmissions the receiver has taken the payload out of, for the
	// next Send. Grows on demand.
	txFree []*transmission
}

func newLink(ch *Channel, src, dst *Node) *Link {
	nic := ch.drv.NIC()
	name := fmt.Sprintf("%s:%s->%s", ch.Name, src.Name, dst.Name)
	l := &Link{
		Channel: ch,
		Src:     src,
		Dst:     dst,
		drv:     ch.drv,
		nic:     nic,
		wire:    ch.net.Wire(src.Name, dst.Name),
		mailbox: vsync.NewChan[*transmission]("mbox:"+name, 4096),

		flowName: name,
	}
	l.route = [3]fluid.Hop{
		{R: src.Host.Bus, Class: nic.SendBusClass},
		{R: l.wire, Class: fluid.ClassWire},
		{R: dst.Host.Bus, Class: nic.RecvBusClass},
	}
	l.onWire = l.wireArrival
	if nic.EagerCredits > 0 {
		l.credits = vsync.NewSem(nic.EagerCredits)
	}
	src.Session.Platform.Instrument(l)
	return l
}

func (l *Link) sim() *vtime.Sim       { return l.Src.Session.Platform.Sim }
func (l *Link) engine() *fluid.Engine { return l.Src.Session.Platform.Engine }

// Acquire locks the link for one whole message; Release unlocks it.
// Packing and the generic transmission module bracket their messages with
// these so transmissions of different messages never interleave on a link.
func (l *Link) Acquire(p *vtime.Proc) { l.msgMu.Lock(p) }

// Release unlocks the link after a message.
func (l *Link) Release(p *vtime.Proc) { l.msgMu.Unlock(p) }

// AcquireRecv locks the receiving side of the link for one whole message;
// ReleaseRecv unlocks it. Unpacking brackets messages with these so two
// receiver processes on one node cannot interleave receives of consecutive
// messages from the same sender.
func (l *Link) AcquireRecv(p *vtime.Proc) { l.recvMu.Lock(p) }

// ReleaseRecv unlocks the receiving side after a message.
func (l *Link) ReleaseRecv(p *vtime.Proc) { l.recvMu.Unlock(p) }

// faults returns the platform's armed fault injector (nil when fault
// injection is off).
func (l *Link) faults() *fault.Injector { return l.Src.Session.Platform.Faults }

// BindMetrics binds the link's metrics in m.
func (l *Link) BindMetrics(m *obs.Registry) {
	labels := obs.Labels{"net": l.Channel.net.Name, "node": l.Src.Name}
	m.BindCounter(&l.sends, "madgo_link_sends_total", labels)
	m.BindCounter(&l.sendBytes, "madgo_link_send_bytes_total", labels)
	l.sendSeconds = m.BindHistogram("madgo_link_send_seconds", labels)
}

// flight returns the source node's flight-recorder ring, looked up lazily
// so a recorder armed after the link was built is still picked up; once
// resolved the ring is cached (nil rings record nothing either way).
func (l *Link) flight() *flight.Ring {
	if l.flRing == nil {
		l.flRing = l.Src.Session.Platform.FlightRing(l.Src.Name)
	}
	return l.flRing
}

// flow charges the transfer over sender bus → wire → receiver bus. It
// reports false when a fault window cancelled the flow mid-transfer.
func (l *Link) flow(p *vtime.Proc, wireBytes, payloadLen int) bool {
	demand := l.nic.EffectiveSendRate(payloadLen)
	if l.nic.RecvEngineRate < demand {
		demand = l.nic.RecvEngineRate
	}
	_, ok := l.engine().TransferOK(p, fluid.Spec{
		Name:   l.flowName,
		Class:  l.nic.SendBusClass,
		Demand: demand,
		Bytes:  int64(wireBytes),
		Route:  l.route[:],
	})
	return ok
}

// onTheWire queues ev for the receiver one wire latency from now.
func (l *Link) onTheWire(ev wireEvent) {
	l.inflight.push(ev)
	l.sim().After(l.nic.WireLatency, l.onWire)
}

// wireArrival runs in scheduler context when the oldest wire event is due.
func (l *Link) wireArrival() {
	ev := l.inflight.pop()
	if ev.complete {
		ev.tx.recvW.Wake()
		return
	}
	l.deliver(ev.tx)
}

// newTx takes a transmission record off the free list, or allocates one.
func (l *Link) newTx(meta TxMeta, data []byte) *transmission {
	var tx *transmission
	if n := len(l.txFree); n > 0 {
		tx, l.txFree = l.txFree[n-1], l.txFree[:n-1]
	} else {
		tx = new(transmission)
	}
	*tx = transmission{meta: meta, payload: data, corruptAt: -1}
	return tx
}

// recycle returns a transmission nobody refers to any more: the sender let
// go of it when it queued the last wire event, and the receiver has copied
// the metadata and the payload reference out (Recv, RecvInto) — or the
// packet was lost before it reached the wire. The metadata's block
// descriptors and the payload belong to the caller of Send (or, handed over
// with an Owned transmission, now to the receiver), not to the record, so what
// Recv returned stays valid; handOver strips the one descriptor that is the
// record's own.
func (l *Link) recycle(tx *transmission) {
	*tx = transmission{}
	l.txFree = append(l.txFree, tx)
}

// Send transmits data as one transmission. It blocks until the sending NIC
// has pushed the last byte (and, on the rendezvous path, until the receiver
// had posted). The data slice is referenced, not copied; the BMM layer has
// already made any copies its policy requires.
//
// It reports whether the transmission is on its way to the receiver. False
// only for a Reliable transmission the fault injector dropped or cancelled:
// the buffer was not handed over and is still the caller's.
func (l *Link) Send(p *vtime.Proc, meta TxMeta, data []byte) bool {
	l.sends.Add(1)
	l.sendBytes.Add(int64(len(data)))
	t0 := p.Now()
	sent := l.send(p, meta, data)
	l.sendSeconds.ObserveDuration(vtime.Since(p.Now(), t0))
	l.flight().Record(flight.KindWire, p.Now(), vtime.Since(p.Now(), t0), 0, len(data), l.Channel.net.Name)
	return sent
}

// send is the uninstrumented transmission path behind Send.
func (l *Link) send(p *vtime.Proc, meta TxMeta, data []byte) bool {
	l.seq++
	meta.Seq = l.seq
	tx := l.newTx(meta, data)
	if meta.Reliable && meta.Blocks == nil {
		tx.selfDesc[0] = BlockDesc{Size: len(data), S: SendCheaper, R: ReceiveCheaper}
		tx.meta.Blocks = tx.selfDesc[:]
	} else if got := meta.payloadBytes(); got != len(data) {
		panic(fmt.Sprintf("mad: block descriptors say %d bytes, payload has %d", got, len(data)))
	}

	if meta.Reliable {
		if inj := l.faults(); inj != nil {
			if d := inj.StallDelay(l.Src.Name, p.Now()); d > 0 {
				p.Sleep(d)
			}
		}
	}
	p.Sleep(l.nic.SendOverhead)
	l.drv.OnSend(p, l.Src.Host, len(data))
	l.judge(p, tx)

	if !meta.Reliable && l.nic.RendezvousThreshold > 0 && len(data) > l.nic.RendezvousThreshold {
		l.sendRendezvous(p, tx)
		return true
	}
	if !meta.Reliable && l.nic.PostGateThreshold > 0 && len(data) > l.nic.PostGateThreshold {
		// Post-gated eager path: large payloads stream straight into a
		// buffer the receiver has exposed; the sender waits (cheaply)
		// until one is there. The message is announced first so the
		// receiver knows to post.
		tx.credited = true // gating replaces the ring credit
		if tx.meta.SOM && !tx.meta.Announce {
			l.notifyArrival(tx)
			tx.announced = true
		}
		if l.posted == nil {
			p.InitBlocker(&tx.senderW, "posted gate", l.Channel.Name)
			l.gated = append(l.gated, &tx.senderW)
			tx.senderW.Wait()
		}
		l.flow(p, tx.meta.wireBytes(), len(data))
		l.onTheWire(wireEvent{tx: tx})
		return true
	}
	// Ring eager path: take a flow-control credit (a free ring slot on
	// the receiving side), stream, deliver after the wire latency. The
	// credit returns when the transmission reaches the receiver's hands.
	if l.credits != nil {
		l.credits.Acquire(p, 1)
	}
	ok := l.flow(p, tx.meta.wireBytes(), len(data))
	if tx.meta.Reliable && (tx.dropped || !ok) {
		// The packet never reaches the receiver: a drop verdict, or a
		// fault window cancelled the flow mid-transfer. The credit is
		// returned (the slot was never consumed on the far side) and
		// the sender's retry machinery takes over.
		l.releaseCredit(tx)
		l.recycle(tx)
		return false
	}
	l.onTheWire(wireEvent{tx: tx})
	return true
}

// judge draws the fault verdicts for a reliable transmission at send time,
// so the injector's randomness is consumed in deterministic scheduler order
// regardless of how delivery later interleaves.
func (l *Link) judge(p *vtime.Proc, tx *transmission) {
	if !tx.meta.Reliable {
		return
	}
	inj := l.faults()
	if inj == nil {
		return
	}
	v, pos := inj.Packet(l.Channel.net.Name, l.Src.Name, l.Dst.Name, p.Now(), len(tx.payload))
	switch v {
	case fault.DropPacket:
		tx.dropped = true
	case fault.CorruptPacket:
		tx.corruptAt = pos
	}
}

// applyCorruption flips one byte of the receiver-side memory when the
// send-time verdict said so. Only what the receiver sees is damaged — a
// handed-over datagram is no longer the sender's, and its retransmission is
// encoded afresh from a source the link never touches — like a wire-level
// bit error.
func applyCorruption(buf []byte, tx *transmission) {
	if tx.meta.Reliable && tx.corruptAt >= 0 && len(buf) > 0 {
		buf[tx.corruptAt%len(buf)] ^= 0xA5
	}
}

func (l *Link) sendRendezvous(p *vtime.Proc, tx *transmission) {
	tx.rendezvous = true
	p.InitBlocker(&tx.senderW, "rendezvous grant", "")
	l.onTheWire(wireEvent{tx: tx})
	tx.senderW.Wait()
	p.Sleep(l.nic.RendezvousCost)
	l.flow(p, tx.meta.wireBytes(), len(tx.payload))
	// The NIC streams straight into the posted destination; only an
	// ungranted (slot) receive needs driver memory.
	if g := tx.granted; g != nil && g.dst != nil {
		l.place(g, tx.payload)
	} else {
		tx.slot = landed(tx)
	}
	tx.dataReady = true
	l.onTheWire(wireEvent{tx: tx, complete: true})
}

// place puts payload into a posted destination without a CPU copy (the NIC
// wrote it there).
func (l *Link) place(g *postedRecv, payload []byte) {
	if len(payload) > len(g.dst) {
		panic(fmt.Sprintf("mad: posted receive of %d bytes for %d-byte transmission on %s",
			len(g.dst), len(payload), l.Channel.Name))
	}
	copy(g.dst, payload)
	g.placed = true
}

// snapshot copies payload into fresh driver memory; it models the NIC
// writing into protocol-owned buffers, so it charges no CPU time.
func snapshot(payload []byte) []byte {
	return append([]byte(nil), payload...)
}

// landed is the receiver-side memory of a transmission that found no posted
// destination to be placed in. An Owned payload is handed over as it is:
// same bytes, no copy, and from here on the receiver's. Any other is memory
// its sender goes on using, so it is copied into driver memory.
func landed(tx *transmission) []byte {
	if tx.meta.Owned {
		return tx.payload
	}
	return snapshot(tx.payload)
}

// deliver runs in scheduler context when a transmission (or rendezvous
// request) becomes visible at the receiver.
func (l *Link) deliver(tx *transmission) {
	if g := l.posted; g != nil {
		l.posted = nil
		g.tx = tx
		if tx.rendezvous && !tx.dataReady {
			// Grant: the receiver keeps waiting on its own waker,
			// which the sender fires after streaming.
			tx.granted = g
			tx.recvW = &g.w
			tx.senderW.Wake()
		} else {
			if g.dst != nil && !l.nic.StaticBuffers {
				l.place(g, tx.payload)
				applyCorruption(g.dst[:len(tx.payload)], tx)
			} else {
				// A static-buffer NIC can only land data in its
				// own slots; the posted receiver pays the copy
				// out — the unavoidable copy of §2.3 when both
				// gateway sides are static.
				tx.slot = landed(tx)
				applyCorruption(tx.slot, tx)
			}
			l.releaseCredit(tx)
			g.w.Wake()
		}
		l.notifyArrival(tx)
		tx.announced = true
		return
	}
	if !tx.rendezvous {
		tx.slot = landed(tx)
		applyCorruption(tx.slot, tx)
		tx.dataReady = true
	}
	if !l.mailbox.TrySend(tx) {
		panic("mad: link mailbox overflow on " + l.Channel.Name)
	}
	l.notifyArrival(tx)
	tx.announced = true
}

func (l *Link) notifyArrival(tx *transmission) {
	if tx.meta.SOM && !tx.announced {
		l.Channel.notifyArrival(l, tx.handOver())
	}
}

// Recv delivers the next transmission as driver-owned memory (slot
// handoff): no CPU copy is charged, but the caller must copy the payload
// out before reusing it across messages. The mirrored BMMs use this for
// aggregates; the gateway uses it when the egress side can send from the
// ingress slot.
func (l *Link) Recv(p *vtime.Proc) (TxMeta, []byte) {
	tx := l.receive(p, nil)
	l.drv.OnRecv(p, l.Dst.Host, len(tx.slot))
	l.releaseCredit(tx)
	meta, slot := tx.handOver(), tx.slot
	l.recycle(tx)
	return meta, slot
}

// handOver is the metadata a receive returns once the record is recycled:
// the caller's block descriptors stay valid, the record's own do not.
func (tx *transmission) handOver() TxMeta {
	meta := tx.meta
	if len(meta.Blocks) == 1 && &meta.Blocks[0] == &tx.selfDesc[0] {
		meta.Blocks = nil
	}
	return meta
}

// RecvInto delivers the next transmission's payload into dst. If the
// receive was posted before the data arrived — the pipelined common case —
// the NIC places it directly and no CPU copy is charged; a late post pays a
// memcpy out of driver memory, exactly the copy the paper's zero-copy
// machinery exists to avoid. It returns the transmission metadata and the
// payload size.
func (l *Link) RecvInto(p *vtime.Proc, dst []byte) (TxMeta, int) {
	meta, n, _ := l.RecvIntoSpent(p, dst)
	return meta, n
}

// RecvIntoSpent is RecvInto, charged the same, that also returns the Owned
// payload the copy into dst emptied — the sender's buffer, landed as it was
// or read by the NIC's placement — which is the receiver's from here on, to
// send on or to recycle. It is nil when the transmission was not Owned.
func (l *Link) RecvIntoSpent(p *vtime.Proc, dst []byte) (meta TxMeta, n int, spent []byte) {
	tx := l.receive(p, dst)
	n = tx.meta.payloadBytes()
	if tx.slot != nil && !tx.rendezvous {
		// Data was already in driver memory: charged copy.
		if len(dst) < n {
			panic("mad: posted buffer too small")
		}
		l.Dst.Host.Memcpy(p, n)
		copy(dst, tx.slot)
	} else if tx.slot != nil && tx.granted != nil && tx.granted.dst == nil {
		panic("mad: rendezvous slot delivery on RecvInto path")
	}
	l.drv.OnRecv(p, l.Dst.Host, n)
	l.releaseCredit(tx)
	if tx.meta.Owned {
		// Landed, the slot is this very buffer (landed); placed, the NIC
		// read it.
		spent = tx.payload
	}
	meta = tx.handOver()
	l.recycle(tx)
	return meta, n, spent
}

// releaseCredit returns the eager flow-control credit once a transmission
// has reached the receiver's hands — either delivered into a posted buffer
// or popped out of driver memory. Releasing at hand-off (not at unpack
// completion) is what lets a pipelined receiver keep the sender streaming
// with zero copies, like the exposed ring buffers of the real SISCI module.
func (l *Link) releaseCredit(tx *transmission) {
	if l.credits != nil && !tx.rendezvous && !tx.credited {
		tx.credited = true
		l.credits.Release(1)
	}
}

// receive implements the shared blocking logic of Recv/RecvInto.
func (l *Link) receive(p *vtime.Proc, dst []byte) *transmission {
	p.Sleep(l.nic.RecvOverhead)
	if tx, ok := l.mailbox.TryRecv(); ok {
		if tx.rendezvous && !tx.dataReady {
			// Grant a queued rendezvous request.
			g := l.arm(p, dst, "rendezvous data", "")
			tx.granted = g
			tx.recvW = &g.w
			tx.senderW.Wake()
			g.w.Wait()
			g.armed = false
			if dst != nil && !g.placed {
				panic("mad: rendezvous completion did not place payload")
			}
		}
		return tx
	}
	g := l.arm(p, dst, "link recv", l.Channel.Name)
	l.posted = g
	if len(l.gated) > 0 {
		w := l.gated[0]
		l.gated = l.gated[:copy(l.gated, l.gated[1:])]
		w.Wake()
	}
	g.w.Wait()
	g.armed = false
	return g.tx
}

// arm readies the link's posted-receive record for a receive by p that has
// to wait. Two processes receiving on one link at once would share it:
// callers serialize with AcquireRecv, and a second arm panics rather than
// clobber the first receiver's record.
func (l *Link) arm(p *vtime.Proc, dst []byte, reason, subject string) *postedRecv {
	g := &l.recv
	if g.armed {
		panic("mad: concurrent receives on link " + l.flowName + " (bracket them with AcquireRecv)")
	}
	*g = postedRecv{dst: dst, armed: true}
	p.InitBlocker(&g.w, reason, subject)
	return g
}

// TryRecvReady reports whether a transmission is already waiting (used by
// non-blocking polls).
func (l *Link) TryRecvReady() bool { return l.mailbox.Len() > 0 }

// NIC returns the link's NIC model (used by the forwarding layer to pick
// fragment sizes).
func (l *Link) NIC() hw.NICParams { return l.nic }
