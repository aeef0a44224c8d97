package fwd

// Multi-rail striping: one message transmitted in parallel over several
// link-disjoint routes ("rails") between the same node pair.
//
// The virtual channel of §2.2.1 bundles one real channel per network, but
// the paper's send path only ever *selects* one of them; on a configuration
// with both SCI and Myrinet between two clusters the second network idles.
// Striping splits one large message across up to K rails found by
// route.ComputeK, rate-proportionally: each rail carries a contiguous share of
// the message — bytes when streaming, whole packets in reliable mode — in
// proportion to the rail's static bottleneck bandwidth, the narrowest NIC rate
// along it. The configuration is static (§2.3), and so is the split. Both
// modes plan it in one place (planStripe) and find a pair's rails on its first
// send. A streaming message is the one GTM sender record (gtmPacking) with its
// rails and their split, and runs its rails on a crew of parked daemons
// (runRails); a reliable rail is only a first hop: each rail's run is a burst
// pinned to it (queueRails), which re-routes like any other once it dies.
//
// On the wire each rail is an ordinary self-described GTM-style stream with
// Kind KindStripe and an extended 48-byte header naming the rail, the rail
// count, the rail's byte span and the message's total size. Gateways relay
// a KindStripe stream exactly like a KindGTM one (they parse only the
// leading GTM fields they already understand and stay oblivious to the
// scheduling). The final receiver reads a striped message as it reads any
// stream, with the one GTM receiver record (streamUnpacking) holding a
// stream reader a rail, each with its span: the record comes off the free
// list at the message's first rail and collects the rails of its (origin, id)
// pair; each block's receives are posted directly into the application buffer
// at the offsets the spans dictate — concurrent rails land in place, out of
// order, with zero extra copies — and the message completes when every rail's
// span has been consumed. The rails a block overlaps are read at once, on the
// receiver's crew: a receive posted late would pay a copy, and data waiting
// for one holds its link's window.
//
// Fragment placement is fully deterministic on both sides: rail r covers
// span [start, start+len) of the flattened message; within each packed
// block's flat range the rail sends the overlap, fragmented at the rail's
// own path MTU, never crossing a block boundary. The receiver mirrors the
// same arithmetic from the header fields alone, so no per-fragment offsets
// travel on the wire.
//
// Whether a message stripes is decided in one place, sendBuffered
// (vchannel.go), for streaming and reliable messages and aggregate frames
// alike: a message of a pair with two rails or more that reaches
// DefaultStripeThreshold takes the rails. Any other message of such a pair
// streams down the table route's first hop, or in reliable mode rides whole
// the rail with the fewest bytes scheduled on it for its rate
// (leastLoadedRail), so a pair's small messages load its rails evenly too.

import (
	"fmt"
	"slices"
	"strconv"

	"madgo/internal/flight"
	"madgo/internal/mad"
	"madgo/internal/obs"
	"madgo/internal/route"
	"madgo/internal/vtime"
	"madgo/internal/vtime/vsync"
)

// DefaultStripeThreshold is the message size below which striping is not
// attempted: small messages finish within a rail's pipeline fill time, so
// splitting them only adds per-rail header and reassembly overhead. Such a
// message goes down one rail whole: the table route's when streaming, the
// least-loaded one in reliable mode. It is a constant, not an option: the
// paper configures its network statically (§2.3).
const DefaultStripeThreshold = 16 * 1024

// computeSpans partitions total bytes into len(rates) contiguous span
// lengths proportional to rates, written into spans (len(spans) must equal
// len(rates); the caller owns the slice, so steady-state scheduling does
// not allocate). Cumulative rounding keeps the result deterministic and
// exactly summing to total; non-positive rates are treated as equal shares.
func computeSpans(total int64, rates []float64, spans []int64) {
	if len(spans) != len(rates) {
		panic("fwd: computeSpans slice length mismatch")
	}
	sum := 0.0
	for _, r := range rates {
		if r > 0 {
			sum += r
		}
	}
	if sum <= 0 {
		// Degenerate: equal split.
		n := int64(len(rates))
		for i := range spans {
			spans[i] = total / n
		}
		spans[0] += total - (total/n)*n
		return
	}
	acc := 0.0
	prev := int64(0)
	for i, r := range rates {
		if r > 0 {
			acc += r
		}
		cut := min(int64(float64(total)*(acc/sum)+0.5), total)
		if i == len(rates)-1 {
			cut = total
		}
		spans[i] = cut - prev
		prev = cut
	}
}

// railKey identifies one rail of one ordered node pair.
type railKey struct {
	src, dst string
	rail     int
}

// stripeState is the virtual channel's striping bookkeeping, allocated only
// when Config.StripeK > 1.
type stripeState struct {
	// kroutes caches route.ComputeK per ordered pair, computed on the pair's
	// first send. Routes are static unless a health monitor is armed, in which
	// case the cache is tagged with the routing epoch it was computed under
	// and invalidated wholesale on epoch change (see stripeRoutes).
	kroutes map[[2]string][]route.Route
	// epoch is the health monitor's routing epoch kroutes was built under
	// (0 = static, no monitor).
	epoch uint64
	// netRate is the static bottleneck bandwidth of each network
	// (bytes/s), from the bound NIC models.
	netRate map[string]float64
	// rails is the per-(pair, rail) state, created by the rail's first use.
	rails map[railKey]*railState
	// lastFrac remembers the previous quota fractions per pair so a
	// changed split can be counted as a rebalance.
	lastFrac map[[2]string][]float64
	// rx holds the striped messages still collecting rails, by origin and
	// id: a message has one destination, which each rail's open checks.
	rx map[relMsgKey]*streamUnpacking
	// crews are each node's idle streaming rail crews (runRails).
	crews map[mad.Rank][]*railCrew

	// The channel-wide counts, labelled {channel}; bytes are per rail.
	channel                         string
	messages, rebalances, failovers obs.Counter
}

// BindMetrics attaches the channel-wide striping counts to their series in m.
func (st *stripeState) BindMetrics(m *obs.Registry) {
	channel := obs.Labels{"channel": st.channel}
	m.BindCounter(&st.messages, "madgo_stripe_messages_total", channel)
	m.BindCounter(&st.rebalances, "madgo_stripe_rebalance_total", channel)
	m.BindCounter(&st.failovers, "madgo_stripe_rail_failovers_total", channel)
}

// railState is one rail of one ordered pair: the striped payload it carried,
// and in reliable mode the bytes scheduled onto it, whole messages included.
type railState struct {
	key   railKey
	bytes obs.Counter // madgo_stripe_rail_bytes_total{node=src,rail} sums the source's pairs
	sched int64
}

// BindMetrics binds the rail's metrics in m.
func (r *railState) BindMetrics(m *obs.Registry) {
	m.BindCounter(&r.bytes, "madgo_stripe_rail_bytes_total", obs.Labels{"node": r.key.src, "rail": strconv.Itoa(r.key.rail)})
}

// rail returns the record of one pair's rail, created by its first use.
func (vc *VirtualChannel) rail(src, dst string, rail int) *railState {
	key := railKey{src, dst, rail}
	r := vc.stripe.rails[key]
	if r == nil {
		r = &railState{key: key}
		vc.stripe.rails[key] = r
		vc.sess.Platform.Instrument(r)
	}
	return r
}

// leastLoadedRail returns the rail of a pair with the fewest bytes scheduled
// on it for its static rate, the first on a tie: the sender's own count, not
// measured goodput, which is not a rail's capacity (DESIGN.md §30).
func (vc *VirtualChannel) leastLoadedRail(src, dst string, rails []route.Route) int {
	best, least := 0, 0.0
	for i, r := range rails {
		if load := float64(vc.rail(src, dst, i).sched) / vc.routeRate(r); i == 0 || load < least {
			best, least = i, load
		}
	}
	return best
}

// spansText is the per-rail split of a stripe record. A list is the one thing
// a hop's fixed fields cannot hold, so it is rendered at write time — for an
// armed registry only.
func spansText(m *obs.Registry, spans []int64) string {
	if m == nil {
		return ""
	}
	return fmt.Sprint(spans)
}

// stripeSplit is the sentence of a scheduling decision's hop record; ${note}
// holds the per-rail byte spans (spansText).
const stripeSplit = "split -> ${peer} over ${a} rails ${note}"

// initStriping sets up the striping state at Build time: the static network
// rates the split and the K-route search rank rails by. A pair's rails are
// found when it first sends (stripeRoutes).
func (vc *VirtualChannel) initStriping() {
	st := &stripeState{
		channel:  vc.Name,
		kroutes:  make(map[[2]string][]route.Route),
		netRate:  make(map[string]float64),
		rails:    make(map[railKey]*railState),
		lastFrac: make(map[[2]string][]float64),
		rx:       make(map[relMsgKey]*streamUnpacking),
		crews:    make(map[mad.Rank][]*railCrew),
	}
	for _, nw := range vc.tp.Networks() {
		nic := vc.bindings[nw.Name].Drv.NIC()
		r := nic.WireRate
		if nic.SendEngineRate > 0 && nic.SendEngineRate < r {
			r = nic.SendEngineRate
		}
		if nic.RecvEngineRate > 0 && nic.RecvEngineRate < r {
			r = nic.RecvEngineRate
		}
		st.netRate[nw.Name] = r
	}
	vc.stripe = st
	// Registered at zero, so snapshots show the series on unstriped runs too.
	vc.sess.Platform.Instrument(st)
	st.messages.Add(0)
	st.rebalances.Add(0)
	st.failovers.Add(0)
}

// stripeRoutes returns the rail set of one pair (nil when striping is off or
// the pair is outside the primary topology), computing it on first use; in
// streaming mode each rail is then equipped with the special channels and
// gateway engines it relays through. In reliable mode, under the health
// monitor, the cache is epoch-aware: a death or re-admission publishes a new
// epoch, the stale rail sets are dropped, and each pair's rails are recomputed
// on demand with the dead edges carved out of the graph — a killed rail
// shrinks the set (subsequent messages fall back to fewer rails, or the
// single-route path), and a re-admitted link restores it.
func (vc *VirtualChannel) stripeRoutes(src, dst string) []route.Route {
	st := vc.stripe
	if st == nil {
		return nil
	}
	var dead map[route.Edge]bool
	if mon := vc.mon; mon != nil {
		if ep := mon.Epoch(); ep != st.epoch {
			clear(st.kroutes)
			st.epoch = ep
		}
		dead = mon.DeadEdges()
	}
	key := [2]string{src, dst}
	rs, ok := st.kroutes[key]
	if !ok {
		if _, in := vc.tp.Node(src); in && src != dst {
			if _, in := vc.tp.Node(dst); in {
				rs = route.ComputeKAvoiding(vc.tp, src, dst, vc.cfg.StripeK, st.rate, dead)
			}
		}
		if !vc.cfg.Reliable {
			for _, r := range rs {
				vc.equip(r)
			}
		}
		st.kroutes[key] = rs
	}
	return rs
}

// rate is a network's static bottleneck bandwidth, the width the K-route
// search ranks rails by.
func (st *stripeState) rate(nw string) float64 { return st.netRate[nw] }

// routeRate is a route's static bottleneck bandwidth.
func (vc *VirtualChannel) routeRate(r route.Route) float64 {
	min := 0.0
	for _, hop := range r {
		if w := vc.stripe.netRate[hop.Network]; min == 0 || w < min {
			min = w
		}
	}
	return min
}

// stripePlan is one striped message's split over its rails: each rail's
// static rate, its quota of the message — bytes when streaming, packets in
// reliable mode — and its span of the message's bytes.
type stripePlan struct {
	rates         []float64
	quotas, spans []int64
	active        int // rails with a quota
	// The lists' storage for a pair of up to four rails, the plan's own.
	rateBuf           [4]float64
	quotaBuf, spanBuf [4]int64
}

// planStripe splits one striped message over the pair's rails in proportion
// to their static bottleneck rates (a rail's measured goodput is not its
// capacity, DESIGN.md §30), counts it and records the split. A streaming
// message divides its total bytes; a reliable one divides the payload of its
// packets past fragment 0, each packet going to the rail its middle byte falls
// to, and fragment 0, the descriptor, rides the first run. It reports whether
// two rails or more got a share: a message that leaves fewer is neither
// counted nor recorded, and goes down one rail whole.
func (vc *VirtualChannel) planStripe(p *vtime.Proc, pl *stripePlan, id uint64, src, dst string, rails []route.Route, total int64, pkts []relData) bool {
	k := len(rails)
	switch {
	case cap(pl.spans) >= k:
	case k <= len(pl.rateBuf):
		pl.rates, pl.quotas, pl.spans = pl.rateBuf[:], pl.quotaBuf[:], pl.spanBuf[:]
	default:
		pl.rates, pl.quotas, pl.spans = make([]float64, k), make([]int64, k), make([]int64, k)
	}
	pl.rates, pl.quotas, pl.spans = pl.rates[:k], pl.quotas[:k], pl.spans[:k]
	for i, r := range rails {
		pl.rates[i] = vc.routeRate(r)
	}
	reliable := pkts != nil
	if reliable {
		pkts, total = pkts[1:], 0
		for _, d := range pkts {
			total += int64(len(d.payload))
		}
	}
	computeSpans(total, pl.rates, pl.spans)
	pl.active = 0
	var cut, at int64 // the end of the rails' spans so far; the payload before pkts
	for i, span := range pl.spans {
		pl.quotas[i] = span
		if reliable {
			// The rail takes the packets whose middle byte lies in its span.
			cut, pl.quotas[i], pl.spans[i] = cut+span, 0, 0
			for ; len(pkts) > 0 && 2*at+int64(len(pkts[0].payload)) <= 2*cut; pkts = pkts[1:] {
				n := int64(len(pkts[0].payload))
				at, pl.quotas[i], pl.spans[i] = at+n, pl.quotas[i]+1, pl.spans[i]+n
			}
		}
		if pl.quotas[i] > 0 {
			pl.active++
		}
	}
	if pl.active < 2 {
		return false
	}
	if reliable { // fragment 0 rides the first run
		pl.quotas[slices.IndexFunc(pl.quotas, func(q int64) bool { return q > 0 })]++
	}
	vc.noteStripePlan(src, dst, pl.spans, total)
	vc.hop(p, id, src, "stripe",
		obs.Detail{Form: stripeSplit, Peer: dst, A: pl.active, Note: spansText(vc.metrics(), pl.spans)}, int(total))
	return true
}

// noteStripePlan records one scheduling decision: it counts the striped
// message and — when the quota fractions moved more than 1% against the
// pair's previous plan — a rebalance. The fractions overwrite the previous
// plan's in place.
func (vc *VirtualChannel) noteStripePlan(src, dst string, spans []int64, total int64) {
	st := vc.stripe
	st.messages.Add(1)
	key := [2]string{src, dst}
	frac := st.lastFrac[key]
	compare := len(frac) == len(spans)
	if !compare {
		frac = make([]float64, len(spans))
		st.lastFrac[key] = frac
	}
	moved := false
	for i, s := range spans {
		f := float64(s) / float64(total)
		if d := f - frac[i]; compare && (d > 0.01 || d < -0.01) {
			moved = true
		}
		frac[i] = f
	}
	if moved {
		st.rebalances.Add(1)
	}
}

// StripeStats aggregates the striping layer's counters.
type StripeStats struct {
	// Messages is how many messages were actually striped (sub-threshold
	// and single-route messages do not count).
	Messages int64
	// Rebalances is how many scheduling decisions changed a pair's quota
	// split by more than 1% against the previous message.
	Rebalances int64
	// RailFailovers is how many times a rail's first hop died under a run
	// pinned to it in reliable mode, a striped share or a whole message: the
	// link is reported dead (a DeliveryStats failover too) and the run's
	// unacknowledged packets take the table route.
	RailFailovers int64
	// RailReadmissions is how many dead links the health monitor restored
	// to service (each re-admission rebuilds the rail sets under a new
	// epoch). Zero in streaming mode, which has no monitor.
	RailReadmissions int64
	// RailBytes is the payload bytes each rail index carried: in reliable
	// mode a run's packets acknowledged on its rail, not those it re-routed.
	RailBytes map[int]int64
}

// StripeStats returns the striping counters (zero-valued when striping is
// off).
func (vc *VirtualChannel) StripeStats() StripeStats {
	s := StripeStats{RailBytes: map[int]int64{}}
	if vc.stripe == nil {
		return s
	}
	s.Messages = vc.stripe.messages.Count()
	s.Rebalances = vc.stripe.rebalances.Count()
	s.RailFailovers = vc.stripe.failovers.Count()
	if vc.mon != nil {
		s.RailReadmissions = vc.mon.Readmissions()
	}
	for key, r := range vc.stripe.rails {
		s.RailBytes[key.rail] += r.bytes.Count()
	}
	return s
}

// railJob is a striped streaming message's work on its rails, one slot at a
// time: a rail's span at the sender, or one rail's share of a block the
// receiver unpacks.
type railJob interface{ runRail(p *vtime.Proc, slot int) }

// railCrew is a node's parked daemons, one a slot past the first, started by
// their semaphores and joined by a WaitGroup. Several processes of a node may
// stripe at once, so crews come whole off the node's free list, and striping
// spawns nothing per message.
type railCrew struct {
	job   railJob
	start []vsync.Sem // a slot daemon's go, by slot
	done  vsync.WaitGroup
}

// runRails runs job on slots 0..n-1 at once, the slots past the first on one
// of node's crews, and returns when every slot is done.
func (vc *VirtualChannel) runRails(p *vtime.Proc, node *mad.Node, job railJob, n int) {
	if n < 2 {
		job.runRail(p, 0)
		return
	}
	free := vc.stripe.crews[node.Rank]
	var c *railCrew
	if k := len(free); k > 0 {
		c, vc.stripe.crews[node.Rank] = free[k-1], free[:k-1]
	} else {
		c = vc.newCrew(node)
	}
	c.job = job
	c.done.Add(n - 1)
	for slot := 1; slot < n; slot++ {
		c.start[slot].Release(1)
	}
	job.runRail(p, 0)
	c.done.Wait(p)
	c.job = nil
	vc.stripe.crews[node.Rank] = append(vc.stripe.crews[node.Rank], c)
}

// newCrew makes a crew of node's and spawns its daemons, on a free-list miss:
// the daemons' closure holds the crew, so runRails' own variable stays off the
// heap.
func (vc *VirtualChannel) newCrew(node *mad.Node) *railCrew {
	c := &railCrew{start: make([]vsync.Sem, vc.cfg.StripeK)}
	for slot := 1; slot < len(c.start); slot++ {
		vc.sess.Platform.Sim.SpawnDaemon("stripe:"+node.Name+":r"+strconv.Itoa(slot), func(p *vtime.Proc) {
			for {
				c.start[slot].Acquire(p, 1)
				c.job.runRail(p, slot)
				c.done.Done()
			}
		})
	}
	return c
}

// railMTU is the packet size of one rail: per-rail path MTU when the
// negotiation is on (each rail fragments at its own minimum), the global
// MTU otherwise.
func (vc *VirtualChannel) railMTU(r route.Route) int {
	if len(vc.cfg.NetMTU) > 0 {
		return MTUForRoute(r, vc.netMTU)
	}
	return vc.cfg.MTU
}

// runRail emits one rail sub-message, unless the split gave the rail no bytes:
// header, then for every packed block the part of the rail's span falling
// inside the block, fragmented at the rail's MTU (fragments never straddle
// block boundaries, so the receiver can mirror the layout from the header
// alone), then the terminator.
func (x *gtmPacking) runRail(p *vtime.Proc, rail int) {
	spanStart, spans := int64(0), x.plan.spans
	for _, ln := range spans[:rail] {
		spanStart += ln
	}
	if spans[rail] == 0 {
		return
	}
	vc, r := x.vc, x.rails[rail]
	var flags uint16
	if !r.Direct() {
		flags |= stripeFlagForwarded
	}
	if x.wire != nil {
		flags |= flagAgg
	}
	t0 := p.Now()
	h := streamHdr{src: x.node.Rank, dst: vc.NodeRank(x.dst), mtu: vc.railMTU(r), id: x.id,
		rail: rail, nrails: x.plan.active, flags: flags,
		spanStart: spanStart, spanLen: spans[rail], total: int64(x.total)}
	tx := streamTx{vc: vc, link: vc.hopLink(x.node, r[0], !r.Direct()), kind: mad.KindStripe}
	tx.open(p, h)
	flat := int64(0)
	for _, b := range x.blks {
		bStart := flat
		flat += int64(len(b.data))
		if lo, hi := railBlockOverlap(h, bStart, flat); lo < hi {
			tx.block(p, b.data[lo-bStart:hi-bStart], b.s, b.r)
		}
	}
	tx.end(p)
	// The rail's span, on the source's ring: the "stripe:<src>><dst>" lane.
	vc.flightRing(x.node.Name).RecordTag(flight.KindRail, uint8(rail), p.Now(), vtime.Since(p.Now(), t0), 0, int(h.spanLen), x.dst)
	vc.rail(x.node.Name, x.dst, rail).bytes.Add(h.spanLen)
}

// queueRails queues one attempt of a striped reliable message: its packets
// are partitioned into contiguous per-rail runs proportional to each rail's
// static bottleneck rate (the message's plan, planStripe), and each run goes
// to the send daemon of its rail's first hop, pinned there until that hop dies
// (forward). The final destination needs no rail awareness: reliable fragments
// carry their index and reassemble out of order from any link, so striping in
// reliable mode is purely a sender-side scheduling decision.
func (e *relEngine) queueRails(m *relOut, rails []route.Route) {
	ds := m.ds
	for i, q := range m.plan.quotas {
		if q > 0 {
			e.queueOn(m, rails[i][0], i, ds[:q])
		}
		ds = ds[q:]
	}
}

// openRail opens one announced rail of a striped message in a record off the
// free list and files it under the message's (origin, id): the message's first
// rail keeps its record, filed in rx until the last rail arrives, and a later
// rail joins the first's and gives its own back. It returns the message once
// this rail completed it, nil otherwise.
func (vc *VirtualChannel) openRail(p *vtime.Proc, node *mad.Node, a mad.Arrival) *streamUnpacking {
	u := vc.recs.streamUnpacking.get()
	rx := u.rail()
	rx.open(p, vc, node, a)
	h := rx.h
	key := relMsgKey{origin: h.src, id: h.id}
	if g := vc.stripe.rx[key]; g == nil {
		vc.stripe.rx[key] = u
	} else {
		for i := range g.rails {
			if g.rails[i].h.rail == h.rail {
				panic(fmt.Sprintf("fwd: duplicate rail %d of message %d on %s", h.rail, h.id, node.Name))
			}
		}
		if total := g.rails[0].h.total; h.total != total {
			panic(fmt.Sprintf("fwd: rail %d disagrees on message size (%d != %d)", h.rail, h.total, total))
		}
		g.rails = append(g.rails, *rx)
		u.retire()
		u = g
	}
	if len(u.rails) < h.nrails {
		return nil
	}
	delete(vc.stripe.rx, key)
	return u
}

// anyRail reports whether a rail of u carries flag: stripeFlagForwarded for
// Unpacking.Forwarded, flagAgg for a frame to decode.
func (u *streamUnpacking) anyRail(flag uint16) bool {
	for i := range u.rails {
		if u.rails[i].h.flags&flag != 0 {
			return true
		}
	}
	return false
}

// unpackSpans delivers one block of a striped message: its receives are
// posted directly into dst at the offsets the rail spans dictate, every
// overlapping rail drained at once, so concurrently arriving rails land in
// place with zero extra copies.
func (u *streamUnpacking) unpackSpans(p *vtime.Proc, dst []byte, s mad.SendMode, r mad.RecvMode) {
	b0 := u.flat
	u.flat += int64(len(dst))
	if len(dst) == 0 {
		// Empty blocks never travel on a rail (the sender skips them);
		// their mode constraints are vacuous.
		return
	}
	u.blk, u.s, u.r, u.ov = dst, s, r, u.ov[:0]
	for i := range u.rails {
		if lo, hi := railBlockOverlap(u.rails[i].h, b0, u.flat); lo < hi {
			u.ov = append(u.ov, &u.rails[i])
		}
	}
	if len(u.ov) == 0 {
		panic("fwd: striped block covered by no rail")
	}
	rx := &u.rails[0]
	t0 := p.Now()
	rx.vc.runRails(p, rx.node, u, len(u.ov))
	if len(u.ov) > 1 {
		// Reassembly cost of a striped block: the span from first drain start
		// to last rail completion, the window in which the destination is
		// stitching concurrent rails back into one buffer.
		rx.vc.flightRing(rx.node.Name).Record(
			flight.KindReassembly, p.Now(), vtime.Since(p.Now(), t0), rx.h.id, len(dst), "")
	}
}

// runRail receives the slot-th rail overlapping the block in hand into its
// share of the block, mirroring the sender's fragmentation exactly.
func (u *streamUnpacking) runRail(p *vtime.Proc, slot int) {
	rx, b0 := u.ov[slot], u.flat-int64(len(u.blk))
	lo, hi := railBlockOverlap(rx.h, b0, u.flat)
	rx.unpack(p, u.blk[lo-b0:hi-b0], u.s, u.r)
}

// railBlockOverlap returns the [lo, hi) flat range a rail contributes to a
// block spanning [B0, B1). Pure arithmetic — the allocation-regression test
// pins the reassembly bookkeeping at zero allocations.
func railBlockOverlap(h streamHdr, B0, B1 int64) (int64, int64) {
	return max(h.spanStart, B0), min(h.spanStart+h.spanLen, B1)
}
