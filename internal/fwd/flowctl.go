package fwd

import (
	"madgo/internal/flight"
	"madgo/internal/flow"
	"madgo/internal/obs"
	"madgo/internal/vtime"
	"madgo/internal/vtime/vsync"
)

// DefaultCreditWindow is the per-(gateway, sender) credit window when
// Config.FlowControl is on and Config.CreditWindow is zero: how many wire
// transfers one sender may have outstanding toward one gateway. The cost
// model charges exactly what crosses the wire — F+2 transfers per seed GTM
// message (header, fragments, terminator), F or fewer under the eager
// compact framing (header and terminator piggyback on data fragments), and
// a single credit per aggregate frame however many sub-messages it coalesces.
// Wide enough to keep a PipelineDepth-deep ring busy across the grant round
// trip, small enough that 64 senders cannot bury a gateway's mailbox.
const DefaultCreditWindow = 16

// flowKey identifies one credit account: the granting gateway and the
// upstream sender it protects itself from. The sender is a node name, not a
// connection — all of a node's traffic toward one gateway shares the
// account, which is what makes backpressure propagate hop by hop (a relay
// spending toward the next gateway is itself a sender).
type flowKey struct {
	gw, up string
}

// flowAccount is the live state of one credit account. The semaphore holds
// the sender's remaining window; grants release it, spends acquire it, and
// an exhausted window parks the sender in FIFO order — backpressure as a
// typed stall, never loss.
type flowAccount struct {
	key flowKey
	sem *vsync.Sem

	// The account's own counts: spends are a series, {node, gateway}; grants
	// sum under {gateway} over its senders, stalls under {node} over its
	// gateways. stallTime is exact, the {node} histogram float seconds.
	granted, spent, stalls obs.Counter
	stallTime              vtime.Duration
	stallSeconds           *obs.Histogram

	seq     uint32
	scratch []byte       // grant wire-codec scratch, reused per grant
	fr      *flight.Ring // sender-side flight ring, cached when armed
}

// BindMetrics binds the account's metrics in m.
func (a *flowAccount) BindMetrics(m *obs.Registry) {
	m.BindCounter(&a.spent, "madgo_flow_credits_spent_total", obs.Labels{"node": a.key.up, "gateway": a.key.gw})
	m.BindCounter(&a.granted, "madgo_flow_credits_granted_total", obs.Labels{"gateway": a.key.gw})
	m.BindCounter(&a.stalls, "madgo_flow_credit_stalls_total", obs.Labels{"node": a.key.up})
	a.stallSeconds = m.BindHistogram("madgo_flow_credit_stall_seconds", obs.Labels{"node": a.key.up})
}

// flowCtl is a virtual channel's credit-based flow controller: the table of
// credit accounts, lazily created in simulation order (deterministic) the
// first time a sender spends toward a gateway.
type flowCtl struct {
	vc     *VirtualChannel
	window int
	acct   map[flowKey]*flowAccount
	order  []*flowAccount // in creation order
}

func newFlowCtl(vc *VirtualChannel, window int) *flowCtl {
	if window <= 0 {
		window = DefaultCreditWindow
	}
	return &flowCtl{vc: vc, window: window, acct: make(map[flowKey]*flowAccount)}
}

func (fc *flowCtl) account(gw, up string) *flowAccount {
	key := flowKey{gw: gw, up: up}
	if a, ok := fc.acct[key]; ok {
		return a
	}
	a := &flowAccount{
		key:     key,
		sem:     vsync.NewSem(fc.window),
		scratch: make([]byte, 0, flow.GrantLen),
	}
	fc.acct[key] = a
	fc.order = append(fc.order, a)
	fc.vc.sess.Platform.Instrument(a)
	return a
}

// spend consumes one credit of the (gw, up) account before a wire transfer
// toward gw, parking the caller until the gateway's grants replenish the
// window. A wait is the designed backpressure signal: it is recorded as a
// flight queue-wait event at the stalled sender and under the
// madgo_flow_credit_stall metrics, so an incast shows up as typed sender
// stalls instead of mailbox overflows or drops.
func (fc *flowCtl) spend(p *vtime.Proc, gw, up string, msgID uint64) {
	a := fc.account(gw, up)
	t0 := p.Now()
	a.sem.Acquire(p, 1)
	a.spent.Add(1)
	if wait := vtime.Since(p.Now(), t0); wait > 0 {
		a.stalls.Add(1)
		a.stallTime += wait
		a.stallSeconds.ObserveDuration(wait)
		if a.fr == nil {
			a.fr = fc.vc.flightRing(up)
		}
		a.fr.Record(flight.KindQueueWait, p.Now(), wait, msgID, 0, "")
	}
}

// grant returns n credits from gw to the upstream sender. The grant goes
// through the wire codec — encoded into the account's scratch buffer and
// decoded back, the piggyback path the reverse traffic would carry — so the
// format is exercised end to end and a grant the codec would reject is a
// hard protocol error rather than a silently widened window.
func (fc *flowCtl) grant(gw, up string, n int) {
	a := fc.account(gw, up)
	a.scratch = flow.AppendGrant(a.scratch[:0], flow.Grant{
		Gateway:  uint32(fc.vc.NodeRank(gw)),
		Upstream: uint32(fc.vc.NodeRank(up)),
		Credits:  uint32(n),
		Seq:      a.seq,
	})
	a.seq++
	g, ok := flow.DecodeGrant(a.scratch)
	if !ok {
		panic("fwd: flow-control grant failed its own codec round trip")
	}
	a.sem.Release(int(g.Credits))
	a.granted.Add(int64(g.Credits))
}

// flowSpend spends one credit toward gw when flow control is armed; a no-op
// otherwise.
func (vc *VirtualChannel) flowSpend(p *vtime.Proc, gw, up string, msgID uint64) {
	if vc.flowc != nil {
		vc.flowc.spend(p, gw, up, msgID)
	}
}

// flowGrant returns n credits from gw to up when flow control is armed; a
// no-op otherwise.
func (vc *VirtualChannel) flowGrant(gw, up string, n int) {
	if vc.flowc != nil {
		vc.flowc.grant(gw, up, n)
	}
}

// FlowStats aggregates the flow controller's counters over every credit
// account and relay scheduler. The credit fields are zero when
// Config.FlowControl is off; SchedRounds and Backpressure count the relay
// schedulers, which every gateway runs with or without it.
type FlowStats struct {
	// Accounts is how many (gateway, sender) credit accounts exist.
	Accounts int
	// CreditsGranted and CreditsSpent count wire transfers: spent when a
	// sender consumed window, granted when a gateway returned it.
	CreditsGranted int64
	CreditsSpent   int64
	// Stalls is how many spends had to park on an exhausted window, and
	// StallTime the virtual time senders spent parked — the typed
	// backpressure signal.
	Stalls    int64
	StallTime vtime.Duration
	// SchedRounds is how many full deficit-round-robin passes the streaming
	// gateways' fair daemons and the reliable engines' relay daemons
	// completed.
	SchedRounds int64
	// Backpressure counts reliable-mode relay admissions refused because
	// the relay queue was full, and completing fragments refused because the
	// application left its arrival queue full (the upstream ARQ retransmits —
	// no loss).
	Backpressure int64
}

// FlowAccountStats is the per-account breakdown behind FlowStats, for
// diagnostic panels.
type FlowAccountStats struct {
	Gateway   string
	Sender    string
	Granted   int64
	Spent     int64
	Stalls    int64
	StallTime vtime.Duration
}

// FlowStats returns the flow-control counters, aggregated over every
// credit account and scheduler.
func (vc *VirtualChannel) FlowStats() FlowStats {
	var s FlowStats
	if vc.flowc != nil {
		s.Accounts = len(vc.flowc.order)
		for _, a := range vc.flowc.order {
			s.CreditsGranted += a.granted.Count()
			s.CreditsSpent += a.spent.Count()
			s.Stalls += a.stalls.Count()
			s.StallTime += a.stallTime
		}
	}
	for _, g := range vc.gates {
		for _, r := range g.rings {
			s.SchedRounds += r.drr.Rounds()
		}
	}
	for _, e := range vc.rel {
		s.SchedRounds += e.relayDRR.Rounds()
	}
	s.Backpressure = vc.relCount(relBackpressure)
	return s
}

// FlowAccounts returns the per-account flow-control counters in account
// creation order. Empty when flow control is off.
func (vc *VirtualChannel) FlowAccounts() []FlowAccountStats {
	if vc.flowc == nil {
		return nil
	}
	out := make([]FlowAccountStats, 0, len(vc.flowc.order))
	for _, a := range vc.flowc.order {
		out = append(out, FlowAccountStats{
			Gateway: a.key.gw, Sender: a.key.up,
			Granted: a.granted.Count(), Spent: a.spent.Count(),
			Stalls: a.stalls.Count(), StallTime: a.stallTime,
		})
	}
	return out
}
