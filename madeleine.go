// Package madeleine is the public face of madgo, a Go reproduction of the
// Madeleine multi-device communication library with the transparent
// inter-device data-forwarding mechanism of Aumage, Eyraud and Namyst
// ("Efficient Inter-Device Data-Forwarding in the Madeleine Communication
// Library", 2001).
//
// A System is a simulated cluster of clusters: nodes with calibrated
// 2001-era hardware (PCI buses, Myrinet/BIP, SCI/SISCI, Fast Ethernet, SBP
// NICs), one virtual channel spanning the declared networks, and forwarding
// gateways on every node that bridges two of them. Application code runs as
// virtual-time processes and exchanges messages with the paper's
// incremental packing interface:
//
//	sys, _ := madeleine.NewSystem(`
//		network sci0 sci
//		network myri0 myrinet
//		node a0 sci0
//		node gw sci0 myri0
//		node b0 myri0
//	`)
//	sys.Spawn("sender", func(p *madeleine.Proc) {
//		px := sys.At("a0").BeginPacking(p, "b0")
//		px.Pack(p, payload, madeleine.SendCheaper, madeleine.ReceiveCheaper)
//		px.EndPacking(p)
//	})
//	sys.Spawn("receiver", func(p *madeleine.Proc) {
//		u := sys.At("b0").BeginUnpacking(p)
//		u.Unpack(p, buf, madeleine.SendCheaper, madeleine.ReceiveCheaper)
//		u.EndUnpacking(p)
//	})
//	err := sys.Run()
//
// Messages between nodes that share a network travel directly; everything
// else is fragmented by the generic transmission module, relayed through
// gateway pipelines, and reassembled — invisibly to the application, as in
// the paper.
//
// The implementation lives in internal packages (vtime, fluid, hw, mad,
// fwd, ...); this package re-exports the pieces a user composes. In an
// upstream open-source release the internal packages would be promoted;
// they are documented to the same standard.
//
// # Options and their subsystems
//
// Every With* option arms or tunes exactly one subsystem:
//
//	WithMTU, WithAutoMTU                   fwd: generic transmission module fragment size
//	WithNetworkMTU                         fwd: per-path packet-size negotiation
//	WithPipelineDepth                      fwd: gateway staging-buffer ring depth
//	WithoutZeroCopy                        fwd: §2.3 gateway buffer election
//	WithEagerSmallMessages                 fwd/agg: cross-message coalescer, compact GTM framing
//	WithStriping                           fwd/stripe: multi-rail striping
//	WithReliableDelivery                   fwd/reliable: acknowledged datagram delivery, failure detector, fair relay
//	WithFaults                             fault: deterministic fault injection
//	WithRouteNetworks                      route: restrict the channel to named networks
//	WithTracer                             trace: the ledger's handle on the derived lanes
//	WithMetrics                            obs: counters, histograms, provenance
//	WithFlightRingCap                      flight: always-on event recorder
//	WithPaperFidelity, WithProduction      presets bundling the above
//
// WithFaults also arms reliable delivery: the implied subsystem is the only
// possible intent.
package madeleine

import (
	"cmp"
	"fmt"
	"io"
	"maps"
	"slices"
	"sort"

	"madgo/internal/assembly"
	"madgo/internal/bench"
	"madgo/internal/coll"
	"madgo/internal/fault"
	"madgo/internal/flight"
	"madgo/internal/fwd"
	"madgo/internal/health"
	"madgo/internal/hw"
	"madgo/internal/mad"
	"madgo/internal/obs"
	"madgo/internal/route"
	"madgo/internal/topo"
	"madgo/internal/trace"
	"madgo/internal/vtime"
)

// Re-exported core types. Proc is a simulated thread; all communication
// calls take the calling process explicitly.
type (
	// Proc is a virtual-time process handle.
	Proc = vtime.Proc
	// Time is an absolute virtual timestamp (nanoseconds).
	Time = vtime.Time
	// Duration is a span of virtual time.
	Duration = vtime.Duration
	// Rank identifies a node in the session.
	Rank = mad.Rank
	// SendMode is a block's emission constraint.
	SendMode = mad.SendMode
	// RecvMode is a block's reception constraint.
	RecvMode = mad.RecvMode
	// Packing is an in-progress outgoing message on the virtual channel.
	Packing = fwd.Packing
	// Unpacking is an in-progress incoming message.
	Unpacking = fwd.Unpacking
	// Topology describes networks, nodes and gateways.
	Topology = topo.Topology
	// Experiment is a regenerable table/figure of the paper.
	Experiment = bench.Experiment
	// Comm is a collective-operations communicator over the virtual
	// channel (barrier, broadcast, reduce, allreduce, gather).
	Comm = coll.Comm
	// ReduceOp combines float64 vectors element-wise in reductions.
	ReduceOp = coll.Op
	// FaultPlan is a seeded, deterministic fault schedule (packet loss,
	// corruption, link flaps, NIC stalls, node crashes).
	FaultPlan = fault.Plan
	// DeliveryError reports a message the reliable mode could not deliver
	// within its retry budget; Run returns it instead of deadlocking.
	DeliveryError = fwd.DeliveryError
	// DeliveryStats aggregates the recovery work of a reliable run.
	DeliveryStats = fwd.DeliveryStats
	// StripeStats aggregates the multi-rail striping layer's counters
	// (messages striped, rebalances, rail failovers, per-rail bytes).
	StripeStats = fwd.StripeStats
	// AckStats aggregates the reliable mode's acknowledgement traffic
	// (packets sent, entries coalesced, entries piggybacked on data).
	AckStats = fwd.AckStats
	// FlowStats aggregates the relay schedulers' counters (rounds,
	// backpressure refusals), which every gateway keeps.
	FlowStats = fwd.FlowStats
	// AggStats aggregates the small-message coalescing counters
	// (sub-messages coalesced, frames flushed by trigger, bypasses)
	// attached with WithEagerSmallMessages.
	AggStats = fwd.AggStats
	// McastStats aggregates the gateway-native multicast counters
	// (multicasts sent, gateway relays, branches, replicated packets/bytes,
	// local deliveries; the two tree-cache counts always read zero, as the
	// root splits by next hop like every gateway); see
	// Endpoint.BeginMulticast and Comm.Broadcast.
	McastStats = fwd.McastStats
	// Metrics is a virtual-time-aware metrics registry: counters, gauges,
	// latency histograms and per-message provenance traces, attached with
	// WithMetrics.
	Metrics = obs.Registry
	// MetricLabels tags one metric series (e.g. {"node": "gw"}).
	MetricLabels = obs.Labels
	// MetricSample is one series of Metrics.Samples(), the JSON-friendly
	// snapshot madstat -json emits.
	MetricSample = obs.Sample
	// MessageHop is one provenance event of a traced message.
	MessageHop = obs.Hop
	// Lane is the busy/stall/idle decomposition of one pipeline actor.
	Lane = obs.Lane
	// HealthMonitor is the running failure detector, reachable through
	// System.Health. It owns the epochal route tables: every link death or
	// re-admission publishes a new routing epoch the senders converge on.
	HealthMonitor = health.Monitor
	// LinkHealth is one directed link's externally visible condition
	// (state, EWMA score, observed round-trip).
	LinkHealth = health.LinkHealth
	// LinkState is a link's position in the detector state machine.
	LinkState = health.State
	// HealthTransition is one recorded link state change.
	HealthTransition = health.Transition
	// LinkEdge identifies a directed link (From, To, Network).
	LinkEdge = route.Edge
	// NoRouteError reports that every route between two nodes is exhausted
	// or excluded by liveness constraints; unwrap DeliveryError with
	// errors.As to get it, or test errors.Is(err, ErrNoRoute).
	NoRouteError = route.NoRouteError
	// FlightRecorder is the always-on in-memory event recorder: bounded
	// per-node rings of structured send/recv/swap/stall/retransmit/probe/
	// epoch events, snapshot-dumped automatically on delivery errors and
	// health-epoch churn. Reachable through System.Flight.
	FlightRecorder = flight.Recorder
	// FlightEvent is one recorded flight event.
	FlightEvent = flight.Event
	// FlightDump is one automatic snapshot of every ring, taken when
	// something went wrong (delivery error, no-route, epoch churn).
	FlightDump = flight.Dump
	// Budget attributes one message's end-to-end latency to named stages
	// (pack, queue-wait, wire, buffer-swap, relay-stall, retransmit+backoff,
	// stripe-reassembly, ack-wait).
	Budget = flight.Budget
	// AggregateBudget sums Budgets over a set of messages.
	AggregateBudget = flight.AggregateBudget
	// Stage names one latency-budget stage.
	Stage = flight.Stage
	// Diagnosis is the output of System.Diagnose: the pathologies the
	// critical-path analyzer recognizes in a run's flight events.
	Diagnosis = flight.Diagnosis
	// Finding is one named pathology with its evidence.
	Finding = flight.Finding
)

// ErrNoRoute is the sentinel matched by errors.Is when delivery failed
// because no live route remains (as opposed to a retry-budget timeout).
var ErrNoRoute = route.ErrNoRoute

// Latency-budget stages, the critical-path analyzer's attribution taxonomy.
const (
	StagePack       = flight.StagePack
	StageQueueWait  = flight.StageQueueWait
	StageWire       = flight.StageWire
	StageSwap       = flight.StageSwap
	StageStall      = flight.StageStall
	StageRexmit     = flight.StageRexmit
	StageReassembly = flight.StageReassembly
	StageAckWait    = flight.StageAckWait
	StageAggWait    = flight.StageAggWait
)

// Diagnosis finding codes, the pathologies Diagnose recognizes.
const (
	// DiagSwapBound: gateway relay throughput is serialized on buffer
	// swaps — the §3.4.1 pathology cured by deepening the pipeline.
	DiagSwapBound = flight.CodeSwapBound
	// DiagStallBound: gateway receive threads spend a significant share of
	// their occupancy waiting for the egress side: a free staging slot, or
	// room in an egress sender's queue.
	DiagStallBound = flight.CodeStallBound
	// DiagPIODMA: a programmed-I/O network is observed far below nominal
	// rate while a DMA network shares the host bus (the §3.4.2 conflict).
	DiagPIODMA = flight.CodePIODMA
	// DiagRexmitBound: retransmissions and backoff dominate the latency
	// budget — lossy or flapping links.
	DiagRexmitBound = flight.CodeRexmitBound
)

// Link states reported by HealthMonitor.Snapshot. Up and Suspect links are
// routable; Dead and Probation links are excluded from every route table
// until a run of probation probes re-admits them.
const (
	LinkUp        = health.Up
	LinkSuspect   = health.Suspect
	LinkDead      = health.Dead
	LinkProbation = health.Probation
)

// NewFaultPlan starts an empty deterministic fault plan; chain Drop,
// Corrupt, Flap, Stall and Crash on it and pass it to WithFaults.
func NewFaultPlan(seed int64) *FaultPlan { return fault.NewPlan(seed) }

// Reduction operators for Comm.Reduce/AllReduce.
var (
	OpSum ReduceOp = coll.Sum
	OpMax ReduceOp = coll.Max
	OpMin ReduceOp = coll.Min
)

// Pack/unpack flag constants, mirroring mad_pack's flag pairs.
const (
	SendCheaper = mad.SendCheaper
	SendSafer   = mad.SendSafer
	SendLater   = mad.SendLater

	ReceiveCheaper = mad.ReceiveCheaper
	ReceiveExpress = mad.ReceiveExpress
)

// Virtual-time duration units.
const (
	Nanosecond  = vtime.Nanosecond
	Microsecond = vtime.Microsecond
	Millisecond = vtime.Millisecond
	Second      = vtime.Second
)

// Options tunes a System.
type Options struct {
	// MTU is the generic transmission module's packet size (default
	// 32 KB).
	MTU int
	// AutoMTU derives MTU from the NIC models instead (two-network
	// configurations only).
	AutoMTU bool
	// PipelineDepth is the number of buffers each gateway pipeline
	// rotates (default 2, the paper's double buffering).
	PipelineDepth int
	// NetworkMTU maps network names to their packet-size caps; networks
	// absent from the map use MTU. A non-empty map switches packet-size
	// selection from channel-global to per-path: each message is fragmented
	// at the minimum MTU over the networks its route traverses.
	NetworkMTU map[string]int
	// DisableZeroCopy turns off the §2.3 buffer election (every relayed
	// packet pays a staging copy).
	DisableZeroCopy bool
	// Tracer, when non-nil, is bound to the system's lanes (WithTracer).
	Tracer *Tracer
	// Metrics, when non-nil, receives counters, histograms and message
	// provenance from every layer of the system.
	Metrics *Metrics
	// RouteNetworks restricts the virtual channel to the named networks
	// (e.g. the high-speed ones) when the configuration also declares a
	// control network.
	RouteNetworks []string
	// Faults, when non-nil, arms the deterministic fault injector with
	// this plan (and implies reliable delivery). A plan embedded in the
	// topology configuration ("fault ..." directives) is used when this
	// field is nil.
	Faults *FaultPlan
	// Reliable switches the virtual channel to reliable datagram
	// delivery: checksummed, acknowledged, retransmitted packets, the
	// link-health failure detector with gateway failover, and fair relaying.
	Reliable bool
	// StripeK (0 to 255), when at least 2, enables multi-rail striping: messages
	// of fwd.DefaultStripeThreshold (16 KB) and more are split across up to
	// StripeK link-disjoint routes and transmitted in parallel.
	StripeK int
	// Eager arms the small-message path, in streaming and reliable mode
	// alike: consecutive messages bound for the same forwarded destination
	// are packed into one MTU-sized aggregate frame that crosses the wire
	// as a single transfer. A frame leaves at once when none is on the wire
	// and behind the one that is otherwise, so there is no deadline to
	// tune. A streamed message too large for a frame takes the compact GTM
	// framing: the self-description header piggybacks on the first data
	// fragment and the terminator on the last fragment's metadata.
	Eager bool
	// FlightRingCap overrides the per-node ring capacity (default 4096
	// events).
	FlightRingCap int
}

// Option mutates Options.
type Option func(*Options)

// WithMTU sets the GTM packet size.
func WithMTU(n int) Option { return func(o *Options) { o.MTU = n } }

// WithAutoMTU derives the GTM packet size analytically from the NIC models
// of the virtual channel's networks (the §3.2.2 "chosen at compile time"
// computation, see fwd.SuggestMTU). It requires the channel to span exactly
// two networks — the paper's configuration; with more, set WithMTU
// explicitly.
func WithAutoMTU() Option { return func(o *Options) { o.AutoMTU = true } }

// WithPipelineDepth sets the gateway buffer count.
func WithPipelineDepth(n int) Option { return func(o *Options) { o.PipelineDepth = n } }

// WithNetworkMTU caps one network's packet size and so turns on per-path MTU
// negotiation: every message is fragmented at the minimum MTU over the
// networks its route actually traverses (the §2.3 rule), instead of one
// channel-global packet size. Networks without a cap use the WithMTU value.
func WithNetworkMTU(network string, bytes int) Option {
	return func(o *Options) {
		if o.NetworkMTU == nil {
			o.NetworkMTU = make(map[string]int)
		}
		o.NetworkMTU[network] = bytes
	}
}

// WithoutZeroCopy disables the gateway buffer election.
func WithoutZeroCopy() Option { return func(o *Options) { o.DisableZeroCopy = true } }

// WithMetrics attaches a metrics registry. The system clocks it with virtual
// time and instruments link sends, gateway relays, buffer switches, copies,
// injected faults and the reliable mode's recovery work; every message packed
// on the virtual channel gets a provenance trace queryable with
// System.MessageTrace.
func WithMetrics(m *Metrics) Option { return func(o *Options) { o.Metrics = m } }

// WithRouteNetworks restricts the virtual channel to the named networks.
func WithRouteNetworks(names ...string) Option { return func(o *Options) { o.RouteNetworks = names } }

// WithFaults arms the deterministic fault injector with the given plan and
// switches the system to reliable delivery so the injected faults are
// survivable.
func WithFaults(p *FaultPlan) Option { return func(o *Options) { o.Faults = p } }

// WithStriping enables multi-rail striping with up to k link-disjoint routes
// per node pair. Large messages are split across the rails rate-proportionally
// and reassembled in place at the receiver; pairs with a single route, and
// messages below fwd.DefaultStripeThreshold (16 KB), use the ordinary
// single-route path. k must be between 0 and 255; 0 and 1 leave striping off.
// Striping composes with reliable delivery: a rail whose first hop dies
// mid-message is reported dead and its run re-routes like any other burst.
func WithStriping(k int) Option { return func(o *Options) { o.StripeK = k } }

// WithFlightRingCap sets the flight recorder's per-node ring capacity in
// events (default 4096). A ring's memory is 32 B for each event it holds,
// allocated a quarter of the capacity at a time as it fills and never more
// than the capacity; once full, older events are overwritten.
func WithFlightRingCap(n int) Option { return func(o *Options) { o.FlightRingCap = n } }

// WithEagerSmallMessages arms the small-message path that attacks the fixed
// per-wire-transfer software overhead of §3.4.1, in streaming and reliable
// mode alike. Consecutive messages from one node to one forwarded
// destination are packed into a single MTU-sized aggregate frame — one wire
// transfer, one ARQ sequence in reliable mode — and decoalesced at the sink
// in sender order. A frame leaves as soon as the one before it is off the
// wire — at once on a free path, so a lone message pays no batching delay,
// and as full as the path is busy otherwise — or when a larger message must
// not overtake the queue; the sink receives one frame ahead of the
// application. A streamed message too large for a frame takes the compact
// GTM framing: the self-description header piggybacks on the first data
// fragment and the terminator collapses into the last fragment's metadata.
// Gateways relay both obliviously. Query the counters with
// System.Stats().Agg.
func WithEagerSmallMessages() Option { return func(o *Options) { o.Eager = true } }

// WithReliableDelivery switches the virtual channel from the paper's
// streaming forwarding to reliable datagram delivery: ARQ, a failure
// detector and a fair relay. Every packet is checksummed and acknowledged hop
// by hop, and lost or corrupted packets are retransmitted with jittered
// backoff. Every link accumulates passive evidence — acknowledgement
// round-trips, send outcomes — into an EWMA score driving an
// Up/Suspect/Dead/Probation state machine, and idle links are
// heartbeat-probed. A death excludes the link from routing and publishes a
// new epoch-stamped route table set that in-flight messages migrate to —
// failing over to alternate gateways, or degrading to the control network
// when the channel was restricted with WithRouteNetworks — and a recovered
// link is re-admitted (and restored to the striping rail set) after a
// probation run of successful probes. When no live route remains, delivery
// fails fast with an error matching ErrNoRoute instead of stalling. Relaying
// nodes serve their ingress neighbours deficit-round-robin. Query the
// detector with System.Health.
func WithReliableDelivery() Option { return func(o *Options) { o.Reliable = true } }

// WithPaperFidelity resets the system to the paper's §3 evaluation
// configuration: 32 KB GTM packets, depth-2 double-buffered gateway
// pipelines, the original three-transfer framing (header, data,
// terminator), streaming delivery, and none of the post-paper subsystems
// (no eager framing, aggregation, striping, reliability or health
// monitoring). Apply it first and layer individual options after it
// to deviate selectively.
func WithPaperFidelity() Option {
	return func(o *Options) {
		o.MTU, o.PipelineDepth = 32*1024, 2
		o.Eager, o.StripeK, o.Reliable = false, 0, false
	}
}

// WithProduction arms every post-paper subsystem at its defaults: the eager
// small-message path, two-rail striping, and reliable (acknowledged,
// retransmitted) delivery with its link-health failure detector and epochal
// self-healing routes. It is the "everything
// on" profile the load-pattern examples use; layer individual options after
// it to tune packet sizes. Note that reliable delivery runs its own packet
// protocol, so the streaming-only multicast fan-out is unavailable under
// this preset — collectives fall back to binomial trees.
func WithProduction() Option {
	return func(o *Options) {
		o.Eager = true
		o.StripeK = 2
		o.Reliable = true
	}
}

// System is a running simulated cluster of clusters.
type System struct {
	Sim      *vtime.Sim
	Session  *mad.Session
	Channel  *fwd.VirtualChannel
	Topology *topo.Topology
}

// NewSystem parses a textual topology (see the topo format in README) and
// assembles the platform, drivers, virtual channel and gateways.
func NewSystem(config string, opts ...Option) (*System, error) {
	tp, err := topo.Parse(config)
	if err != nil {
		return nil, err
	}
	return NewSystemFromTopology(tp, opts...)
}

// NewSystemFromTopology is NewSystem for an already-built topology.
func NewSystemFromTopology(tp *topo.Topology, opts ...Option) (*System, error) {
	o := Options{MTU: 32 * 1024, PipelineDepth: 2}
	for _, fn := range opts {
		fn(&o)
	}
	vcTopo := tp
	if len(o.RouteNetworks) > 0 {
		var err error
		if vcTopo, err = tp.Restrict(o.RouteNetworks...); err != nil {
			return nil, err
		}
	}
	plan := cmp.Or(o.Faults, tp.Faults)
	reliable := o.Reliable || plan != nil
	if o.AutoMTU {
		nets := vcTopo.Networks()
		if len(nets) != 2 {
			return nil, fmt.Errorf("madeleine: AutoMTU needs exactly two networks, have %d", len(nets))
		}
		var nics [2]hw.NICParams
		for i, nw := range nets {
			drv, err := assembly.DriverFor(nw.Protocol)
			if err != nil {
				return nil, err
			}
			nics[i] = drv.NIC()
		}
		o.MTU = fwd.SuggestMTU(nics[0], nics[1], hw.DefaultCPU())
	}
	cfg := fwd.Config{
		MTU:           o.MTU,
		PipelineDepth: o.PipelineDepth,
		NetMTU:        o.NetworkMTU,
		ZeroCopy:      !o.DisableZeroCopy,
		Reliable:      reliable,
		StripeK:       o.StripeK,
		Eager:         o.Eager,
	}
	if reliable && vcTopo != tp {
		// The excluded control networks stay alive as failover paths.
		cfg.FallbackTopo = tp
	}
	// The flight recorder is always on: its cost is a bounded ring write per
	// event (no allocation), enforced under 5% of goodput by the O2 gate.
	spec := assembly.Spec{Topo: vcTopo, Config: cfg, Metrics: o.Metrics, Faults: plan,
		Flight: flight.NewRecorder(o.FlightRingCap)}
	sim, sess, vc, err := assembly.Build(spec)
	if err != nil {
		return nil, err
	}
	o.Tracer.Bind(sess.Platform)
	return &System{Sim: sim, Session: sess, Channel: vc, Topology: tp}, nil
}

// Spawn starts an application process at virtual time now.
func (s *System) Spawn(name string, fn func(*Proc)) { s.Sim.Spawn(name, fn) }

// Run executes the simulation until every application process finishes. A
// DeadlockError names the stuck processes and what they wait on.
func (s *System) Run() error { return s.Sim.Run() }

// Now returns the current virtual time.
func (s *System) Now() Time { return s.Sim.Now() }

// At returns the virtual-channel endpoint of the named node.
func (s *System) At(node string) *fwd.Endpoint { return s.Channel.At(node) }

// Rank returns the session rank of the named node.
func (s *System) Rank(node string) Rank { return s.Channel.NodeRank(node) }

// NodeName returns the name of the node with the given rank.
func (s *System) NodeName(r Rank) string { return s.Session.Node(r).Name }

// Gateways returns the nodes running forwarding engines.
func (s *System) Gateways() []string { return s.Channel.Gateways() }

// GatewayStats summarizes the relay and recovery work of one gateway.
// Retransmits and Failovers are always zero outside reliable mode and on
// fault-free reliable runs.
type GatewayStats struct {
	Messages    int64 `json:"messages"`    // messages relayed
	Packets     int64 `json:"packets"`     // packets relayed
	Bytes       int64 `json:"bytes"`       // payload bytes relayed
	Stalls      int64 `json:"stalls"`      // receive-thread waits for a free staging slot or a full egress queue
	Retransmits int64 `json:"retransmits"` // per-hop packet retransmissions performed
	Failovers   int64 `json:"failovers"`   // times a neighbour was presumed dead and rerouted around
}

// NamedGatewayStats is one gateway's entry in Stats, keyed by node name.
type NamedGatewayStats struct {
	Name string `json:"name"`
	GatewayStats
}

// Stats is the one-call snapshot of every subsystem's counters, read from the
// objects that count: the same with and without WithMetrics, whose registry
// reports the same numbers. Subsystems that were never armed report zero
// values: Delivery, Ack, the recovery fields of each gateway (reliable mode),
// Stripe (WithStriping), Agg (WithEagerSmallMessages), Mcast (multicast fan-out on
// a streaming channel); Flow counts every gateway's relay scheduler. Gateways is sorted by node name.
type Stats struct {
	Delivery DeliveryStats       `json:"delivery"`
	Stripe   StripeStats         `json:"stripe"`
	Ack      AckStats            `json:"ack"`
	Flow     FlowStats           `json:"flow"`
	Agg      AggStats            `json:"agg"`
	Mcast    McastStats          `json:"mcast"`
	Gateways []NamedGatewayStats `json:"gateways"`
}

// Stats snapshots every subsystem's counters at once.
func (s *System) Stats() Stats {
	names := s.Channel.Gateways()
	sort.Strings(names)
	gws := make([]NamedGatewayStats, 0, len(names))
	for _, name := range names {
		if g, ok := s.GatewayStats(name); ok {
			gws = append(gws, NamedGatewayStats{Name: name, GatewayStats: g})
		}
	}
	return Stats{
		Delivery: s.Channel.DeliveryStats(),
		Stripe:   s.Channel.StripeStats(),
		Ack:      s.Channel.AckStats(),
		Flow:     s.Channel.FlowStats(),
		Agg:      s.Channel.AggStats(),
		Mcast:    s.Channel.McastStats(),
		Gateways: gws,
	}
}

// GatewayStats returns the relay statistics of the named gateway, with
// ok=false when the node runs no forwarding engine.
func (s *System) GatewayStats(name string) (GatewayStats, bool) {
	g, ok := s.Channel.GatewayOK(name)
	if !ok {
		return GatewayStats{}, false
	}
	return GatewayStats{
		Messages:    g.Messages(),
		Packets:     g.Packets(),
		Bytes:       g.Bytes(),
		Stalls:      g.Stalls(),
		Retransmits: g.Retransmits(),
		Failovers:   g.Failovers(),
	}, true
}

// Health returns the link-health failure detector of a reliable system; it
// is nil only in streaming mode. Snapshot lists per-link condition,
// Epoch the current routing epoch, Transitions the full state-change log.
func (s *System) Health() *HealthMonitor { return s.Channel.Health() }

// Routes renders the routing table of the virtual channel.
func (s *System) Routes() string { return s.Channel.Table().String() }

// Copies returns the CPU copy accounting summed over all nodes.
func (s *System) Copies() (count, bytes int64) { return s.Session.Copies() }

// CommAt creates the collective communicator of node self over the given
// member group (same list, same order, on every participant).
func (s *System) CommAt(self string, members ...string) (*Comm, error) {
	return coll.New(s.Channel, members, self)
}

// NewMetrics returns an empty metrics registry for WithMetrics.
func NewMetrics() *Metrics { return obs.New() }

// Metrics returns the registry attached with WithMetrics, or nil. A nil
// *Metrics is safe to query: every method returns zero values.
func (s *System) Metrics() *Metrics { return s.Session.Platform.Metrics }

// MessageTrace returns the provenance of one message — every pack, hop,
// relay, retransmission, failover and delivery event it went through, in
// virtual-time order. Message IDs start at 1 in pack order; Metrics().
// Messages() lists them all.
func (s *System) MessageTrace(id uint64) []MessageHop { return s.Metrics().MessageTrace(id) }

// WritePrometheus writes a Prometheus text-format snapshot of every metric
// the attached registry holds (counters, gauges, histograms with cumulative
// buckets and p50/p90/p99 quantile pseudo-series).
func (s *System) WritePrometheus(w io.Writer) { s.Metrics().WritePrometheus(w) }

// WriteChromeTrace writes the run as Chrome trace_event JSON — loadable in
// Perfetto (ui.perfetto.dev) or chrome://tracing: the pipeline lanes (see
// Lanes), every flight-recorder event replayed as a per-node span, and the
// per-message provenance of the WithMetrics registry, when one is armed.
// It fails, writing nothing, when a flight ring overwrote events, as the lanes
// would miss the start of the run (WithFlightRingCap sizes the rings).
func (s *System) WriteChromeTrace(w io.Writer) error {
	lanes, err := trace.Of(s.Session.Platform)
	if err != nil {
		return err
	}
	return obs.WriteChromeTrace(w, append(lanes, trace.Replay(s.Flight().Events())...), s.Metrics().Hops())
}

// Flight returns the always-on flight recorder. A nil *FlightRecorder is safe
// to query: every method returns zero values.
func (s *System) Flight() *FlightRecorder { return s.Session.Platform.Flight }

// WriteFlightJSON writes the flight recorder's full state — every per-node
// ring plus the automatic failure dumps — as indented JSON.
func (s *System) WriteFlightJSON(w io.Writer) error { return s.Flight().WriteJSON(w) }

// Budgets attributes every observed message's end-to-end latency to named
// stages (pack, queue-wait, wire, buffer-swap, relay-stall,
// retransmit+backoff, stripe-reassembly, ack-wait), in message-id order.
// Provenance hops from the WithMetrics registry widen each message's
// [start, end] window when present; the flight events alone suffice.
func (s *System) Budgets() []Budget {
	rec := s.Flight()
	if rec == nil {
		return nil
	}
	byMsg := flight.IndexByMessage(rec.Events())
	ids := make(map[uint64]bool, len(byMsg))
	for _, id := range s.Metrics().Messages() {
		ids[id] = true
	}
	for id := range byMsg {
		ids[id] = true
	}
	bs := make([]Budget, 0, len(ids))
	for _, id := range slices.Sorted(maps.Keys(ids)) {
		bs = append(bs, flight.AnalyzeMessage(id, s.Metrics().MessageTrace(id), byMsg[id]))
	}
	return bs
}

// Diagnose runs the critical-path analyzer over the run's flight events and
// latency budgets and names the pathologies it recognizes: the §3.4.1
// swap-overhead bound, staging-buffer stalls, the PIO/DMA bus conflict, and
// retransmission-dominated budgets. An empty Findings list means healthy.
func (s *System) Diagnose() Diagnosis {
	rec := s.Flight()
	if rec == nil {
		return Diagnosis{}
	}
	return flight.Diagnose(s.Budgets(), rec.Events(), s.Channel.DiagnosisSignals())
}

// WriteBudgetReport renders Budgets as an aligned text table: one row per
// message plus an aggregate "all" row.
func WriteBudgetReport(w io.Writer, bs []Budget) { flight.WriteBudgets(w, bs) }

// Lanes decomposes each pipeline actor's [t0, t1) window into busy, stall
// (buffer switches) and idle time, with the §3.3.1 steady-state period of
// its dominant operation. The lanes derive from the flight recorder and the
// fault plan; the reliable engine's marks need WithMetrics' hops. When a
// flight ring overwrote events (WithFlightRingCap sizes the rings), t0 moves
// up to the instant every ring is complete from: each Window is then shorter.
func (s *System) Lanes(t0, t1 Time) []Lane {
	l, err := trace.Of(s.Session.Platform)
	if tr, ok := err.(*trace.Truncated); ok {
		t0 = max(t0, tr.Since)
	}
	return l.Lanes(t0, t1)
}

// WriteLaneReport renders Lanes as an aligned text table.
func WriteLaneReport(w io.Writer, lanes []Lane) { obs.WriteLaneReport(w, lanes) }

// Experiments returns the registered paper experiments (fig6, fig7, t1...,
// a5) plus the reliability extension (r1); see cmd/madbench for a
// command-line runner.
func Experiments() []*Experiment { return bench.All() }

// RouteTable computes the routing table of an arbitrary topology without
// building a system (used by cmd/madtopo).
func RouteTable(tp *Topology) string { return route.Compute(tp).String() }

// ParseTopology parses the textual configuration format.
func ParseTopology(config string) (*Topology, error) { return topo.Parse(config) }

// PaperTestbed returns the paper's §3 evaluation configuration.
func PaperTestbed() *Topology { return topo.PaperTestbed() }
