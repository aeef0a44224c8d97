package fwd

import (
	"fmt"
	"sort"

	"madgo/internal/flight"
	"madgo/internal/fluid"
	"madgo/internal/health"
	"madgo/internal/hw"
	"madgo/internal/mad"
	"madgo/internal/obs"
	"madgo/internal/route"
	"madgo/internal/topo"
	"madgo/internal/trace"
	"madgo/internal/vtime"
	"madgo/internal/vtime/vsync"
)

// Config tunes the forwarding machinery. The defaults reproduce the paper's
// setup; the ablation benchmarks flip individual knobs.
type Config struct {
	// MTU is the GTM packet size — "an appropriate paquet size can be
	// chosen at compile time because the network configuration is
	// statically configured" (§2.3). The paper's analysis points at the
	// 16 KB SCI/Myrinet crossover; its figures sweep 8–128 KB.
	MTU int
	// PipelineDepth is the number of buffers each gateway forwarder
	// rotates. The paper uses two (one receiving, one sending); one
	// disables pipelining (ablation A3).
	PipelineDepth int
	// ZeroCopy enables the §2.3 buffer election on gateways. When false
	// every relayed packet pays an explicit staging copy (ablation A3).
	ZeroCopy bool
	// NetMTU gives per-network packet-size caps; networks absent from the
	// map default to MTU. A non-empty map switches packet-size selection
	// from channel-global to per-path: every message is fragmented at the
	// minimum MTU over the networks its route traverses (§2.3 — "the MTU of
	// a connexion is defined as the [minimum] of the MTU of each network
	// used"), so traffic between nodes on a large-MTU network is no longer
	// cut down to the smallest network anywhere in the configuration.
	NetMTU map[string]int
	// InflowLimit, when positive (bytes/s), throttles each gateway
	// forwarder's receive loop to that rate — the "sophisticated
	// bandwidth control mechanism [to] regulate the incoming
	// communication flow on gateways" the paper's conclusion calls for
	// (ablation A4).
	InflowLimit float64
	// Tracer, when non-nil, records gateway pipeline spans for the
	// Figure 5/8 timelines.
	Tracer *trace.Tracer
	// Reliable switches the virtual channel from the paper's streaming
	// GTM to the reliable datagram protocol (see reliable.go): sequenced,
	// checksummed, acknowledged packets with retransmission, the link-health
	// failure detector with multi-gateway failover, and a fair relay queue
	// on every node. Required for running under fault injection.
	Reliable bool
	// FallbackTopo, when non-nil in reliable mode, is a larger topology
	// (typically the full configuration including the slow control
	// network) whose extra networks become alternate paths once the
	// primary topology has no live route. Its node set must contain every
	// node of the primary topology.
	FallbackTopo *topo.Topology
	// StripeK, when at least 2, enables multi-rail striping: large
	// messages are split across up to StripeK link-disjoint routes per
	// node pair (see stripe.go), rate-proportionally. 0 and 1 keep the
	// single-route send path.
	StripeK int
	// StripeThreshold is the minimum message size (bytes) striping is
	// attempted for; smaller messages take the single-rail path. 0 means
	// DefaultStripeThreshold.
	StripeThreshold int
	// FlowControl arms credit-based gateway flow control (see flowctl.go
	// and package flow): senders spend a per-(gateway, sender) credit per
	// wire transfer toward a gateway and the gateway grants credits back as
	// its relay ring frees, so a many-senders incast turns into typed
	// sender-side stalls instead of mailbox pressure. With the
	// deficit-round-robin relay every gateway runs, which equalizes long-run
	// byte rates across ingress flows with or without credits, this is the
	// "regulate the incoming communication flow on gateways" mechanism the
	// paper's conclusion leaves as future work.
	FlowControl bool
	// CreditWindow overrides the per-(gateway, sender) credit window
	// (DefaultCreditWindow when 0). Requires FlowControl.
	CreditWindow int
	// Eager switches forwarded streaming messages to the compact GTM
	// framing (stream.go): the self-description header piggybacks on the
	// first data fragment and the terminator collapses into the last
	// fragment's EOM flag, so a small message crosses each wire once
	// instead of three times. Streaming only — the reliable protocol has
	// its own packet framing.
	Eager bool
	// Aggregation arms the cross-message coalescer (agg.go): consecutive
	// sub-MTU messages toward the same forwarded destination are packed
	// into one MTU-sized aggregate frame and flushed as a single wire
	// transfer (and a single flow-control credit). Direct (one-network)
	// traffic is never aggregated.
	Aggregation bool
}

// DefaultConfig returns the paper's forwarding configuration with a 32 KB
// MTU.
func DefaultConfig() Config {
	return Config{MTU: 32 * 1024, PipelineDepth: 2, ZeroCopy: true}
}

func (c Config) validate() error {
	if c.MTU <= 0 {
		return fmt.Errorf("fwd: MTU must be positive, got %d", c.MTU)
	}
	if c.PipelineDepth < 1 {
		return fmt.Errorf("fwd: PipelineDepth must be at least 1, got %d", c.PipelineDepth)
	}
	if c.InflowLimit < 0 {
		return fmt.Errorf("fwd: negative InflowLimit")
	}
	for name, m := range c.NetMTU {
		if m <= 0 {
			return fmt.Errorf("fwd: NetMTU[%s] must be positive, got %d", name, m)
		}
	}
	if c.FallbackTopo != nil && !c.Reliable {
		return fmt.Errorf("fwd: FallbackTopo requires Reliable")
	}
	if c.StripeK < 0 || c.StripeK > stripeMaxRails {
		return fmt.Errorf("fwd: StripeK must be in [0, %d], got %d", stripeMaxRails, c.StripeK)
	}
	if c.StripeThreshold < 0 {
		return fmt.Errorf("fwd: negative StripeThreshold")
	}
	if c.CreditWindow < 0 {
		return fmt.Errorf("fwd: negative CreditWindow")
	}
	if c.CreditWindow > 0 && !c.FlowControl {
		return fmt.Errorf("fwd: CreditWindow requires FlowControl")
	}
	return nil
}

// Binding ties a topology network to its simulated fabric and protocol
// driver.
type Binding struct {
	Net *hw.Network
	Drv mad.Driver
}

const mergedCap = 4096 // arrivals a node's merged queue holds for its application

// incoming is an announced message on one of a node's regular channels,
// funnelled into the node's merged arrival queue by its polling threads. In
// reliable mode it is instead a fully-reassembled reliable message.
type incoming struct {
	ep  *mad.Endpoint
	a   mad.Arrival
	rel *relMsg
	// mcast is a multicast message a relaying gateway on this node captured
	// for local delivery while replicating it (see mcast.go).
	mcast *mcastLocal
	// ahead is the polling thread's permit, when it took it for this entry
	// (pollAhead): whoever takes the entry off the queue returns it. frame is
	// the aggregate frame of a KindAgg arrival, which that thread received.
	ahead *vsync.Sem
	frame aggRx
}

// VirtualChannel is the user-facing communication object of §2.2.1:
// "instead of simply creating a channel using a network protocol, we now
// create a virtual channel that includes a set of real channels".
type VirtualChannel struct {
	Name string

	sess *mad.Session
	tp   *topo.Topology
	tbl  *route.Table
	cfg  Config

	regular map[string]*mad.Channel // per network name
	special map[string]*mad.Channel // only for networks crossed mid-route
	nodes   map[string]*mad.Node
	eps     map[string]*Endpoint // each node's one endpoint, made by its first At
	merged  map[mad.Rank]*vsync.Chan[incoming]
	gates   map[string]*Gateway

	// Reliable-mode state: one engine per node, in declaration order.
	rel      map[string]*relEngine
	relOrder []string
	// bufs is the free list every reliable datagram's buffer, every
	// aggregate frame and every gateway staging buffer but a driver's static
	// ones is taken from and returned to (pool.go); shared because the node
	// that takes a buffer may hand it over the link to the node that returns
	// it.
	bufs wireBufPool

	// mon is the link-health monitor of a reliable channel; nil in streaming
	// mode.
	mon *health.Monitor

	// msgSeq issues channel-global message IDs at pack time; every layer a
	// message crosses records provenance hops under its ID. Deterministic:
	// the simulation is single-threaded, so pack order fixes the sequence.
	msgSeq uint64

	// stripe holds the multi-rail striping state; nil unless
	// Config.StripeK > 1 (see stripe.go).
	stripe *stripeState

	// pathMTUs caches the negotiated per-pair packet size (Config.NetMTU).
	pathMTUs map[[2]string]int

	// bindings retains every network's fabric and driver: a special channel
	// made on first use is built on them, and the striper and the diagnosis
	// pass read the NIC models.
	bindings map[string]Binding

	// flowc is the credit-based flow controller; nil unless
	// Config.FlowControl is set (see flowctl.go).
	flowc *flowCtl

	// aggst is the cross-message aggregation state (see agg.go); nil
	// unless Config.Aggregation is set.
	aggst *aggState

	// mcastst is the multicast state (see mcast.go): the per-root counts
	// and the sinks' decode scratch.
	mcastst *mcastState
}

// netMTU returns the packet-size cap of one network under the per-path
// negotiation.
func (vc *VirtualChannel) netMTU(name string) int {
	if m, ok := vc.cfg.NetMTU[name]; ok {
		return m
	}
	return vc.cfg.MTU
}

// PathMTU returns the packet size used for messages from src to dst: the
// channel-global MTU normally, or — with a Config.NetMTU — the minimum
// network MTU along the src→dst route, as §2.3 prescribes for a connexion
// spanning several networks. Routes and MTUs are static, so the result is
// cached per ordered pair.
func (vc *VirtualChannel) PathMTU(src, dst string) int {
	if len(vc.cfg.NetMTU) == 0 || src == dst {
		return vc.cfg.MTU
	}
	key := [2]string{src, dst}
	if m, ok := vc.pathMTUs[key]; ok {
		return m
	}
	// Nodes outside the primary topology (reliable-mode fallback nodes) have
	// no table route and keep the global MTU.
	m := vc.cfg.MTU
	var buf [8]route.Hop
	if r, ok := vc.tbl.Hops(src, dst, buf[:0]); ok {
		m = MTUForRoute(r, vc.netMTU)
	}
	vc.pathMTUs[key] = m
	return m
}

// nextMsgID issues the next channel-global message ID (IDs start at 1 so 0
// can mean "unassigned").
func (vc *VirtualChannel) nextMsgID() uint64 {
	vc.msgSeq++
	return vc.msgSeq
}

// metrics returns the platform's registry (nil records nothing).
func (vc *VirtualChannel) metrics() *obs.Registry { return vc.sess.Platform.Metrics }

// hop appends one event to message id's provenance log: the fixed fields
// only, the sentence is put together by whoever reads the log (DESIGN.md §19).
func (vc *VirtualChannel) hop(p *vtime.Proc, id uint64, node, op string, d obs.Detail, bytes int) {
	vc.metrics().RecordHopDetail(id, p.Now(), node, op, d, bytes)
}

// Sentences several hop records share (obs.Detail.Form).
const (
	hopVia         = "${node} -> ${peer} via ${net}"
	hopReassembled = "reassembled at ${node}"
)

// flight returns the platform's flight recorder (nil records nothing).
func (vc *VirtualChannel) flight() *flight.Recorder { return vc.sess.Platform.Flight }

// flightRing returns one node's flight-recorder ring (nil records
// nothing). Callers on hot paths cache the result once it is non-nil.
func (vc *VirtualChannel) flightRing(node string) *flight.Ring {
	return vc.sess.Platform.FlightRing(node)
}

// DiagnosisSignals builds the configuration context flight.Diagnose needs:
// pipeline depth and MTU, plus every bound network's nominal payload send
// rate and bus class, from the NIC models the channel was built with.
func (vc *VirtualChannel) DiagnosisSignals() flight.Signals {
	sig := flight.Signals{
		PipelineDepth: vc.cfg.PipelineDepth,
		MTU:           vc.cfg.MTU,
		NetRate:       make(map[string]float64),
		PIONet:        make(map[string]bool),
		DMANet:        make(map[string]bool),
	}
	for name, b := range vc.bindings {
		nic := b.Drv.NIC()
		rate := nic.EffectiveSendRate(vc.netMTU(name))
		if nic.WireRate > 0 && nic.WireRate < rate {
			rate = nic.WireRate
		}
		sig.NetRate[name] = rate
		switch nic.SendBusClass {
		case fluid.ClassPIO:
			sig.PIONet[name] = true
		case fluid.ClassDMA:
			sig.DMANet[name] = true
		}
	}
	return sig
}

// Build creates the nodes, real channels, routing table and gateway engines
// of a virtual channel over the given topology. The session must be empty:
// the virtual channel owns the node set. Bindings must cover every network
// of the topology. A streaming channel is rejected when a network's NIC
// WireLatency exceeds its nodes' CPU.SwapOverhead: a gateway returns a
// staging buffer one buffer switch after its send, before such a wire has
// read it.
func Build(sess *mad.Session, tp *topo.Topology, bindings map[string]Binding, cfg Config) (*VirtualChannel, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if len(sess.Nodes()) != 0 {
		return nil, fmt.Errorf("fwd: session already has nodes; Build owns node creation")
	}
	// In reliable mode with a fallback topology, nodes and real channels
	// are built over the fallback (superset) topology so the alternate
	// networks exist as forwarding paths; routing still prefers tp.
	buildTopo := tp
	if cfg.Reliable && cfg.FallbackTopo != nil {
		buildTopo = cfg.FallbackTopo
		for _, n := range tp.Nodes() {
			if _, ok := buildTopo.Node(n.Name); !ok {
				return nil, fmt.Errorf("fwd: FallbackTopo is missing node %s", n.Name)
			}
		}
		for _, nw := range tp.Networks() {
			if _, ok := buildTopo.Network(nw.Name); !ok {
				return nil, fmt.Errorf("fwd: FallbackTopo is missing network %s", nw.Name)
			}
		}
	}
	for _, nw := range buildTopo.Networks() {
		if _, ok := bindings[nw.Name]; !ok {
			return nil, fmt.Errorf("fwd: no binding for network %s", nw.Name)
		}
	}

	vc := &VirtualChannel{
		Name:    "vchan",
		sess:    sess,
		tp:      tp,
		cfg:     cfg,
		regular: make(map[string]*mad.Channel),
		special: make(map[string]*mad.Channel),
		nodes:   make(map[string]*mad.Node),
		eps:     make(map[string]*Endpoint),
		merged:  make(map[mad.Rank]*vsync.Chan[incoming]),
		gates:   make(map[string]*Gateway),

		pathMTUs: make(map[[2]string]int),
		bindings: bindings,
		mcastst:  &mcastState{roots: make(map[string]*mcastRoot), hdrDescs: make(map[int][]mad.BlockDesc)},
	}
	if cfg.FlowControl {
		vc.flowc = newFlowCtl(vc, cfg.CreditWindow)
	}
	for _, n := range buildTopo.Nodes() {
		vc.nodes[n.Name] = sess.AddNode(n.Name)
	}
	if cfg.Aggregation {
		vc.aggst = newAggState(len(sess.Nodes()))
	}
	vc.tbl = route.Compute(tp)

	// Regular channels: one per network over all attached nodes.
	for _, nw := range buildTopo.Networks() {
		vc.regular[nw.Name] = vc.newChannel("reg:", nw)
	}

	// Per-node merged arrival queues.
	for _, n := range buildTopo.Nodes() {
		node := vc.nodes[n.Name]
		vc.merged[node.Rank] = vsync.NewChan[incoming](fmt.Sprintf("merged:%s", n.Name), mergedCap)
	}

	if cfg.StripeK > 1 {
		vc.initStriping()
	}

	if cfg.Reliable {
		sim := sess.Platform.Sim
		vc.mon = health.NewMonitor(health.DefaultConfig(), tp, cfg.FallbackTopo,
			sess.Platform.Metrics, sim.After, sim.Now)
		// Health-epoch churn is a flight-recorder dump trigger: route
		// changes are exactly the moments whose surrounding event history a
		// post-mortem wants. The recorder is read through the platform at
		// call time, so one armed after Build still sees epoch changes.
		vc.mon.SetEpochHook(func(epoch uint64, at vtime.Time) {
			vc.flightRing("health").Record(flight.KindEpoch, at, 0, 0, int(epoch), "")
			vc.flight().Dump(fmt.Sprintf("health-epoch-%d", epoch))
		})
		vc.relOrder = buildTopo.NodeNames()
		vc.buildReliable(buildTopo)
		return vc, nil
	}

	for _, nw := range tp.Networks() {
		lat := bindings[nw.Name].Drv.NIC().WireLatency
		for _, m := range nw.Members {
			if swap := vc.nodes[m].Host.CPU.SwapOverhead; lat > swap {
				return nil, fmt.Errorf("fwd: network %s: wire latency %v exceeds the %v buffer switch of node %s", nw.Name, lat, swap, m)
			}
		}
	}

	// The merged queues are fed by one polling thread per (node, regular
	// channel) — "a polling mechanism ... to poll multiple networks at
	// the same time" (§2.2.2).
	sim := sess.Platform.Sim
	for _, n := range tp.Nodes() {
		node := vc.nodes[n.Name]
		q := vc.merged[node.Rank]
		for _, nwName := range n.Networks {
			ep := vc.regular[nwName].At(node)
			var ahead *vsync.Sem // the thread's own: see DESIGN.md §24
			if cfg.Aggregation {
				ahead = vsync.NewSem(1)
			}
			sim.SpawnDaemon(fmt.Sprintf("poll:%s:%s", n.Name, nwName), func(p *vtime.Proc) {
				for {
					in := incoming{ep: ep, a: ep.NextArrival(p)}
					if ahead != nil {
						vc.pollAhead(p, node, ahead, &in)
					}
					q.Send(p, in)
				}
			})
		}
	}

	// Every table route, walked off its source's search tree into buf, gets
	// what relaying it needs; a striped pair's rails get it on the pair's
	// first send (stripeRoutes).
	names := tp.NodeNames()
	var buf [8]route.Hop
	for _, src := range names {
		for _, dst := range names {
			if src == dst {
				continue
			}
			r, ok := vc.tbl.Hops(src, dst, buf[:0])
			if !ok {
				return nil, fmt.Errorf("fwd: no route %s -> %s", src, dst)
			}
			vc.equip(r)
		}
	}
	return vc, nil
}

// newChannel makes a real channel over every node attached to a network.
func (vc *VirtualChannel) newChannel(prefix string, nw *topo.Network) *mad.Channel {
	b := vc.bindings[nw.Name]
	members := make([]*mad.Node, len(nw.Members))
	for i, m := range nw.Members {
		members[i] = vc.nodes[m]
	}
	return vc.sess.NewChannel(prefix+nw.Name, b.Net, b.Drv, members...)
}

// equip gives a route what relaying it needs: on every node it relays
// through, a gateway engine polling the special channel of the network the
// route arrives by, each made on first need. Build equips every table route
// and stripeRoutes a pair's rails, so a gateway that only unused rails would
// cross is never made.
func (vc *VirtualChannel) equip(r route.Route) {
	for _, hop := range r[:len(r)-1] {
		g := vc.gates[hop.To]
		if g == nil {
			g = newGateway(vc, vc.nodes[hop.To])
			vc.gates[hop.To] = g
		}
		g.listen(hop.Network)
	}
}

// pollAhead is the sink's half of the aggregated path's pipeline (DESIGN.md
// §24): the polling thread receives an announced aggregate frame itself, so
// frame k+1 crosses the wire while the application unpacks frame k. It runs
// one forwarded stream ahead of the application, no more: it takes its permit
// before it queues one, and the application returns it as it takes the entry
// and opens the stream. So a sink holds two frames at most, and a frame is
// received only once every stream ahead of it on the gateway's link is open.
// The frame arrives as the coalescer's own buffer, with the descriptor pair it
// left with, handed over at every hop (DESIGN.md §29).
func (vc *VirtualChannel) pollAhead(p *vtime.Proc, node *mad.Node, ahead *vsync.Sem, in *incoming) {
	if framingOf(in.a.Kind()) == nil {
		return
	}
	ahead.Acquire(p, 1)
	in.ahead = ahead
	if in.a.Kind() == mad.KindAgg {
		o := vc.openStream(p, node, in.a, nil)
		in.a.Link.ReleaseRecv(p)
		in.frame = vc.aggOpen(o.src, o.payload, o.head, (*[2]mad.BlockDesc)(o.meta.Blocks))
	}
}

// Session returns the underlying Madeleine session.
func (vc *VirtualChannel) Session() *mad.Session { return vc.sess }

// Table returns the routing table.
func (vc *VirtualChannel) Table() *route.Table { return vc.tbl }

// Config returns the forwarding configuration.
func (vc *VirtualChannel) Config() Config { return vc.cfg }

// Health returns the link-health monitor of a reliable channel; nil in
// streaming mode.
func (vc *VirtualChannel) Health() *health.Monitor { return vc.mon }

// Gateways returns the names of the nodes running forwarding engines,
// sorted by name in the routing table's sense.
func (vc *VirtualChannel) Gateways() []string {
	var out []string
	for name := range vc.gates {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// NodeRank returns the session rank of a topology node.
func (vc *VirtualChannel) NodeRank(name string) mad.Rank {
	n, ok := vc.nodes[name]
	if !ok {
		panic("fwd: unknown node " + name)
	}
	return n.Rank
}

// Endpoint is a virtual channel as seen from one node.
type Endpoint struct {
	vc   *VirtualChannel
	node *mad.Node
}

// At returns the endpoint of the named node, the same one every time.
func (vc *VirtualChannel) At(name string) *Endpoint {
	if ep := vc.eps[name]; ep != nil {
		return ep
	}
	n, ok := vc.nodes[name]
	if !ok {
		panic("fwd: unknown node " + name)
	}
	ep := &Endpoint{vc: vc, node: n}
	vc.eps[name] = ep
	return ep
}

// Node returns the endpoint's session node.
func (e *Endpoint) Node() *mad.Node { return e.node }

// packer is the sender side of one framing: the plain Madeleine message of
// a direct route, the GTM stream, the compact, aggregated, striped and
// multicast forms, or the reliable protocol. BeginPacking picks one; Pack
// and EndPacking only forward.
type packer interface {
	pack(p *vtime.Proc, data []byte, s mad.SendMode, r mad.RecvMode)
	end(p *vtime.Proc)
}

// unpacker is the receiver side of one framing, picked by BeginUnpacking
// from the arrival note.
type unpacker interface {
	unpack(p *vtime.Proc, dst []byte, s mad.SendMode, r mad.RecvMode)
	end(p *vtime.Proc)
}

// plainPacking and plainUnpacking give a direct route's Madeleine message
// the framing interface; they are conversions, not wrappers, so opening one
// allocates nothing beyond the mad object itself.
type plainPacking mad.Packing

func (x *plainPacking) pack(p *vtime.Proc, data []byte, s mad.SendMode, r mad.RecvMode) {
	(*mad.Packing)(x).Pack(p, data, s, r)
}
func (x *plainPacking) end(p *vtime.Proc) { (*mad.Packing)(x).EndPacking(p) }

type plainUnpacking mad.Unpacking

func (x *plainUnpacking) unpack(p *vtime.Proc, dst []byte, s mad.SendMode, r mad.RecvMode) {
	(*mad.Unpacking)(x).Unpack(p, dst, s, r)
}
func (x *plainUnpacking) end(p *vtime.Proc) { (*mad.Unpacking)(x).EndUnpacking(p) }

// Packing is an outgoing message on a virtual channel. Depending on the
// route it is either a plain Madeleine message on the regular channel or a
// self-described GTM message on the special channel toward the first
// gateway; the application cannot tell the difference.
type Packing struct {
	x     packer
	id    uint64
	ended bool
}

// bind makes px, the handle field of the framing record x, the handle of
// message id: the record is the one allocation a message's sender side makes.
func (px *Packing) bind(x packer, id uint64) *Packing {
	px.x, px.id = x, id
	return px
}

// MsgID returns the message's channel-global ID, assigned at BeginPacking.
// Registry.MessageTrace(id) reconstructs the message's hop-by-hop provenance
// when metrics are armed.
func (px *Packing) MsgID() uint64 { return px.id }

// BeginPacking starts a message to the named destination, choosing "the
// appropriate underlying real channel ... dynamically depending whether it
// is necessary to forward the message through a gateway or not" (§2.2.1).
func (e *Endpoint) BeginPacking(p *vtime.Proc, dst string) *Packing {
	if dst == e.node.Name {
		panic("fwd: message to self on " + dst)
	}
	// Aggregation: every message toward a forwarded (multi-network)
	// destination is offered to the coalescer; messages that turn out too
	// large bypass (or spill back to the streaming path) from there.
	if e.vc.cfg.Aggregation {
		if hop, ok := e.vc.tbl.NextHop(e.node.Name, dst); ok && hop.To != dst {
			ax := &aggPacking{blockBuf: e.vc.buffer(e.node), dst: dst}
			e.vc.hop(p, ax.id, e.node.Name, "pack", obs.Detail{Form: "agg -> ${peer}", Peer: dst}, 0)
			return ax.handle.bind(ax, ax.id)
		}
	}
	if e.vc.cfg.Reliable {
		// Reliable datagram mode: every message, direct or forwarded,
		// takes the uniform packet path; routes are found per packet
		// so they can change under faults.
		if _, ok := e.vc.nodes[dst]; !ok {
			panic("fwd: unknown destination " + dst)
		}
		bp := &bufPacking{blockBuf: e.vc.buffer(e.node), dst: dst}
		e.vc.hop(p, bp.id, e.node.Name, "pack", obs.Detail{Form: "reliable -> ${peer}", Peer: dst}, 0)
		return bp.handle.bind(bp, bp.id)
	}
	// Striping: when the pair has at least two disjoint rails, buffer the
	// message and let EndPacking split it (or send it down the single rail
	// below the size threshold).
	if rails := len(e.vc.stripeRoutes(e.node.Name, dst)); rails >= 2 {
		bp := &bufPacking{blockBuf: e.vc.buffer(e.node), dst: dst}
		e.vc.hop(p, bp.id, e.node.Name, "pack", obs.Detail{Form: "stripe -> ${peer} (${a} rails)", Peer: dst, A: rails}, 0)
		return bp.handle.bind(bp, bp.id)
	}
	hop, link := e.vc.firstHop(e.node, dst)
	id := e.vc.nextMsgID()
	if link == nil {
		e.vc.hop(p, id, e.node.Name, "pack", obs.Detail{Form: "direct -> ${peer} via ${net}", Peer: dst, Net: hop.Network}, 0)
		return &Packing{x: e.vc.openSingleRail(p, e.node, dst, hop, link, id), id: id}
	}
	// A stream is recorded once it is open: taking the link, and the seed
	// framing's header transfer, may take time.
	x := e.vc.beginStream(p, e.node, dst, link, id)
	form := "gtm -> ${peer} via ${net}"
	if e.vc.cfg.Eager {
		form = "eager -> ${peer} via ${net}"
	}
	e.vc.hop(p, id, e.node.Name, "pack", obs.Detail{Form: form, Peer: dst, Net: hop.Network}, 0)
	return x.handle.bind(x, id)
}

// firstHop returns where a single-rail message from a node toward dst leaves:
// the first hop of the table route and, unless that hop ends at dst, the link
// it takes toward the first gateway (nil for a direct route, which needs none).
func (vc *VirtualChannel) firstHop(from *mad.Node, dst string) (route.Hop, *mad.Link) {
	hop, ok := vc.tbl.NextHop(from.Name, dst)
	if !ok {
		panic(fmt.Sprintf("fwd: no route %s -> %s", from.Name, dst))
	}
	if hop.To == dst {
		return hop, nil
	}
	link, _ := vc.hopLink(from, hop, true)
	return hop, link
}

// openSingleRail opens message id on the path firstHop found, the framing every
// sender-side module ends in unless it stripes or runs the reliable protocol: a
// plain Madeleine message on the regular channel when the route is direct, else
// a stream toward the first gateway (beginStream).
func (vc *VirtualChannel) openSingleRail(p *vtime.Proc, from *mad.Node, dst string, hop route.Hop, link *mad.Link, id uint64) packer {
	if link == nil {
		return (*plainPacking)(vc.regular[hop.Network].At(from).BeginPacking(p, vc.NodeRank(dst)))
	}
	return vc.beginStream(p, from, dst, link, id)
}

// beginStream opens message id as a stream on link toward the first gateway,
// compact under Config.Eager, seed GTM if not.
func (vc *VirtualChannel) beginStream(p *vtime.Proc, from *mad.Node, dst string, link *mad.Link, id uint64) *streamPacking {
	kind := mad.KindGTM
	if vc.cfg.Eager {
		kind = mad.KindEager
	}
	x := &streamPacking{streamTx: streamTx{vc: vc, link: link, kind: kind, spends: true}}
	x.spare = &x.pair // the record lives for this one message
	x.open(p, streamHdr{src: from.Rank, dst: vc.NodeRank(dst), mtu: vc.PathMTU(from.Name, dst), id: id})
	return x
}

// replay packs buffered blocks into x with the modes they were packed with
// (the receiver mirrors them against the wire descriptors).
func replay(p *vtime.Proc, x packer, blocks []relBlock) {
	for _, b := range blocks {
		x.pack(p, b.data, b.s, b.r)
	}
}

// Pack appends one block, as in the mad layer.
func (px *Packing) Pack(p *vtime.Proc, data []byte, s mad.SendMode, r mad.RecvMode) {
	if px.ended {
		panic("fwd: Pack after EndPacking")
	}
	px.x.pack(p, data, s, r)
}

// EndPacking completes the message.
func (px *Packing) EndPacking(p *vtime.Proc) {
	if px.ended {
		panic("fwd: double EndPacking")
	}
	px.ended = true
	px.x.end(p)
}

// Unpacking is an incoming message on a virtual channel.
type Unpacking struct {
	x     unpacker
	from  mad.Rank
	fwd   bool
	ended bool
}

// bind makes u, the handle field of the framing record x, the handle of a
// message from rank from: the record is the one allocation a message's
// receiver side makes.
func (u *Unpacking) bind(x unpacker, from mad.Rank, fwd bool) *Unpacking {
	u.x, u.from, u.fwd = x, from, fwd
	return u
}

// BeginUnpacking blocks until a message arrives on any of the node's
// regular channels and opens it with the module its arrival note selects —
// "to be able to chose between a regular Transmission Module and the
// Generic one, it needs some additional information ... transmitted before
// the actual message body" (§2.2.2).
func (e *Endpoint) BeginUnpacking(p *vtime.Proc) *Unpacking {
	for polled := false; ; polled = true {
		// A frame's sub-messages come FIFO before anything newer, from memory:
		// PollCost, a probe of the networks, is paid on the way to the queue.
		if rx, sub, ok := e.vc.aggPop(e.node.Rank); ok {
			u := &aggUnpacking{vc: e.vc, node: e.node, sub: sub, fr: rx.fr}
			return u.handle.bind(u, rx.from, true)
		}
		if !polled {
			p.Sleep(e.node.Host.CPU.PollCost)
		}
		in, ok := e.vc.merged[e.node.Rank].Recv(p)
		if !ok {
			panic("fwd: merged arrival queue closed")
		}
		if in.ahead != nil {
			in.ahead.Release(1)
		}
		if in.mcast != nil {
			// A multicast message the local gateway captured while
			// replicating it downstream.
			g := &streamUnpacking{}
			g.openCaptured(e.vc, e.node, in.mcast)
			return g.handle.bind(g, in.mcast.h.src, true)
		}
		if in.rel != nil {
			if in.rel.agg {
				e.vc.aggDecodeReliable(p, e.node, in.rel)
				continue
			}
			ru := &relUnpacking{eng: e.vc.rel[e.node.Name], m: in.rel, nextFrag: 1}
			srcName := e.vc.sess.Node(in.rel.origin).Name
			fwd := len(e.vc.tp.SharedNetworks(srcName, e.node.Name)) == 0
			return ru.handle.bind(ru, in.rel.origin, fwd)
		}
		switch in.a.Kind() {
		case mad.KindStripe:
			// One rail of a striped message: file it and keep pulling
			// until some message (striped or not) is complete.
			switch g := e.vc.openStripeRail(p, e.node, in.a); {
			case g == nil:
			case g.agg:
				e.vc.aggDecodeStriped(p, e.node, g)
			default:
				su := &stripeUnpacking{vc: e.vc, node: e.node, g: g}
				return su.handle.bind(su, su.from(), su.forwarded())
			}
		case mad.KindAgg:
			// A whole aggregate frame, which the polling thread received:
			// deliver its first sub-message on the next spin.
			e.vc.aggst.rx[e.node.Rank] = append(e.vc.aggst.rx[e.node.Rank], in.frame)
		case mad.KindGTM, mad.KindEager, mad.KindMcast:
			g := &streamUnpacking{}
			return g.handle.bind(g, g.open(p, e.vc, e.node, in.a).src, true)
		default:
			u := in.ep.Open(p, &in.a)
			return &Unpacking{x: (*plainUnpacking)(u), from: u.From()}
		}
	}
}

// From returns the rank of the message's original sender, even across
// gateways.
func (u *Unpacking) From() mad.Rank { return u.from }

// Forwarded reports whether the message crossed at least one gateway.
func (u *Unpacking) Forwarded() bool { return u.fwd }

// Unpack extracts the next block, mirroring the sender's Pack exactly.
func (u *Unpacking) Unpack(p *vtime.Proc, dst []byte, s mad.SendMode, r mad.RecvMode) {
	if u.ended {
		panic("fwd: Unpack after EndUnpacking")
	}
	u.x.unpack(p, dst, s, r)
}

// EndUnpacking completes the message.
func (u *Unpacking) EndUnpacking(p *vtime.Proc) {
	if u.ended {
		panic("fwd: double EndUnpacking")
	}
	u.ended = true
	u.x.end(p)
}
