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
	// cut down to the smallest network anywhere in the configuration. Build
	// rejects a key that names no network of the topology or FallbackTopo.
	NetMTU map[string]int
	// InflowLimit, when positive (bytes/s), throttles each gateway
	// forwarder's receive loop to that rate — the "sophisticated
	// bandwidth control mechanism [to] regulate the incoming
	// communication flow on gateways" the paper's conclusion calls for
	// (ablation A4).
	InflowLimit float64
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
	// Eager arms the small-message path in both modes: consecutive messages
	// toward a forwarded destination leave packed into one aggregate frame
	// (agg.go), and a streamed one too large for a frame in the compact GTM
	// framing (stream.go), header and terminator riding its fragments.
	Eager bool
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
// funnelled into the node's merged arrival queue by its polling threads, or a
// message the node holds whole (heldMsg); an entry with neither wakes a
// process to share a frame another one took (aggQueue).
type incoming struct {
	ep   *mad.Endpoint
	a    mad.Arrival
	held *heldMsg
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
	// bufs is the pool every byte buffer of the channel is taken from and
	// returned to — what lands in driver memory, reliable datagrams, frames,
	// gateway staging buffers and a driver's static ones (pool.go); its
	// channels draw from it, and it is shared because the node that takes a
	// buffer may hand it over the link to the node that returns it.
	bufs mad.Pool
	// recs are the free lists of the framing records a message's End is done
	// with (pool.go).
	recs records

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

	// aggst is the cross-message aggregation state (see agg.go); nil
	// unless Config.Eager is set.
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
	for name := range cfg.NetMTU {
		if _, ok := buildTopo.Network(name); !ok {
			return nil, fmt.Errorf("fwd: NetMTU names network %s, which the topology does not have", name)
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
	for _, n := range buildTopo.Nodes() {
		vc.nodes[n.Name] = sess.AddNode(n.Name)
	}
	if cfg.Eager {
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
		vc.mon = health.New(tp, cfg.FallbackTopo, sess.Platform.Metrics, sim.After, sim.Now)
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
			if cfg.Eager {
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

// newChannel makes a real channel over every node attached to a network,
// drawing from the virtual channel's pool.
func (vc *VirtualChannel) newChannel(prefix string, nw *topo.Network) *mad.Channel {
	b := vc.bindings[nw.Name]
	members := make([]*mad.Node, len(nw.Members))
	for i, m := range nw.Members {
		members[i] = vc.nodes[m]
	}
	return vc.sess.NewChannelIn(&vc.bufs, prefix+nw.Name, b.Net, b.Drv, members...)
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
		in.frame = vc.aggOpen(o.src, o.payload, o.head, o.meta.Blocks)
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

// packer is the sender side of a message: a direct route's plain Madeleine
// message, or the GTM record whose fields pick the stream, the compact,
// aggregated, striped, multicast or reliable form. BeginPacking picks one;
// Pack and EndPacking only forward.
type packer interface {
	pack(p *vtime.Proc, data []byte, s mad.SendMode, r mad.RecvMode)
	end(p *vtime.Proc)
}

// unpacker is the receiver side of a message — plain, GTM or a coalesced
// sub-message — picked by BeginUnpacking from the arrival note.
type unpacker interface {
	unpack(p *vtime.Proc, dst []byte, s mad.SendMode, r mad.RecvMode)
	end(p *vtime.Proc)
}

// plainPacking and plainUnpacking give a direct route's Madeleine message
// the framing interface and a generation; they are reused (records), so
// opening one allocates nothing beyond the mad object itself.
type plainPacking struct {
	framingRec[plainPacking]
	vc *VirtualChannel
	m  *mad.Packing
}

func (x *plainPacking) pack(p *vtime.Proc, data []byte, s mad.SendMode, r mad.RecvMode) {
	x.m.Pack(p, data, s, r)
}

func (x *plainPacking) end(p *vtime.Proc) {
	x.m.EndPacking(p)
	x.vc.recs.plainPacking.retire(x, &x.gen)
}

type plainUnpacking struct {
	framingRec[plainUnpacking]
	vc *VirtualChannel
	m  *mad.Unpacking
}

func (x *plainUnpacking) unpack(p *vtime.Proc, dst []byte, s mad.SendMode, r mad.RecvMode) {
	x.m.Unpack(p, dst, s, r)
}

func (x *plainUnpacking) end(p *vtime.Proc) {
	x.m.EndUnpacking(p)
	x.vc.recs.plainUnpacking.retire(x, &x.gen)
}

// Packing is an outgoing message on a virtual channel. Depending on the
// route it is either a plain Madeleine message on the regular channel or a
// self-described GTM message on the special channel toward the first
// gateway; the application cannot tell the difference.
//
// It is a handle on the framing record x that serves the message, and holds
// the record's generation as it was when the message opened. EndPacking bumps
// it, and a record whose life ends there serves a later message (pool.go), so
// an ended handle, a copy of it, or one whose record serves a newer message
// no longer matches and panics.
type Packing struct {
	x   packer
	id  uint64
	gen *uint32 // the record's generation
	at  uint32  // and what it was when the message opened
}

// MsgID returns the message's channel-global ID, assigned at BeginPacking.
// Registry.MessageTrace(id) reconstructs the message's hop-by-hop provenance
// when metrics are armed.
func (px *Packing) MsgID() uint64 { return px.id }

// BeginPacking starts a message to the named destination, choosing "the
// appropriate underlying real channel ... dynamically depending whether it
// is necessary to forward the message through a gateway or not" (§2.2.1).
func (e *Endpoint) BeginPacking(p *vtime.Proc, dst string) *Packing {
	px := e.beginPacking(p, dst)
	return &px
}

// beginPacking is BeginPacking but for the handle's address: the wrapper is
// left small enough for the compiler to inline, so a caller that keeps the
// handle to itself keeps it on its stack.
func (e *Endpoint) beginPacking(p *vtime.Proc, dst string) Packing {
	if dst == e.node.Name {
		panic("fwd: message to self on " + dst)
	}
	// Under Eager every message toward a forwarded (multi-network)
	// destination is offered to the coalescer; messages that turn out too
	// large bypass (or spill back to the streaming path) from there. The
	// others of a pair that buffers go by sendBuffered at EndPacking. The
	// table is the topology's, fixed at Build — a failover moves packets, not
	// this choice — so a reliable pair numbers all its messages or none, as
	// its sink's sequence needs (relEngine.inOrder).
	coalesce := false
	if e.vc.cfg.Eager {
		hop, ok := e.vc.tbl.NextHop(e.node.Name, dst)
		coalesce = ok && hop.To != dst
	}
	whole, d := coalesce, obs.Detail{Form: "agg -> ${peer}", Peer: dst}
	if !coalesce {
		var rails int
		whole, rails = e.vc.buffers(e.node.Name, dst)
		d.Form = "reliable -> ${peer}"
		if rails > 0 {
			d.Form, d.A = "stripe -> ${peer} (${a} rails)", rails
		}
	}
	if whole {
		if _, ok := e.vc.nodes[dst]; !ok {
			panic("fwd: unknown destination " + dst)
		}
		x := e.vc.packer(e.node, dst)
		x.coalesce = coalesce
		e.vc.hop(p, x.id, e.node.Name, "pack", d, 0)
		return Packing{x, x.id, &x.gen, x.gen}
	}
	hop, link := e.vc.firstHop(e.node, dst)
	if link == nil {
		id := e.vc.nextMsgID()
		e.vc.hop(p, id, e.node.Name, "pack", obs.Detail{Form: "direct -> ${peer} via ${net}", Peer: dst, Net: hop.Network}, 0)
		x := e.vc.openPlain(p, e.node, dst, hop)
		return Packing{x, id, &x.gen, x.gen}
	}
	// A stream is recorded once it is open: taking the link, and the seed
	// framing's header transfer, may take time.
	x := e.vc.packer(e.node, dst)
	x.stream(p, link)
	e.vc.hop(p, x.id, e.node.Name, "pack", obs.Detail{Form: "gtm -> ${peer} via ${net}", Peer: dst, Net: hop.Network}, 0)
	return Packing{x, x.id, &x.gen, x.gen}
}

// buffers reports whether a pair's messages are buffered whole for
// sendBuffered — all in reliable mode, else a pair's with two rails or more —
// and the pair's rail count, 0 in reliable mode.
func (vc *VirtualChannel) buffers(src, dst string) (whole bool, rails int) {
	if vc.cfg.Reliable {
		return true, 0
	}
	rails = len(vc.stripeRoutes(src, dst))
	return rails >= 2, rails
}

// gtmPacking is the one sender record of a GTM message, whatever its framing;
// its fields are what differs. It streams as packed (its stream open: the seed
// and eager framings) or buffers its blocks for the coalescer (coalesce), for
// sendBuffered at EndPacking or for a multicast. SendSafer pays its snapshot
// copy at once, the other blocks are referenced until EndPacking returns, and
// so is the record. A message for the coalescer that outgrows a frame on a
// pair that does not buffer turns into a stream mid-Pack (spill), keeping its
// fragment-level pipelining through the gateways. The coalescer keeps one for
// its frame in flight (wire).
type gtmPacking struct {
	framingRec[gtmPacking]
	// The message's stream, open once it has a link; its vc and id are the
	// message's from the start, and a multicast's mtu is its tree MTU, the
	// least path MTU over the destinations, so one fragment size fits every
	// subtree — §2.3's connexion-MTU rule extended to trees.
	streamTx
	node *mad.Node
	// cost is the host's pack cost per buffered block, buffering being a pass
	// over the blocks; zero for a multicast, which sends them by reference like
	// the seed's.
	cost  vtime.Duration
	blks  []relBlock // in storage the record keeps (retire)
	total int
	// One destination, or a destination set (ascending, deduplicated, the
	// root excluded; split in place).
	dst      string
	dests    []mad.Rank
	coalesce bool   // offered to the coalescer at EndPacking
	wire     []byte // the aggregate frame the blocks lie in, a coalescer's
	seq      uint32 // the message's number in its pair's sequence, which a coalescer gave it; 0 for none
	// The rails of a striped message and their split.
	rails []route.Route
	plan  stripePlan
}

// packer takes a sender record off the free list for a new message from node
// to dst.
func (vc *VirtualChannel) packer(node *mad.Node, dst string) *gtmPacking {
	x := vc.recs.gtmPacking.get()
	x.vc, x.node, x.dst, x.id, x.cost = vc, node, dst, vc.nextMsgID(), node.Host.CPU.PackCost
	return x
}

func (x *gtmPacking) pack(p *vtime.Proc, data []byte, s mad.SendMode, r mad.RecvMode) {
	if x.link != nil {
		x.block(p, x.vc.stageBlock(p, x.node, x.id, 0, data, s), s, r)
		return
	}
	data = x.vc.stageBlock(p, x.node, x.id, x.cost, data, s)
	x.blks = append(x.blks, relBlock{data: data, s: s, r: r})
	x.total += len(data)
	if !x.coalesce {
		return
	}
	if whole, _ := x.vc.buffers(x.node.Name, x.dst); !whole && outgrowsFrame(len(x.blks), x.total, x.vc.PathMTU(x.node.Name, x.dst)) {
		x.spill(p)
	}
}

func (x *gtmPacking) end(p *vtime.Proc) {
	switch {
	case x.link != nil:
		x.streamTx.end(p)
	case len(x.dests) > 0:
		x.multicast(p)
	case x.coalesce:
		x.vc.aggCoalescer(x.node, x.dst).add(p, x)
	default:
		x.vc.sendBuffered(p, x)
	}
	x.retire()
}

// retire puts x back on its free list, zeroed but for its generation and its
// lists' storage, which serves the record's next message.
func (x *gtmPacking) retire() {
	recs, blks, ds, pl := &x.vc.recs, x.blks, x.dests[:0], x.plan
	clear(blks)
	recs.gtmPacking.retire(x, &x.gen)
	x.blks, x.dests, x.plan = blks[:0], ds, pl
}

// stream opens x as a stream on link toward the first gateway, compact under
// Config.Eager, seed GTM if not, and sends the blocks buffered so far as Pack
// staged them, with the modes they were packed with (the receiver mirrors them
// against the wire descriptors); later blocks stream as they are packed.
func (x *gtmPacking) stream(p *vtime.Proc, link *mad.Link) {
	kind := mad.KindGTM
	if x.vc.cfg.Eager {
		kind = mad.KindEager
	}
	x.link, x.kind = link, kind
	x.open(p, streamHdr{src: x.node.Rank, dst: x.vc.NodeRank(x.dst), mtu: x.vc.PathMTU(x.node.Name, x.dst), id: x.id})
	for _, b := range x.blks {
		x.block(p, b.data, b.s, b.r)
	}
}

// sendBuffered is the one place that decides how a message buffered whole
// leaves: through the reliable engine, handed the pair's rails when it has two
// (sendMessage stripes or picks one); over the pair's rails when it has two
// and the message reaches the stripe threshold; else down one rail, as a
// compact KindAgg transfer when it is a coalescer's frame (marked flagAgg on
// the other two), in the framing Config.Eager names if not. A reliable message
// returns once its sink acknowledged it, but a frame once it is queued: the
// frame's record keeps its buffer and frees its slot of the coalescer's window
// when the sink acknowledges it. A streaming frame's buffer is filed for the
// sink to return before the rails send it by reference.
func (vc *VirtualChannel) sendBuffered(p *vtime.Proc, x *gtmPacking) {
	node, dst := x.node, x.dst
	rails := vc.stripeRoutes(node.Name, dst)
	if len(rails) < 2 {
		rails = nil
	}
	stripe := rails != nil && x.total >= DefaultStripeThreshold
	switch {
	case vc.cfg.Reliable && x.wire != nil:
		m := vc.rel[node.Name].startMessage(p, dst, x.blks, x.id, x.seq, flagAgg, rails, stripe)
		m.wire, m.co = x.wire, vc.aggCoalescer(node, dst)
	case vc.cfg.Reliable:
		e := vc.rel[node.Name]
		e.awaitMessage(p, e.startMessage(p, dst, x.blks, x.id, x.seq, 0, rails, stripe))
	case stripe && vc.planStripe(p, &x.plan, x.id, node.Name, dst, rails, int64(x.total), nil):
		if x.wire != nil {
			vc.aggst.striped[x.id] = x.wire
		}
		x.rails = rails
		vc.runRails(p, node, x, len(rails))
	case x.wire != nil:
		// The header goes into the frame's reserved prefix; the frame and a
		// descriptor pair are handed hop by hop to the sink, which returns both.
		_, link := vc.firstHop(node, dst)
		tx := streamTx{vc: vc, link: link, kind: mad.KindAgg}
		tx.open(p, streamHdr{src: node.Rank, dst: vc.NodeRank(dst), mtu: vc.PathMTU(node.Name, dst), id: x.id})
		tx.message(p, x.blks, x.total, x.wire)
	default:
		hop, link := vc.firstHop(node, dst)
		if rails != nil {
			form := "gtm -> ${peer} via ${net} (below stripe threshold)"
			switch {
			case link == nil:
				form = "direct -> ${peer} via ${net} (below stripe threshold)"
			case vc.cfg.Eager:
				form = "eager -> ${peer} via ${net} (below stripe threshold)"
			}
			vc.hop(p, x.id, node.Name, "pack", obs.Detail{Form: form, Peer: dst, Net: hop.Network}, 0)
		}
		if link != nil {
			x.stream(p, link)
			x.streamTx.end(p)
			return
		}
		// A direct route: mad's own Pack takes the blocks again.
		m := vc.openPlain(p, node, dst, hop)
		for _, b := range x.blks {
			m.pack(p, b.data, b.s, b.r)
		}
		m.end(p)
	}
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
	return hop, vc.hopLink(from, hop, true)
}

// openPlain opens a plain Madeleine message on the regular channel of a
// direct route's one hop.
func (vc *VirtualChannel) openPlain(p *vtime.Proc, from *mad.Node, dst string, hop route.Hop) *plainPacking {
	x := vc.recs.plainPacking.get()
	x.vc, x.m = vc, vc.regular[hop.Network].At(from).BeginPacking(p, vc.NodeRank(dst))
	return x
}

// Pack appends one block, as in the mad layer.
func (px *Packing) Pack(p *vtime.Proc, data []byte, s mad.SendMode, r mad.RecvMode) {
	if *px.gen != px.at {
		panic("fwd: Pack after EndPacking")
	}
	px.x.pack(p, data, s, r)
}

// EndPacking completes the message.
func (px *Packing) EndPacking(p *vtime.Proc) {
	if *px.gen != px.at {
		panic("fwd: double EndPacking")
	}
	*px.gen++
	px.x.end(p)
}

// Unpacking is an incoming message on a virtual channel: a handle, like
// Packing, on the framing record x that serves the message.
type Unpacking struct {
	x    unpacker
	from mad.Rank
	fwd  bool
	gen  *uint32 // the record's generation
	at   uint32  // and what it was when the message opened
}

// BeginUnpacking blocks until a message arrives on any of the node's
// regular channels and opens it with the module its arrival note selects —
// "to be able to chose between a regular Transmission Module and the
// Generic one, it needs some additional information ... transmitted before
// the actual message body" (§2.2.2).
func (e *Endpoint) BeginUnpacking(p *vtime.Proc) *Unpacking {
	u := e.beginUnpacking(p)
	return &u
}

// beginUnpacking is BeginUnpacking but for the handle's address
// (beginPacking).
func (e *Endpoint) beginUnpacking(p *vtime.Proc) Unpacking {
	for polled := false; ; polled = true {
		// A frame's sub-messages come FIFO before anything newer, from memory:
		// PollCost, a probe of the networks, is paid on the way to the queue.
		if rx, sub, ok := e.vc.aggPop(e.node.Rank); ok {
			u := e.vc.recs.aggUnpacking.get()
			u.vc, u.node, u.sub, u.fr = e.vc, e.node, sub, rx.fr
			return Unpacking{u, rx.from, true, &u.gen, u.gen}
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
		if h := in.held; h != nil {
			if h.agg {
				e.vc.aggDecodeReliable(p, e.node, h)
				continue
			}
			g := e.vc.recs.streamUnpacking.get()
			rx := g.rail()
			rx.vc, rx.node, rx.kind, rx.eom, rx.held = e.vc, e.node, mad.KindMcast, true, h
			rx.h.src, rx.h.mtu, rx.h.id = h.src, h.mtu, h.id
			return Unpacking{g, h.src, !h.direct, &g.gen, g.gen}
		}
		if in.ep == nil {
			continue // woken to share a frame (aggQueue)
		}
		switch in.a.Kind() {
		case mad.KindStripe:
			// One rail of a striped message: file it and keep pulling
			// until some message (striped or not) is complete.
			switch u := e.vc.openRail(p, e.node, in.a); {
			case u == nil:
			case u.anyRail(flagAgg):
				e.vc.aggDecodeStriped(p, e.node, u)
			default:
				return Unpacking{u, u.rails[0].h.src, u.anyRail(stripeFlagForwarded), &u.gen, u.gen}
			}
		case mad.KindAgg:
			// A whole aggregate frame, which the polling thread received:
			// deliver its first sub-message on the next spin.
			e.vc.aggQueue(e.node.Rank, in.frame)
		case mad.KindGTM, mad.KindEager, mad.KindMcast:
			g := e.vc.recs.streamUnpacking.get()
			return Unpacking{g, g.rail().open(p, e.vc, e.node, in.a).src, true, &g.gen, g.gen}
		default:
			x := e.vc.recs.plainUnpacking.get()
			x.vc, x.m = e.vc, in.ep.Open(p, &in.a)
			return Unpacking{x, x.m.From(), false, &x.gen, x.gen}
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
	if *u.gen != u.at {
		panic("fwd: Unpack after EndUnpacking")
	}
	u.x.unpack(p, dst, s, r)
}

// EndUnpacking completes the message.
func (u *Unpacking) EndUnpacking(p *vtime.Proc) {
	if *u.gen != u.at {
		panic("fwd: double EndUnpacking")
	}
	*u.gen++
	u.x.end(p)
}
