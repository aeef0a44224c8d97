// Package hw is the hardware catalogue of the reproduction: PCI buses with
// the arbitration behaviour measured in the paper, network wires, NIC
// parameter sets for the four modelled interconnects, and host CPU costs.
//
// Everything here is a *model* of the paper's testbed (dual Pentium II 450
// nodes, 33 MHz/32-bit PCI, Myrinet LANai 4.3 + BIP, Dolphin SCI D310 +
// SISCI, Fast Ethernet). The calibration anchors and their provenance are
// documented in EXPERIMENTS.md; the parameters live in this package so every
// experiment shares one source of truth.
package hw

import (
	"fmt"
	"sort"

	"madgo/internal/fault"
	"madgo/internal/flight"
	"madgo/internal/fluid"
	"madgo/internal/obs"
	"madgo/internal/vtime"
)

// MB is the decimal megabyte the paper uses for bandwidth figures.
const MB = 1e6

// PCIParams describes a host's PCI bus.
type PCIParams struct {
	// AggregateCapacity is the practical total throughput of concurrent
	// transactions in bytes/s. The 33 MHz/32-bit bus signals 132 MB/s;
	// after arbitration, turnaround and retry overheads the paper's
	// full-duplex measurements point to ≈90 MB/s of useful payload.
	AggregateCapacity float64
	// PIOUnderDMA is the demand multiplier applied to PIO transactions
	// while at least one DMA transaction is active: the paper measures
	// that card-initiated DMA outranks processor PIO and halves its
	// progress (§3.4.1), hence 0.5.
	PIOUnderDMA float64
}

// DefaultPCI returns the bus parameters of the paper's nodes.
func DefaultPCI() PCIParams {
	return PCIParams{AggregateCapacity: 90 * MB, PIOUnderDMA: 0.5}
}

// Policy converts the parameters into a fluid arbitration policy.
func (p PCIParams) Policy() fluid.AdjustFunc {
	factor := p.PIOUnderDMA
	return func(self fluid.Presence, active []fluid.Presence) float64 {
		if self.Class != fluid.ClassPIO {
			return 1
		}
		for _, a := range active {
			if a.Class == fluid.ClassDMA {
				return factor
			}
		}
		return 1
	}
}

// CPUParams holds the host software costs.
type CPUParams struct {
	// MemcpyRate is the sustained memory-copy bandwidth. A 450 MHz
	// Pentium II moves roughly 160 MB/s, which is why the paper
	// insists a copy "can take as much time as the reception of a
	// message".
	MemcpyRate float64
	// SwapOverhead is the software cost of one buffer switch in the
	// gateway pipeline; the paper's §3.3.1 accounting puts it at ≈40 µs.
	SwapOverhead vtime.Duration
	// PollCost is the cost of probing one channel for an incoming
	// message.
	PollCost vtime.Duration
	// PackCost is the fixed software cost of one pack/unpack call
	// (flag decoding, iovec bookkeeping).
	PackCost vtime.Duration
}

// DefaultCPU returns the host software costs of the paper's nodes.
func DefaultCPU() CPUParams {
	return CPUParams{
		MemcpyRate:   160 * MB,
		SwapOverhead: 40 * vtime.Microsecond,
		PollCost:     2 * vtime.Microsecond,
		PackCost:     300 * vtime.Nanosecond,
	}
}

// Platform ties a simulation to a fluid engine and owns hosts and networks.
type Platform struct {
	Sim    *vtime.Sim
	Engine *fluid.Engine
	// Faults is the armed fault injector, nil when fault injection is
	// off. The link engine consults it on every reliable transmission.
	Faults *fault.Injector
	// Metrics is the platform-wide metrics registry; nil (recording
	// nothing) unless SetMetrics armed one. Every layer with a path to the
	// platform records through it.
	Metrics *obs.Registry
	// Flight is the always-on flight recorder; nil (recording nothing)
	// unless SetFlight armed one. Instrumentation looks its per-node ring
	// up lazily, so the recorder may be armed before or after the
	// forwarding layer is built.
	Flight   *flight.Recorder
	hosts    map[string]*Host
	networks []*Network
	bound    []Instrumented // in Instrument order
}

// Instrumented is an object with metrics of its own: obs.Counter fields, which
// count with or without a registry, and gauge and histogram handles.
// BindMetrics attaches the counters to their series in m — in addition to any
// registry they are attached to, so nothing counted is lost — and binds the
// handles in m (nil handles for a nil m).
type Instrumented interface{ BindMetrics(m *obs.Registry) }

// NewPlatform creates a platform on the given simulation.
func NewPlatform(sim *vtime.Sim) *Platform {
	pl := &Platform{Sim: sim, Engine: fluid.NewEngine(sim), hosts: make(map[string]*Host)}
	pl.Instrument(pl.Engine)
	return pl
}

// Instrument binds x's metrics in the platform's registry, now if one is armed
// and again whenever SetMetrics arms another. It is the one place that knows a
// registry may arrive after the objects that write to it: they call Instrument
// when they are built and then just write (DESIGN.md §19); with none armed
// that costs nothing, x's counters being its own fields (DESIGN.md §21).
func (pl *Platform) Instrument(x Instrumented) {
	pl.bound = append(pl.bound, x)
	if pl.Metrics != nil {
		x.BindMetrics(pl.Metrics)
	}
}

// SetMetrics arms a metrics registry on the platform: it gets the simulation
// clock, and everything instrumented so far (the fluid engine, hosts, links,
// an armed fault injector, the forwarding layer) binds its metrics in it. One
// armed after traffic shows every counter at what it has counted so far;
// gauges and histograms, which live in the registry, start empty.
func (pl *Platform) SetMetrics(m *obs.Registry) {
	pl.Metrics = m
	m.SetClock(pl.Sim.Now)
	for _, x := range pl.bound {
		x.BindMetrics(m)
	}
}

// SetFlight arms a flight recorder on the platform and gives it the
// simulation clock for stamping dumps.
func (pl *Platform) SetFlight(rec *flight.Recorder) {
	pl.Flight = rec
	rec.SetClock(pl.Sim.Now)
}

// FlightRing returns the flight-recorder ring of the named node, or nil
// when no recorder is armed. Nil rings record nothing, so callers cache
// the result only once it is non-nil.
func (pl *Platform) FlightRing(node string) *flight.Ring {
	return pl.Flight.Ring(node)
}

// ArmFaults installs a fault injector on the platform and schedules its
// flap/crash windows: when a window opens, every in-flight fluid flow
// crossing the affected wires (flap) or the crashed host's bus (crash) is
// cancelled — the bytes already committed to a dead medium are lost, not
// delivered late. The windows themselves are read from the plan (package
// trace draws the started ones). Probabilistic drop/corruption needs no
// arming; the link engine queries the injector per packet.
func (pl *Platform) ArmFaults(inj *fault.Injector) {
	if pl.Faults != nil {
		panic("hw: ArmFaults called twice")
	}
	pl.Faults = inj
	pl.Instrument(inj)
	for _, w := range inj.Windows() {
		w := w
		pl.Sim.At(w.At, func() {
			switch w.Kind {
			case fault.Flap:
				for _, n := range pl.networks {
					if n.Name == w.Net {
						for _, wire := range n.sortedWires() {
							pl.Engine.CancelOn(wire)
						}
					}
				}
			case fault.Crash:
				if h, ok := pl.hosts[w.Node]; ok {
					pl.Engine.CancelOn(h.Bus)
				}
			}
		})
	}
}

// Host is one machine: a PCI bus plus CPU cost parameters and copy
// accounting.
type Host struct {
	Name string
	Bus  *fluid.Resource
	CPU  CPUParams

	memcpys, memcpyBytes obs.Counter // the copy accounting: calls and bytes
}

// NewHost registers a machine. Host names must be unique.
func (pl *Platform) NewHost(name string, cpu CPUParams, pci PCIParams) *Host {
	if _, dup := pl.hosts[name]; dup {
		panic("hw: duplicate host " + name)
	}
	h := &Host{
		Name: name,
		Bus:  pl.Engine.NewResource("pci:"+name, pci.AggregateCapacity, pci.Policy()),
		CPU:  cpu,
	}
	pl.hosts[name] = h
	pl.Instrument(h)
	return h
}

// BindMetrics attaches the host's copy accounting to its series in m.
func (h *Host) BindMetrics(m *obs.Registry) {
	labels := obs.Labels{"node": h.Name}
	m.BindCounter(&h.memcpys, "madgo_memcpy_total", labels)
	m.BindCounter(&h.memcpyBytes, "madgo_memcpy_bytes_total", labels)
}

// Host looks up a registered machine.
func (pl *Platform) Host(name string) *Host {
	h, ok := pl.hosts[name]
	if !ok {
		panic("hw: unknown host " + name)
	}
	return h
}

// Memcpy charges the calling process for a CPU copy of n bytes and records
// it in the host's copy accounting. It is the only way library code is
// allowed to copy payload: the counters are what the zero-copy tests assert
// on.
func (h *Host) Memcpy(p *vtime.Proc, n int) {
	if n < 0 {
		panic("hw: negative memcpy")
	}
	h.memcpys.Add(1)
	h.memcpyBytes.Add(int64(n))
	if n > 0 {
		p.Sleep(vtime.DurationOfBytes(int64(n), h.CPU.MemcpyRate))
	}
}

// Copies returns how many times this host's CPU was made to copy payload.
func (h *Host) Copies() int64 { return h.memcpys.Count() }

// BytesCopied returns the total bytes this host's CPU was made to copy.
func (h *Host) BytesCopied() int64 { return h.memcpyBytes.Count() }

// NICParams models one interconnect technology as seen through its
// low-level API (BIP, SISCI, kernel sockets, SBP).
type NICParams struct {
	Protocol string

	// WireRate and WireLatency describe the cable/switch path.
	WireRate    float64
	WireLatency vtime.Duration

	// SendEngineRate is the rate at which the sending side can push
	// payload across its PCI bus (DMA engine or PIO loop); SendBusClass
	// says which kind of PCI transaction that is. RecvEngineRate and the
	// receive class describe the landing side (always card-initiated DMA
	// on our four networks).
	SendEngineRate float64
	SendBusClass   fluid.Class
	RecvEngineRate float64
	RecvBusClass   fluid.Class

	// SendOverhead/RecvOverhead are the per-message host software costs
	// of the low-level API (descriptor posting, completion handling).
	SendOverhead vtime.Duration
	RecvOverhead vtime.Duration

	// RendezvousThreshold, when nonzero, makes messages strictly larger
	// than the threshold pay RendezvousCost (the BIP long-message
	// request/ack handshake).
	RendezvousThreshold int
	RendezvousCost      vtime.Duration

	// WriteCombining: transfers smaller than WCChunk bytes cannot be
	// write-combined and fall back to SmallWriteRate (SCI PIO).
	WCChunk        int
	SmallWriteRate float64

	// StaticBuffers marks protocols (SBP) that can only transmit from
	// driver-allocated buffers; StaticBufSize is their slot size.
	StaticBuffers bool
	StaticBufSize int

	// EagerCredits is the flow-control window of the eager path: how
	// many transmissions may be in flight or unconsumed at the receiver
	// before the sender blocks (the SISCI ring slots / BIP credits).
	// Zero means unlimited (test drivers). Rendezvous transfers gate
	// themselves and do not consume credits.
	EagerCredits int

	// PostGateThreshold, when nonzero, makes eager transmissions
	// strictly larger than the threshold wait until the receiver has
	// posted a destination before streaming — the SISCI pattern of
	// writing large payloads into an exposed remote buffer rather than
	// the bounded message ring. Unlike a rendezvous there is no
	// handshake cost: the sender polls a remote flag.
	PostGateThreshold int
}

// EffectiveSendRate returns the send-engine rate for a transfer of n bytes,
// accounting for write combining.
func (n NICParams) EffectiveSendRate(bytes int) float64 {
	if n.WCChunk > 0 && bytes < n.WCChunk && n.SmallWriteRate > 0 {
		return n.SmallWriteRate
	}
	return n.SendEngineRate
}

// Myrinet returns the LANai 4.3 + BIP model.
//
// Anchors: BIP latency ≈13 µs; asymptotic one-way bandwidth ≈47 MB/s
// (32-bit PCI DMA limited, the paper's "maximum one-way bandwidth one can
// get over a 32 bit PCI bus in practice" is just above 40); the long-message
// rendezvous makes SCI win below ≈16 KB, the crossover the paper uses to
// pick the packet size.
func Myrinet() NICParams {
	return NICParams{
		Protocol:            "myrinet",
		WireRate:            160 * MB, // 1.28 Gb/s LAN links
		WireLatency:         1500 * vtime.Nanosecond,
		SendEngineRate:      47 * MB,
		SendBusClass:        fluid.ClassDMA,
		RecvEngineRate:      47 * MB,
		RecvBusClass:        fluid.ClassDMA,
		SendOverhead:        6 * vtime.Microsecond,
		RecvOverhead:        5 * vtime.Microsecond,
		RendezvousThreshold: 4096,
		RendezvousCost:      17 * vtime.Microsecond,
		EagerCredits:        2,
	}
}

// SCI returns the Dolphin D310 + SISCI model.
//
// Anchors: SISCI latency ≈4 µs; PIO send with write combining sustains
// ≈44 MB/s; sub-chunk writes collapse to ≈12 MB/s; remote writes land on
// the receiving bus as card-initiated DMA.
func SCI() NICParams {
	return NICParams{
		Protocol:          "sci",
		WireRate:          85 * MB,
		WireLatency:       1 * vtime.Microsecond,
		SendEngineRate:    44 * MB,
		SendBusClass:      fluid.ClassPIO,
		RecvEngineRate:    44 * MB,
		RecvBusClass:      fluid.ClassDMA,
		SendOverhead:      2 * vtime.Microsecond,
		RecvOverhead:      1 * vtime.Microsecond,
		WCChunk:           128,
		SmallWriteRate:    12 * MB,
		EagerCredits:      1,
		PostGateThreshold: 4096,
	}
}

// SCIDMA returns the SCI model with the board's DMA engine driving sends
// instead of processor PIO — the workaround the paper's §3.4.1 proposes for
// the gateway bus conflict ("using the SCI DMA engine instead of PIO
// operations to send buffers over SCI").
//
// The D310's DMA engine is slower than write-combined PIO (≈35 vs 44 MB/s)
// and pays a descriptor-setup cost per transfer, which is why PIO is the
// default; but DMA transactions are not demoted under concurrent Myrinet
// DMA, so a gateway's Myrinet→SCI pipeline keeps its send rate.
func SCIDMA() NICParams {
	p := SCI()
	p.SendEngineRate = 35 * MB
	p.SendBusClass = fluid.ClassDMA
	p.SendOverhead = 8 * vtime.Microsecond // DMA descriptor setup
	p.WCChunk = 0                          // write combining is a PIO concept
	p.SmallWriteRate = 0
	return p
}

// FastEthernet returns the 100 Mb/s TCP model used for the control/ack
// path.
func FastEthernet() NICParams {
	return NICParams{
		Protocol:       "ethernet",
		WireRate:       12.5 * MB,
		WireLatency:    5 * vtime.Microsecond,
		SendEngineRate: 11.5 * MB,
		SendBusClass:   fluid.ClassDMA,
		RecvEngineRate: 11.5 * MB,
		RecvBusClass:   fluid.ClassDMA,
		SendOverhead:   25 * vtime.Microsecond,
		RecvOverhead:   30 * vtime.Microsecond,
		EagerCredits:   8,
	}
}

// SBP returns the static-buffer kernel protocol model of Russell & Hatcher
// that the paper cites as the network class requiring driver-owned send
// buffers (§2.3).
func SBP() NICParams {
	return NICParams{
		Protocol:       "sbp",
		WireRate:       33 * MB,
		WireLatency:    3 * vtime.Microsecond,
		SendEngineRate: 30 * MB,
		SendBusClass:   fluid.ClassDMA,
		RecvEngineRate: 30 * MB,
		RecvBusClass:   fluid.ClassDMA,
		SendOverhead:   8 * vtime.Microsecond,
		RecvOverhead:   8 * vtime.Microsecond,
		StaticBuffers:  true,
		StaticBufSize:  32 * 1024,
		EagerCredits:   2,
	}
}

// ParamsFor returns the NIC model for a protocol name.
func ParamsFor(protocol string) NICParams {
	switch protocol {
	case "myrinet":
		return Myrinet()
	case "sci":
		return SCI()
	case "ethernet":
		return FastEthernet()
	case "sbp":
		return SBP()
	default:
		panic(fmt.Sprintf("hw: unknown protocol %q", protocol))
	}
}

// Network is one physical interconnect instance: a NIC model plus one wire
// resource per directed host pair (the switched-fabric assumption: distinct
// pairs do not contend on the cable; they still contend on the PCI buses).
type Network struct {
	Name     string
	NIC      NICParams
	platform *Platform
	wires    map[[2]string]*fluid.Resource
	spare    []fluid.Resource // the rest of the last batch of wires allocated
}

// NewNetwork creates a network instance with the given NIC model.
func (pl *Platform) NewNetwork(name string, nic NICParams) *Network {
	n := &Network{Name: name, NIC: nic, platform: pl, wires: make(map[[2]string]*fluid.Resource)}
	pl.networks = append(pl.networks, n)
	return n
}

// sortedWires returns the network's wire resources in deterministic
// (from, to) order, for fault-window flow cancellation.
func (n *Network) sortedWires() []*fluid.Resource {
	keys := make([][2]string, 0, len(n.wires))
	for k := range n.wires {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	out := make([]*fluid.Resource, len(keys))
	for i, k := range keys {
		out[i] = n.wires[k]
	}
	return out
}

// Wire returns the cable resource for the directed pair (from, to),
// creating it, named name, on first use: when the first link between the two
// on any channel of the network is brought up. The caller builds the name,
// "wire:<net>:<from>-><to>", in one string with its link's other names; a
// wire that exists already ignores it. A wire costs its share of a batch:
// records are allocated as many at a time as the network has wires so far, up
// to 64, so n wires take about 6 + n/64 allocations and leave fewer than
// min(n, 64) records spare.
func (n *Network) Wire(from, to, name string) *fluid.Resource {
	key := [2]string{from, to}
	if w, ok := n.wires[key]; ok {
		return w
	}
	if len(n.spare) == 0 {
		n.spare = make([]fluid.Resource, min(max(1, len(n.wires)), 64))
	}
	w := &n.spare[0]
	n.spare = n.spare[1:]
	n.platform.Engine.InitResource(w, name, n.NIC.WireRate, nil)
	n.wires[key] = w
	return w
}
