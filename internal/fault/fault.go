// Package fault is the deterministic fault-injection substrate of the
// reproduction: seeded, schedule-driven injectors that the hardware model
// consults on every reliable transmission. A fault Plan is a declarative
// schedule — packet drop/corruption probabilities, link flaps, NIC stalls
// and node crash/restart windows — and an Injector is one armed instance of
// a plan, reproducible bit-for-bit from the plan's seed.
//
// The injector is deliberately dumb: it answers point queries ("does this
// packet survive?", "is this node dead right now?") and keeps counters. The
// reliability protocol in package fwd is what turns injected faults into
// retransmissions, failovers and typed delivery errors; flow teardown on
// link-down windows is armed by hw.Platform.ArmFaults.
package fault

import (
	"fmt"
	"sort"

	"madgo/internal/obs"
	"madgo/internal/vtime"
)

// Kind is the class of one fault rule.
type Kind uint8

const (
	// Drop loses matching packets with probability Prob.
	Drop Kind = iota
	// Corrupt flips one byte of matching packets with probability Prob.
	Corrupt
	// Flap takes a whole network down for the window [At, At+For): every
	// packet on it is lost and in-flight flows are cancelled.
	Flap
	// Stall delays every send from a node by Delay during [At, At+For):
	// a wedged NIC engine that still eventually completes.
	Stall
	// Crash blackholes a node for [At, At+For): everything it sends or
	// should receive is lost. For == 0 means it never restarts.
	Crash
)

func (k Kind) String() string {
	switch k {
	case Drop:
		return "drop"
	case Corrupt:
		return "corrupt"
	case Flap:
		return "flap"
	case Stall:
		return "stall"
	case Crash:
		return "crash"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Rule is one entry of a fault schedule. Which fields matter depends on
// Kind; the builder methods on Plan fill them consistently.
type Rule struct {
	Kind Kind
	// Net filters Drop/Corrupt/Flap rules to one network; "" or "*"
	// matches every network.
	Net string
	// Node names the target of Stall/Crash rules.
	Node string
	// Prob is the per-packet probability of Drop/Corrupt rules.
	Prob float64
	// At and For bound the window of Flap/Stall/Crash rules. For == 0
	// means the window never closes.
	At  vtime.Time
	For vtime.Duration
	// Delay is the extra per-send latency of a Stall rule.
	Delay vtime.Duration
}

func (r Rule) matchesNet(net string) bool {
	return r.Net == "" || r.Net == "*" || r.Net == net
}

func (r Rule) active(now vtime.Time) bool {
	if now < r.At {
		return false
	}
	return r.For == 0 || now < r.At.Add(r.For)
}

// Plan is a reproducible fault schedule: a seed plus rules. The zero value
// is a valid empty plan; use the builder methods to grow one.
type Plan struct {
	Seed  int64
	Rules []Rule
}

// NewPlan returns an empty plan with the given seed.
func NewPlan(seed int64) *Plan { return &Plan{Seed: seed} }

// Drop adds a packet-loss rule: packets on net (or every network for "*")
// are lost with probability prob.
func (p *Plan) Drop(net string, prob float64) *Plan {
	p.Rules = append(p.Rules, Rule{Kind: Drop, Net: net, Prob: prob})
	return p
}

// Corrupt adds a corruption rule: one byte of matching packets is flipped
// with probability prob.
func (p *Plan) Corrupt(net string, prob float64) *Plan {
	p.Rules = append(p.Rules, Rule{Kind: Corrupt, Net: net, Prob: prob})
	return p
}

// Flap takes net down for the window [at, at+dur); dur == 0 means forever.
func (p *Plan) Flap(net string, at vtime.Time, dur vtime.Duration) *Plan {
	p.Rules = append(p.Rules, Rule{Kind: Flap, Net: net, At: at, For: dur})
	return p
}

// Stall delays every send from node by delay during [at, at+dur).
func (p *Plan) Stall(node string, at vtime.Time, dur, delay vtime.Duration) *Plan {
	p.Rules = append(p.Rules, Rule{Kind: Stall, Node: node, At: at, For: dur, Delay: delay})
	return p
}

// Crash blackholes node for [at, at+dur); dur == 0 means it never restarts.
func (p *Plan) Crash(node string, at vtime.Time, dur vtime.Duration) *Plan {
	p.Rules = append(p.Rules, Rule{Kind: Crash, Node: node, At: at, For: dur})
	return p
}

// Validate checks probabilities and windows.
func (p *Plan) Validate() error {
	for i, r := range p.Rules {
		switch r.Kind {
		case Drop, Corrupt:
			if r.Prob < 0 || r.Prob > 1 {
				return fmt.Errorf("fault: rule %d: probability %v out of [0,1]", i, r.Prob)
			}
		case Flap:
			if r.Net == "" || r.Net == "*" {
				return fmt.Errorf("fault: rule %d: flap needs a concrete network", i)
			}
		case Stall, Crash:
			if r.Node == "" {
				return fmt.Errorf("fault: rule %d: %v needs a node", i, r.Kind)
			}
		}
		if r.At < 0 || r.For < 0 || r.Delay < 0 {
			return fmt.Errorf("fault: rule %d: negative time", i)
		}
	}
	return nil
}

// Window is one scheduled down-window of a plan (flap or crash), in a form
// the hardware layer can arm cancellations and trace spans from.
type Window struct {
	Kind Kind
	Net  string // Flap
	Node string // Crash
	At   vtime.Time
	For  vtime.Duration // 0 = forever
}

// prng is a splitmix64 generator: tiny, fast and stable across Go releases,
// so fault schedules replay identically forever.
type prng struct{ state uint64 }

func (r *prng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a uniform draw in [0, 1).
func (r *prng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// intn returns a uniform draw in [0, n).
func (r *prng) intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(r.next() % uint64(n))
}

// Verdict is the injector's decision on one packet.
type Verdict uint8

const (
	// Deliver lets the packet through unharmed.
	Deliver Verdict = iota
	// DropPacket loses the packet silently.
	DropPacket
	// CorruptPacket flips one byte of the receiver-side copy.
	CorruptPacket
)

// Injector is one armed instance of a plan. All of simulation runs
// single-threaded, so the injector needs no locking; determinism holds
// because queries happen in scheduler order, which the seeded kernel fixes.
type Injector struct {
	plan    *Plan
	rng     prng
	metrics *obs.Registry
	series  map[[2]string]*obs.Counter // madgo_faults_total{kind,net}, by {kind, net}
}

// New arms a plan. The link that asks for a verdict records the faults it
// is dealt on its node's flight ring.
func New(p *Plan) *Injector {
	return &Injector{plan: p, rng: prng{state: uint64(p.Seed)}}
}

// BindMetrics arms a metrics registry: every injected fault, those counted
// already included, shows under madgo_faults_total{kind,net}.
func (in *Injector) BindMetrics(m *obs.Registry) {
	in.metrics = m
	for key, c := range in.series {
		bindFaults(m, c, key)
	}
}

func bindFaults(m *obs.Registry, c *obs.Counter, key [2]string) {
	m.BindCounter(c, "madgo_faults_total", obs.Labels{"kind": key[0], "net": key[1]})
}

// record counts one injected fault under {kind, net}.
func (in *Injector) record(kind, net string) {
	key := [2]string{kind, net}
	c := in.series[key]
	if c == nil {
		c = new(obs.Counter)
		bindFaults(in.metrics, c, key)
		if in.series == nil {
			in.series = make(map[[2]string]*obs.Counter)
		}
		in.series[key] = c
	}
	c.Add(1)
}

// count sums the faults of one kind over every network.
func (in *Injector) count(kind string) (n int64) {
	for key, c := range in.series {
		if key[0] == kind {
			n += c.Count()
		}
	}
	return n
}

// Dropped returns how many packets the injector lost (including blackholed
// ones during crash and flap windows).
func (in *Injector) Dropped() int64 { return in.count("blackhole") + in.count("drop") }

// Corrupted returns how many packets the injector corrupted.
func (in *Injector) Corrupted() int64 { return in.count("corrupt") }

// NodeDead reports whether node is inside a crash window at time now.
func (in *Injector) NodeDead(node string, now vtime.Time) bool {
	for _, r := range in.plan.Rules {
		if r.Kind == Crash && r.Node == node && r.active(now) {
			return true
		}
	}
	return false
}

// LinkDown reports whether net is inside a flap window at time now.
func (in *Injector) LinkDown(net string, now vtime.Time) bool {
	for _, r := range in.plan.Rules {
		if r.Kind == Flap && r.matchesNet(net) && r.active(now) {
			return true
		}
	}
	return false
}

// StallDelay returns the extra send latency node suffers at time now (the
// sum over active stall windows; zero when healthy).
func (in *Injector) StallDelay(node string, now vtime.Time) vtime.Duration {
	var d vtime.Duration
	for _, r := range in.plan.Rules {
		if r.Kind == Stall && r.Node == node && r.active(now) {
			d += r.Delay
		}
	}
	return d
}

// Blackholed reports whether a packet crossing net from `from` to `to` at
// time now falls into a crash or flap window, and counts it lost if so.
func (in *Injector) Blackholed(net, from, to string, now vtime.Time) bool {
	if in.NodeDead(from, now) || in.NodeDead(to, now) || in.LinkDown(net, now) {
		in.record("blackhole", net)
		return true
	}
	return false
}

// Packet decides the fate of one packet of `size` bytes crossing net from
// `from` to `to` at time now. Crash and flap windows blackhole
// deterministically without consuming randomness; otherwise one draw decides
// loss and, if the packet survives, one more decides corruption (plus a
// position draw). The returned int is the byte offset to flip for
// CorruptPacket verdicts.
func (in *Injector) Packet(net, from, to string, now vtime.Time, size int) (Verdict, int) {
	if in.Blackholed(net, from, to, now) {
		return DropPacket, 0
	}
	if p := in.prob(Drop, net); p > 0 && in.rng.float() < p {
		in.record("drop", net)
		return DropPacket, 0
	}
	if p := in.prob(Corrupt, net); p > 0 && in.rng.float() < p {
		in.record("corrupt", net)
		return CorruptPacket, in.rng.intn(size)
	}
	return Deliver, 0
}

// prob combines every matching probability rule of the given kind:
// independent loss processes compose as 1 - prod(1-p).
func (in *Injector) prob(k Kind, net string) float64 {
	keep := 1.0
	for _, r := range in.plan.Rules {
		if r.Kind == k && r.matchesNet(net) {
			keep *= 1 - r.Prob
		}
	}
	return 1 - keep
}

// Windows returns the plan's flap and crash windows sorted by start time
// (ties by rule order), for hw.Platform.ArmFaults to schedule flow
// cancellation and trace spans.
func (in *Injector) Windows() []Window {
	var out []Window
	for _, r := range in.plan.Rules {
		switch r.Kind {
		case Flap:
			out = append(out, Window{Kind: Flap, Net: r.Net, At: r.At, For: r.For})
		case Crash:
			out = append(out, Window{Kind: Crash, Node: r.Node, At: r.At, For: r.For})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}
