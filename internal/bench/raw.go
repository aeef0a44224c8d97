package bench

import (
	"madgo/internal/baseline"
	"madgo/internal/hw"
	"madgo/internal/mad"
	"madgo/internal/topo"
	"madgo/internal/vtime"
)

// The fixtures of this file are not virtual channels, so they are not
// assembled by package assembly: a raw Madeleine channel between two nodes,
// and the application-level relay of package baseline, which has a binding
// type of its own. They share its driver table.

// RawPair is a two-node, single-network fixture for the raw (no gateway)
// measurements of §3.2.2.
type RawPair struct {
	Sim  *vtime.Sim
	Sess *mad.Session
	Ch   *mad.Channel
	A, B *mad.Node
}

// NewRawPair builds two nodes connected by the given protocol.
func NewRawPair(protocol string) *RawPair {
	return newRawPair(protocol, mustDriver(protocol))
}

// newRawPair is NewRawPair with the driver given — a7 wraps one to switch
// its scatter/gather capability off.
func newRawPair(protocol string, drv mad.Driver) *RawPair {
	sim := vtime.New()
	pl := hw.NewPlatform(sim)
	sess := mad.NewSession(pl)
	a := sess.AddNode("a")
	b := sess.AddNode("b")
	net := pl.NewNetwork(protocol+"0", drv.NIC())
	ch := sess.NewChannel("raw:"+protocol, net, drv, a, b)
	return &RawPair{Sim: sim, Sess: sess, Ch: ch, A: a, B: b}
}

// OneWaySeries measures direct one-way times for each size on the pair.
func (rp *RawPair) OneWaySeries(sizes []int) []vtime.Duration {
	return rp.oneWay(sizes, 1)
}

// oneWay is OneWaySeries with message i packed as the given number of
// blocks of sizes[i] bytes each (a7 sends many small ones).
func (rp *RawPair) oneWay(sizes []int, blocks int) []vtime.Duration {
	out := make([]vtime.Duration, len(sizes))
	starts := make([]vtime.Time, len(sizes))
	rp.Sim.Spawn("raw-send", func(p *vtime.Proc) {
		for i, n := range sizes {
			starts[i] = p.Now()
			px := rp.Ch.At(rp.A).BeginPacking(p, rp.B.Rank)
			for b := 0; b < blocks; b++ {
				px.Pack(p, make([]byte, n), mad.SendCheaper, mad.ReceiveCheaper)
			}
			px.EndPacking(p)
		}
	})
	rp.Sim.Spawn("raw-recv", func(p *vtime.Proc) {
		for i, n := range sizes {
			u := rp.Ch.At(rp.B).BeginUnpacking(p)
			for b := 0; b < blocks; b++ {
				u.Unpack(p, make([]byte, n), mad.SendCheaper, mad.ReceiveCheaper)
			}
			u.EndUnpacking(p)
			out[i] = vtime.Since(p.Now(), starts[i])
		}
	})
	if err := rp.Sim.Run(); err != nil {
		panic(err)
	}
	return out
}

// BaselineBed is the testbed variant running an application-level relay
// (Nexus-style, or PACX-style with the TCP option) instead of the
// integrated forwarding.
type BaselineBed struct {
	Sim   *vtime.Sim
	Sess  *mad.Session
	Relay *baseline.Relay
}

// NewBaselineBed builds the full paper testbed (including Ethernet) under
// the baseline relay.
func NewBaselineBed(pacx bool) *BaselineBed {
	tp := topo.PaperTestbed()
	sim := vtime.New()
	pl := hw.NewPlatform(sim)
	sess := mad.NewSession(pl)
	bindings := make(map[string]baseline.Binding)
	for _, nw := range tp.Networks() {
		drv := mustDriver(nw.Protocol)
		bindings[nw.Name] = baseline.Binding{Net: pl.NewNetwork(nw.Name, drv.NIC()), Drv: drv}
	}
	opts := baseline.Options{RouteNetworks: []string{"sci0", "myri0"}}
	if pacx {
		opts.InterClusterNet = "eth0"
	}
	relay, err := baseline.Build(sess, tp, bindings, opts)
	if err != nil {
		panic(err)
	}
	return &BaselineBed{Sim: sim, Sess: sess, Relay: relay}
}

// OneWaySeries measures relay one-way times src→dst for each size.
func (bb *BaselineBed) OneWaySeries(src, dst string, sizes []int) []vtime.Duration {
	out := make([]vtime.Duration, len(sizes))
	starts := make([]vtime.Time, len(sizes))
	bb.Sim.Spawn("bl-send", func(p *vtime.Proc) {
		for i, n := range sizes {
			starts[i] = p.Now()
			bb.Relay.Send(p, src, dst, [][]byte{make([]byte, n)})
			// Pace the sender: wait for an app-level ack so messages
			// do not overlap in the relay.
			msg := bb.Relay.Recv(p, src)
			if len(msg.Blocks) != 1 || len(msg.Blocks[0]) != 1 {
				panic("bench: bad baseline ack")
			}
		}
	})
	bb.Sim.Spawn("bl-recv", func(p *vtime.Proc) {
		for i, n := range sizes {
			msg := bb.Relay.Recv(p, dst)
			if len(msg.Blocks[0]) != n {
				panic("bench: baseline payload size mismatch")
			}
			out[i] = vtime.Since(p.Now(), starts[i])
			bb.Relay.Send(p, dst, src, [][]byte{{0xAC}})
		}
	})
	if err := bb.Sim.Run(); err != nil {
		panic(err)
	}
	return out
}
