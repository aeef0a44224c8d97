package fwd_test

import (
	"bytes"
	"fmt"
	"testing"

	"madgo/internal/fault"
	"madgo/internal/fwd"
	"madgo/internal/mad"
	"madgo/internal/topo"
	"madgo/internal/vtime"
)

// TestStreamShapesAcrossTwoGateways sends every block layout that sits on a
// fragment, inline or header boundary at a 1 KiB MTU through two gateways
// (a –sci– g1 –myrinet– g2 –sci– c), in the seed framing and on the eager path
// (eager+agg: a message that fits a frame is coalesced, a larger one spills
// to the compact stream), and over two rails that each cross a gateway (the
// diamond, StripeK 2: a message past the stripe threshold takes both rails,
// any other one rail in the seed framing). Two more eager rows change the
// MTU: at 4 KiB the layouts that outgrow a frame stream with the first
// fragment glued to the header ([2048 0 2049]) or behind a header alone
// ([4096], [100000]), and at the default MTU only [100000] streams. The
// reliable rows send the same layouts through reliable reassembly: plain and
// eager on the chain, striped on the diamond, and on the chain under 5 % loss, where
// fragments arrive out of order and twice. Every layout goes once
// per send mode, three messages back to back per receive mode, each with
// payload of its own, and must arrive byte-exact. A stream's headers, frames
// and descriptor pairs come off the wire pool and are returned by the final
// receiver while later messages of the same sender are in flight; every world
// poisons what is returned to the pool (auditRelBufs), so a hop or a sink that
// reads one after it was given back fails here, with a protocol error or
// corrupted bytes.
func TestStreamShapesAcrossTwoGateways(t *testing.T) {
	const mtu = 1024
	configs := []struct {
		name     string
		topo     func(*testing.T) *topo.Topology
		src, dst string
		mtu      int
		tune     func(*fwd.Config)
		reliable bool
		drop     float64 // a reliable world's loss on every network
	}{
		{"seed", chainTopo, "a", "c", mtu, func(*fwd.Config) {}, false, 0},
		{"eager", chainTopo, "a", "c", 4 * mtu, func(c *fwd.Config) { c.Eager = true }, false, 0},
		{"eager+agg", chainTopo, "a", "c", mtu, func(c *fwd.Config) { c.Eager = true }, false, 0},
		{"eager-default-mtu", chainTopo, "a", "c", fwd.DefaultConfig().MTU, func(c *fwd.Config) { c.Eager = true }, false, 0},
		{"stripe", diamond, "a", "b", mtu, func(c *fwd.Config) { c.StripeK = 2 }, false, 0},
		{"reliable", chainTopo, "a", "c", mtu, func(*fwd.Config) {}, true, 0},
		{"reliable+eager+agg", chainTopo, "a", "c", mtu, func(c *fwd.Config) { c.Eager = true }, true, 0},
		{"reliable-stripe", diamond, "a", "b", mtu, func(c *fwd.Config) { c.StripeK = 2 }, true, 0},
		{"reliable-lossy", chainTopo, "a", "c", mtu, func(*fwd.Config) {}, true, 0.05},
	}
	layouts := [][]int{
		{0}, {1}, {0, 5}, {5, 0}, {1024}, {1025}, {4096}, {4097}, {3072},
		{1024, 1024, 7}, {0, 0, 0}, {2048, 0, 2049}, {100000},
	}
	sends := []mad.SendMode{mad.SendCheaper, mad.SendSafer, mad.SendLater}
	recvs := []mad.RecvMode{mad.ReceiveCheaper, mad.ReceiveExpress}
	const perMode = 3
	for _, c := range configs {
		for _, sizes := range layouts {
			for _, s := range sends {
				t.Run(fmt.Sprintf("%s/%v/%v", c.name, sizes, s), func(t *testing.T) {
					cfg := fwd.DefaultConfig()
					cfg.MTU = c.mtu
					c.tune(&cfg)
					var w *world
					switch {
					case c.drop > 0:
						w = buildFaulty(t, c.topo(t), nil, fault.NewPlan(7).Drop("*", c.drop), cfg)
					case c.reliable:
						w = buildFaulty(t, c.topo(t), nil, nil, cfg)
					default:
						w = build(t, c.topo(t), cfg)
					}
					var msgs [][]block
					for _, r := range recvs {
						for range perMode {
							m := make([]block, len(sizes))
							for i, n := range sizes {
								m[i] = block{pattern(n, byte(len(msgs)*len(sizes)+i)), s, r}
							}
							msgs = append(msgs, m)
						}
					}
					w.sim.Spawn("send", func(p *vtime.Proc) {
						for _, m := range msgs {
							px := w.vc.At(c.src).BeginPacking(p, c.dst)
							for _, b := range m {
								px.Pack(p, b.data, b.s, b.r)
							}
							px.EndPacking(p)
						}
					})
					delivered := 0
					w.sim.Spawn("recv", func(p *vtime.Proc) {
						for k, m := range msgs {
							u := w.vc.At(c.dst).BeginUnpacking(p)
							if u.From() != w.vc.NodeRank(c.src) || !u.Forwarded() {
								t.Errorf("message %d: From() = %d, Forwarded() = %v", k, u.From(), u.Forwarded())
							}
							exact := true
							for i, b := range m {
								got := make([]byte, len(b.data))
								u.Unpack(p, got, b.s, b.r)
								if !bytes.Equal(got, b.data) {
									t.Errorf("message %d: block %d (%d bytes) corrupted", k, i, len(b.data))
									exact = false
								}
							}
							u.EndUnpacking(p)
							if exact {
								delivered++
							}
						}
					})
					if err := w.sim.Run(); err != nil {
						t.Fatal(err)
					}
					if delivered != len(msgs) {
						t.Fatalf("%d of %d messages arrived byte-exact", delivered, len(msgs))
					}
				})
			}
		}
	}
}
