package fwd_test

import (
	"bytes"
	"testing"

	"madgo/internal/fwd"
	"madgo/internal/mad"
	"madgo/internal/topo"
	"madgo/internal/trace"
	"madgo/internal/vtime"
)

// chainTopo is a three-network chain with two gateways.
func chainTopo(t *testing.T) *topo.Topology {
	t.Helper()
	tp, err := topo.NewBuilder().
		Network("n1", "sci").Network("n2", "myrinet").Network("n3", "sci").
		Node("a", "n1").
		Node("g1", "n1", "n2").
		Node("g2", "n2", "n3").
		Node("c", "n3").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

// TestMessageToSecondGatewayAsFinalDestination is §2.2.2's disambiguation
// argument: a message whose final destination IS a gateway must arrive on a
// regular channel and be delivered to that gateway's application, not
// re-forwarded.
func TestMessageToSecondGatewayAsFinalDestination(t *testing.T) {
	w := build(t, chainTopo(t), fwd.DefaultConfig())
	blocks := []block{{pattern(70_000, 5), mad.SendCheaper, mad.ReceiveCheaper}}
	got, fwded, from := sendRecv(t, w, "a", "g2", blocks)
	if !bytes.Equal(got[0], blocks[0].data) {
		t.Error("payload corrupted")
	}
	if !fwded {
		t.Error("a→g2 crosses g1: must be forwarded")
	}
	if from != w.vc.NodeRank("a") {
		t.Errorf("From = %d", from)
	}
	if n := w.vc.Gateway("g1").Messages(); n != 1 {
		t.Errorf("g1 relayed %d", n)
	}
	if n := w.vc.Gateway("g2").Messages(); n != 0 {
		t.Errorf("g2's engine relayed %d — the message was for g2's application", n)
	}
}

// TestGatewayAsSourceAcrossAnotherGateway: a gateway's own application
// sends a message that must cross the other gateway.
func TestGatewayAsSourceAcrossAnotherGateway(t *testing.T) {
	w := build(t, chainTopo(t), fwd.DefaultConfig())
	blocks := []block{{pattern(40_000, 6), mad.SendCheaper, mad.ReceiveCheaper}}
	got, fwded, _ := sendRecv(t, w, "g1", "c", blocks)
	if !bytes.Equal(got[0], blocks[0].data) {
		t.Error("payload corrupted")
	}
	if !fwded {
		t.Error("g1→c crosses g2: must be forwarded")
	}
	if n := w.vc.Gateway("g2").Messages(); n != 1 {
		t.Errorf("g2 relayed %d", n)
	}
	if n := w.vc.Gateway("g1").Messages(); n != 0 {
		t.Errorf("g1's engine relayed %d for its own send", n)
	}
}

// TestSlotModeTraceActors: with a static-buffer ingress and dynamic egress
// the pipeline runs in slot-handoff mode; the trace must still show both
// lanes and the relay must be copy-free at the gateway.
func TestSlotModeTracedAndCopyFree(t *testing.T) {
	tr := trace.New()
	cfg := fwd.DefaultConfig()
	cfg.Tracer = tr
	w := build(t, sbpTopo(t, "sbp", "myrinet"), cfg)
	blocks := []block{{pattern(200_000, 7), mad.SendCheaper, mad.ReceiveCheaper}}
	got, _, _ := sendRecv(t, w, "a", "b", blocks)
	if !bytes.Equal(got[0], blocks[0].data) {
		t.Fatal("payload corrupted")
	}
	if copied := w.sess.NodeByName("g").Host.BytesCopied(); copied > 64 {
		t.Errorf("slot-mode gateway copied %d bytes", copied)
	}
	if len(tr.ByActor("g:recv:n1")) == 0 || len(tr.ByActor("g:send:n2")) == 0 {
		t.Errorf("trace lanes missing: %v", tr.Actors())
	}
}

// TestPipelineDepthOneStillCorrect: the no-pipelining ablation must remain
// functionally correct, just slower.
func TestPipelineDepthOneStillCorrect(t *testing.T) {
	cfg := fwd.DefaultConfig()
	cfg.PipelineDepth = 1
	w := build(t, paperHS(t), cfg)
	blocks := []block{
		{pattern(4, 1), mad.SendCheaper, mad.ReceiveExpress},
		{pattern(123_456, 2), mad.SendCheaper, mad.ReceiveCheaper},
	}
	got, _, _ := sendRecv(t, w, "a0", "b1", blocks)
	for i := range blocks {
		if !bytes.Equal(got[i], blocks[i].data) {
			t.Errorf("block %d corrupted", i)
		}
	}
}

// TestInterleavedOppositeStreams runs long streams in both directions at
// once and checks both payloads and the PCI asymmetry: the SCI→Myrinet
// stream must finish first.
func TestInterleavedOppositeStreams(t *testing.T) {
	w := build(t, paperHS(t), fwd.DefaultConfig())
	const n = 1 << 20
	var doneS2M, doneM2S vtime.Time
	launch := func(src, dst string, seed byte, done *vtime.Time) {
		data := pattern(n, seed)
		w.sim.Spawn("s:"+src, func(p *vtime.Proc) {
			px := w.vc.At(src).BeginPacking(p, dst)
			px.Pack(p, data, mad.SendCheaper, mad.ReceiveCheaper)
			px.EndPacking(p)
		})
		w.sim.Spawn("r:"+dst, func(p *vtime.Proc) {
			u := w.vc.At(dst).BeginUnpacking(p)
			got := make([]byte, n)
			u.Unpack(p, got, mad.SendCheaper, mad.ReceiveCheaper)
			u.EndUnpacking(p)
			if !bytes.Equal(got, data) {
				t.Errorf("%s->%s corrupted", src, dst)
			}
			*done = p.Now()
		})
	}
	launch("a0", "b0", 1, &doneS2M)
	launch("b1", "a1", 2, &doneM2S)
	if err := w.sim.Run(); err != nil {
		t.Fatal(err)
	}
	if doneS2M >= doneM2S {
		t.Errorf("SCI→Myrinet (%v) should beat Myrinet→SCI (%v): the Figure 6/7 asymmetry",
			doneS2M, doneM2S)
	}
}

func TestSuggestedConfigDefaults(t *testing.T) {
	cfg := fwd.DefaultConfig()
	if cfg.MTU != 32*1024 || cfg.PipelineDepth != 2 || !cfg.ZeroCopy || cfg.InflowLimit != 0 {
		t.Errorf("defaults = %+v", cfg)
	}
}

// TestBracketedHeaderIsHandedOverHopByHop: a header that travels alone — the
// seed framing's, a rail's — is a wire-pool buffer its origin takes, every
// gateway re-emits as it arrived and the final receiver returns once it has
// read it (DESIGN.md §36). The pool is stocked with one buffer for every
// header a message opens: one for a GTM message across two gateways, one a
// rail for a message striped through two. Sent one at a time, every header the
// sink returns is one of them, so the sink's header buffer is the origin's
// backing array; a gateway that copied the header would hand on memory the
// pool never gave out. Sent back to back, the pool's misses follow the headers
// in flight at once, not the messages: four times the messages allocate no
// more. Every returned buffer is poisoned and the ledger balances (build).
func TestBracketedHeaderIsHandedOverHopByHop(t *testing.T) {
	striped := fwd.DefaultConfig()
	striped.StripeK = 2
	for _, c := range []struct {
		name     string
		tp       *topo.Topology
		cfg      fwd.Config
		src, dst string
		headers  int // the headers one message opens
	}{
		{"gtm-two-gateways", chainTopo(t), fwd.DefaultConfig(), "a", "c", 1},
		{"striped", dualRailTopo(t, 1), striped, "s0", "sink", 2},
	} {
		t.Run(c.name, func(t *testing.T) {
			w := build(t, c.tp, c.cfg)
			var stock [][]byte
			returned, foreign := 0, 0
			stock = fwd.StockHeaderBufs(w.vc, c.headers, func(b []byte, header bool) {
				if !header {
					return
				}
				returned++
				for _, s := range stock {
					if &s[0] == &b[0] {
						return
					}
				}
				foreign++
			})
			blocks := []block{{pattern(70_000, 3), mad.SendCheaper, mad.ReceiveCheaper}}
			const msgs = 4
			for i := 0; i < msgs; i++ {
				got, fwded, _ := sendRecv(t, w, c.src, c.dst, blocks)
				if !bytes.Equal(got[0], blocks[0].data) || !fwded {
					t.Fatalf("message %d: intact %v, forwarded %v", i, bytes.Equal(got[0], blocks[0].data), fwded)
				}
			}
			if returned != msgs*c.headers || foreign != 0 {
				t.Fatalf("sinks returned %d header buffers for %d headers, %d of them not the origin's", returned, msgs*c.headers, foreign)
			}

			// Back to back: the origin opens its next message while earlier
			// headers are still on their way or unread at the sink.
			stream := func(n int) int64 {
				var done vtime.Time
				spawnStream(t, w, c.src, c.dst, blocks[0].data, n, &done)
				if err := w.sim.Run(); err != nil {
					t.Fatal(err)
				}
				return w.vc.RelBookkeeping().BufsAllocated
			}
			warm, after := stream(8), stream(32)
			t.Logf("%s: %d header buffers returned; %d buffers allocated after 8 back-to-back messages, %d after 32 more", c.name, returned, warm, after)
			if after != warm {
				t.Errorf("back-to-back messages allocated buffers: %d after 8, %d after 32 more", warm, after)
			}
			if want := (msgs + 8 + 32) * c.headers; returned != want {
				t.Errorf("sinks returned %d header buffers, want %d", returned, want)
			}
		})
	}
}
