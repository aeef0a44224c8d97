package madeleine_test

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"strings"
	"testing"

	madeleine "madgo"
)

const demoConfig = `
# two clusters, one gateway
network sci0 sci
network myri0 myrinet
node a0 sci0
node a1 sci0
node gw sci0 myri0
node b0 myri0
node b1 myri0
`

func TestSystemEndToEnd(t *testing.T) {
	sys, err := madeleine.NewSystem(demoConfig)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 100_000)
	for i := range payload {
		payload[i] = byte(i * 3)
	}
	var got []byte
	var forwarded bool
	var from madeleine.Rank
	sys.Spawn("sender", func(p *madeleine.Proc) {
		px := sys.At("a0").BeginPacking(p, "b1")
		px.Pack(p, payload, madeleine.SendCheaper, madeleine.ReceiveCheaper)
		px.EndPacking(p)
	})
	sys.Spawn("receiver", func(p *madeleine.Proc) {
		u := sys.At("b1").BeginUnpacking(p)
		got = make([]byte, len(payload))
		u.Unpack(p, got, madeleine.SendCheaper, madeleine.ReceiveCheaper)
		u.EndUnpacking(p)
		forwarded = u.Forwarded()
		from = u.From()
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Error("payload corrupted")
	}
	if !forwarded {
		t.Error("not forwarded")
	}
	if sys.NodeName(from) != "a0" {
		t.Errorf("From = %v", from)
	}
	gs, ok := sys.GatewayStats("gw")
	if !ok {
		t.Fatal("GatewayStats(gw) not ok")
	}
	if gs.Messages != 1 || gs.Packets == 0 || gs.Bytes != int64(len(payload)) {
		t.Errorf("gateway stats = %d/%d/%d", gs.Messages, gs.Packets, gs.Bytes)
	}
	if _, ok := sys.GatewayStats("a0"); ok {
		t.Error("GatewayStats(a0) ok for a non-gateway node")
	}
	if gws := sys.Gateways(); len(gws) != 1 || gws[0] != "gw" {
		t.Errorf("gateways = %v", gws)
	}
	if sys.Now() == 0 {
		t.Error("virtual time did not advance")
	}
}

// TestGatewaySchedulesWithoutFlowControl: every gateway relays through its
// deficit-round-robin scheduler, so a system without WithFlowControl counts
// scheduler rounds and no credit account. Before the FIFO relay was deleted
// such a system read zero rounds.
func TestGatewaySchedulesWithoutFlowControl(t *testing.T) {
	sys, err := madeleine.NewSystem(demoConfig)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 40_000)
	for _, src := range []string{"a0", "a1"} {
		sys.Spawn("send:"+src, func(p *madeleine.Proc) {
			px := sys.At(src).BeginPacking(p, "b1")
			px.Pack(p, payload, madeleine.SendCheaper, madeleine.ReceiveCheaper)
			px.EndPacking(p)
		})
	}
	sys.Spawn("recv", func(p *madeleine.Proc) {
		for range 2 {
			u := sys.At("b1").BeginUnpacking(p)
			u.Unpack(p, make([]byte, len(payload)), madeleine.SendCheaper, madeleine.ReceiveCheaper)
			u.EndUnpacking(p)
		}
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if fs := sys.FlowStats(); fs.SchedRounds == 0 || fs.Accounts != 0 || fs.CreditsSpent != 0 {
		t.Errorf("FlowStats without WithFlowControl = %+v, want scheduler rounds and no credits", fs)
	}
}

func TestSystemOptions(t *testing.T) {
	tr := madeleine.NewTracer()
	sys, err := madeleine.NewSystem(demoConfig,
		madeleine.WithMTU(8*1024),
		madeleine.WithPipelineDepth(3),
		madeleine.WithTracer(tr),
	)
	if err != nil {
		t.Fatal(err)
	}
	sys.Spawn("s", func(p *madeleine.Proc) {
		px := sys.At("a0").BeginPacking(p, "b0")
		px.Pack(p, make([]byte, 64*1024), madeleine.SendCheaper, madeleine.ReceiveCheaper)
		px.EndPacking(p)
	})
	sys.Spawn("r", func(p *madeleine.Proc) {
		u := sys.At("b0").BeginUnpacking(p)
		u.Unpack(p, make([]byte, 64*1024), madeleine.SendCheaper, madeleine.ReceiveCheaper)
		u.EndUnpacking(p)
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if len(tr.Spans()) == 0 {
		t.Error("tracer recorded nothing")
	}
	gs, _ := sys.GatewayStats("gw")
	if gs.Bytes != 64*1024 {
		t.Errorf("gateway bytes = %d", gs.Bytes)
	}
}

func TestSystemRouteRestriction(t *testing.T) {
	cfg := `
network sci0 sci
network myri0 myrinet
network eth0 ethernet
node a0 sci0 eth0
node gw sci0 myri0 eth0
node b0 myri0 eth0
`
	sys, err := madeleine.NewSystem(cfg, madeleine.WithRouteNetworks("sci0", "myri0"))
	if err != nil {
		t.Fatal(err)
	}
	routes := sys.Routes()
	if strings.Contains(routes, "eth0") {
		t.Errorf("routes use the control network:\n%s", routes)
	}
	if !strings.Contains(routes, "-[sci0]-> gw -[myri0]-> b0") {
		t.Errorf("missing forwarded route:\n%s", routes)
	}
}

func TestSystemErrors(t *testing.T) {
	if _, err := madeleine.NewSystem("garbage directive"); err == nil {
		t.Error("expected parse error")
	}
	if _, err := madeleine.NewSystem("network x warpdrive\nnode a x\nnode b x\n"); err == nil {
		t.Error("expected unknown-protocol error")
	}
	if _, err := madeleine.NewSystem(demoConfig, madeleine.WithMTU(-1)); err == nil {
		t.Error("expected config error")
	}
	if _, err := madeleine.NewSystem(demoConfig, madeleine.WithRouteNetworks("nope")); err == nil {
		t.Error("expected restriction error")
	}
}

func TestDeadlockSurfacesAsError(t *testing.T) {
	sys, err := madeleine.NewSystem(demoConfig)
	if err != nil {
		t.Fatal(err)
	}
	sys.Spawn("lonely-receiver", func(p *madeleine.Proc) {
		sys.At("b0").BeginUnpacking(p) // nobody ever sends
	})
	err = sys.Run()
	if err == nil || !strings.Contains(err.Error(), "lonely-receiver") {
		t.Fatalf("err = %v, want deadlock naming the process", err)
	}
}

func TestExperimentsExposed(t *testing.T) {
	exps := madeleine.Experiments()
	if len(exps) != 24 {
		t.Fatalf("experiments = %d, want 24", len(exps))
	}
	ids := map[string]bool{}
	for _, e := range exps {
		ids[e.ID] = true
	}
	for _, want := range []string{"fig6", "fig7", "t1", "headline", "o1", "o2", "p1", "r1", "r2", "s1", "c1", "m1", "b1"} {
		if !ids[want] {
			t.Errorf("missing experiment %s", want)
		}
	}
}

// TestStripingFacade drives multi-rail striping through the public API:
// the dual-rail topology, WithStriping, byte-exact delivery, and the
// StripeStats/AckStats accessors.
func TestStripingFacade(t *testing.T) {
	sys, err := madeleine.NewSystem(`
		network myri0 myrinet
		network sci0 sci
		node a myri0 sci0
		node b myri0 sci0
	`, madeleine.WithStriping(2), madeleine.WithStripeThreshold(8*1024))
	if err != nil {
		t.Fatal(err)
	}
	const n = 64 * 1024
	payload := make([]byte, n)
	for i := range payload {
		payload[i] = byte(i*7 + 3)
	}
	got := make([]byte, n)
	sys.Spawn("sender", func(p *madeleine.Proc) {
		px := sys.At("a").BeginPacking(p, "b")
		px.Pack(p, payload, madeleine.SendCheaper, madeleine.ReceiveCheaper)
		px.EndPacking(p)
	})
	sys.Spawn("receiver", func(p *madeleine.Proc) {
		u := sys.At("b").BeginUnpacking(p)
		u.Unpack(p, got, madeleine.SendCheaper, madeleine.ReceiveCheaper)
		u.EndUnpacking(p)
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Error("striped payload corrupted")
	}
	st := sys.StripeStats()
	if st.Messages != 1 {
		t.Errorf("striped %d messages, want 1", st.Messages)
	}
	if len(st.RailBytes) != 2 {
		t.Errorf("rail bytes on %d rails, want 2: %v", len(st.RailBytes), st.RailBytes)
	}
	if ack := sys.AckStats(); ack != (madeleine.AckStats{}) {
		t.Errorf("streaming mode reported ack traffic: %+v", ack)
	}
}

func TestPaperTestbedHelpers(t *testing.T) {
	tp := madeleine.PaperTestbed()
	if rt := madeleine.RouteTable(tp); !strings.Contains(rt, "gw") {
		t.Error("route table missing gateway")
	}
	if _, err := madeleine.ParseTopology(tp.String()); err != nil {
		t.Errorf("round trip: %v", err)
	}
	sys, err := madeleine.NewSystemFromTopology(tp, madeleine.WithRouteNetworks("sci0", "myri0"))
	if err != nil {
		t.Fatal(err)
	}
	if len(sys.Gateways()) != 1 {
		t.Errorf("gateways = %v", sys.Gateways())
	}
}

func TestBidirectionalPingPong(t *testing.T) {
	sys, err := madeleine.NewSystem(demoConfig)
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 3
	sys.Spawn("a-side", func(p *madeleine.Proc) {
		for i := 0; i < rounds; i++ {
			px := sys.At("a1").BeginPacking(p, "b1")
			px.Pack(p, []byte{byte(i)}, madeleine.SendCheaper, madeleine.ReceiveExpress)
			px.EndPacking(p)
			u := sys.At("a1").BeginUnpacking(p)
			echo := make([]byte, 1)
			u.Unpack(p, echo, madeleine.SendCheaper, madeleine.ReceiveExpress)
			u.EndUnpacking(p)
			if echo[0] != byte(i) {
				t.Errorf("round %d: echo %d", i, echo[0])
			}
		}
	})
	sys.Spawn("b-side", func(p *madeleine.Proc) {
		for i := 0; i < rounds; i++ {
			u := sys.At("b1").BeginUnpacking(p)
			v := make([]byte, 1)
			u.Unpack(p, v, madeleine.SendCheaper, madeleine.ReceiveExpress)
			u.EndUnpacking(p)
			px := sys.At("b1").BeginPacking(p, "a1")
			px.Pack(p, v, madeleine.SendCheaper, madeleine.ReceiveExpress)
			px.EndPacking(p)
		}
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestAutoMTU(t *testing.T) {
	sys, err := madeleine.NewSystem(demoConfig, madeleine.WithAutoMTU())
	if err != nil {
		t.Fatal(err)
	}
	if mtu := sys.Channel.Config().MTU; mtu < 32*1024 {
		t.Errorf("auto MTU = %d, want the analytic optimum (>= 32 KB)", mtu)
	}
	// Three networks: AutoMTU must refuse.
	cfg3 := demoConfig + "network x0 sbp\nnode s1 x0\nnode gw2 myri0 x0\n"
	if _, err := madeleine.NewSystem(cfg3, madeleine.WithAutoMTU()); err == nil {
		t.Error("expected AutoMTU error for three networks")
	}
}

// TestAggregatedDeliveryMatchesPaperFidelity runs one seeded traffic — two
// senders, mostly mice of two blocks with a message too large to coalesce now
// and then — through the seed framing and through the eager, aggregated path,
// and holds what the sink was handed equal: every payload byte-exact, every
// sender's messages in the order it sent them. The coalesced run delivers most
// of them from a frame in memory, without polling the network.
func TestAggregatedDeliveryMatchesPaperFidelity(t *testing.T) {
	const perSender = 400
	senders := []string{"a0", "a1"}
	run := func(coalesces bool, opts ...madeleine.Option) map[string][][]byte {
		sys, err := madeleine.NewSystem(demoConfig, opts...)
		if err != nil {
			t.Fatal(err)
		}
		for si, name := range senders {
			rng := rand.New(rand.NewSource(int64(si + 1)))
			sys.Spawn("send:"+name, func(p *madeleine.Proc) {
				for i := 0; i < perSender; i++ {
					size := rng.Intn(700)
					if rng.Intn(50) == 0 {
						size = 40_000 + rng.Intn(30_000)
					}
					body := make([]byte, size)
					rng.Read(body)
					hdr := binary.LittleEndian.AppendUint32(nil, uint32(size))
					px := sys.At(name).BeginPacking(p, "b1")
					px.Pack(p, hdr, madeleine.SendCheaper, madeleine.ReceiveExpress)
					px.Pack(p, body, madeleine.SendCheaper, madeleine.ReceiveCheaper)
					px.EndPacking(p)
				}
			})
		}
		got := make(map[string][][]byte)
		sys.Spawn("recv:b1", func(p *madeleine.Proc) {
			for i := 0; i < perSender*len(senders); i++ {
				u := sys.At("b1").BeginUnpacking(p)
				hdr := make([]byte, 4)
				u.Unpack(p, hdr, madeleine.SendCheaper, madeleine.ReceiveExpress)
				body := make([]byte, binary.LittleEndian.Uint32(hdr))
				u.Unpack(p, body, madeleine.SendCheaper, madeleine.ReceiveCheaper)
				u.EndUnpacking(p)
				from := sys.NodeName(u.From())
				got[from] = append(got[from], body)
			}
		})
		if err := sys.Run(); err != nil {
			t.Fatal(err)
		}
		if st := sys.Stats().Agg; (st.SubMessages > st.Frames) != coalesces || (st.BypassMessages > 0) != coalesces {
			t.Fatalf("coalescer stats %+v: want frames of several messages and messages around them: %v", st, coalesces)
		}
		return got
	}
	want := run(false, madeleine.WithPaperFidelity())
	got := run(true, madeleine.WithEagerSmallMessages(), madeleine.WithAggregation(), madeleine.WithFlowControl())
	for _, name := range senders {
		if len(want[name]) != perSender || len(got[name]) != perSender {
			t.Fatalf("%s: %d messages delivered by the seed framing, %d aggregated, want %d", name, len(want[name]), len(got[name]), perSender)
		}
		for i := range want[name] {
			if !bytes.Equal(got[name][i], want[name][i]) {
				t.Fatalf("%s: message %d (%d bytes) differs from the seed framing's (%d bytes)", name, i, len(got[name][i]), len(want[name][i]))
			}
		}
	}
}
