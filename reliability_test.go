package madeleine_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	madeleine "madgo"
)

// faultyConfig embeds a fault schedule in the topology text: reliable
// delivery switches on automatically and the injected loss must be invisible
// to the application.
const faultyConfig = `
network sci0 sci
network myri0 myrinet
node a0 sci0
node a1 sci0
node gw sci0 myri0
node b0 myri0
node b1 myri0
fault seed 42
fault drop * 0.05
`

func TestSystemFaultDSL(t *testing.T) {
	sys, err := madeleine.NewSystem(faultyConfig)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 200_000)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	var got []byte
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
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Error("payload corrupted under 5% loss")
	}
	if ds := sys.Stats().Delivery; ds.Retransmits == 0 {
		t.Error("5% loss run saw zero retransmissions")
	}
}

// TestSystemLossAndMidTransferCrash is the issue's acceptance scenario: an
// 8 MB SCI->Myrinet transfer under seeded 5% packet loss whose only
// high-speed gateway crashes mid-transfer. Reliable delivery must complete
// the transfer byte-exact by retransmitting and failing over to the
// Ethernet control network, and the recovery must be visible in the trace.
func TestSystemLossAndMidTransferCrash(t *testing.T) {
	plan := madeleine.NewFaultPlan(9).
		Drop("*", 0.05).
		Crash("gw", madeleine.Time(30*madeleine.Millisecond), 0)
	sys, err := madeleine.NewSystemFromTopology(madeleine.PaperTestbed(),
		madeleine.WithRouteNetworks("sci0", "myri0"),
		madeleine.WithFaults(plan),
		madeleine.WithMetrics(madeleine.NewMetrics()))
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 8<<20)
	for i := range payload {
		payload[i] = byte(i*13 + 5)
	}
	var got []byte
	sys.Spawn("sender", func(p *madeleine.Proc) {
		px := sys.At("a1").BeginPacking(p, "b1")
		px.Pack(p, payload, madeleine.SendCheaper, madeleine.ReceiveCheaper)
		px.EndPacking(p)
	})
	sys.Spawn("receiver", func(p *madeleine.Proc) {
		u := sys.At("b1").BeginUnpacking(p)
		got = make([]byte, len(payload))
		u.Unpack(p, got, madeleine.SendCheaper, madeleine.ReceiveCheaper)
		u.EndUnpacking(p)
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("8 MB transfer not byte-exact across loss and crash")
	}
	ds := sys.Stats().Delivery
	if ds.Retransmits == 0 {
		t.Error("no retransmissions under 5% loss")
	}
	if ds.Failovers == 0 {
		t.Error("gateway crash caused no failover")
	}
	ops := make(map[string]bool)
	tr := lanesOf(t, sys)
	for _, s := range tr {
		ops[s.Op] = true
	}
	if !ops["crash"] {
		t.Error("trace has no crash span")
	}
	if !ops["failover"] {
		t.Error("trace has no failover span")
	}
	// The madtrace-style timeline must show the recovery marks.
	tl := tr.Timeline(0, sys.Now(), 160)
	if !strings.Contains(tl, "C") {
		t.Error("timeline missing crash mark")
	}
	if !strings.Contains(tl, "F") {
		t.Error("timeline missing failover mark")
	}
}

// TestCrashedGatewayBlamesNoPeer runs examples/faulttolerance's scenario — 2%
// loss, gw1 crashed 30 ms into a 4 MB a0 -> b1 transfer that gw2 can carry —
// over twenty fault seeds. A crashed node's daemons keep running and lose all
// they send; were its failed retransmissions and probes evidence, gw1 would
// declare its links to gw2 and b1 dead, which bars both as relays and leaves
// b1 unreachable. Every seed must deliver, and no link leaving gw1 may die
// while it is down.
func TestCrashedGatewayBlamesNoPeer(t *testing.T) {
	const crash = madeleine.Time(30 * madeleine.Millisecond)
	for seed := 1; seed <= 20; seed++ {
		sys, err := madeleine.NewSystem(fmt.Sprintf(`
			network sciA sci
			network myriB myrinet
			node a0 sciA
			node a1 sciA
			node gw1 sciA myriB
			node gw2 sciA myriB
			node b0 myriB
			node b1 myriB
			fault seed %d
			fault drop * 0.02
			fault crash gw1 %v
		`, seed, crash), madeleine.WithProduction())
		if err != nil {
			t.Fatal(err)
		}
		sys.Spawn("sender", func(p *madeleine.Proc) {
			px := sys.At("a0").BeginPacking(p, "b1")
			px.Pack(p, make([]byte, 4<<20), madeleine.SendCheaper, madeleine.ReceiveCheaper)
			px.EndPacking(p)
		})
		sys.Spawn("receiver", func(p *madeleine.Proc) {
			u := sys.At("b1").BeginUnpacking(p)
			u.Unpack(p, make([]byte, 4<<20), madeleine.SendCheaper, madeleine.ReceiveCheaper)
			u.EndUnpacking(p)
		})
		if err := sys.Run(); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
		for _, tr := range sys.Health().Transitions() {
			if tr.Link.From == "gw1" && tr.To == madeleine.LinkDead && tr.At >= crash {
				t.Errorf("seed %d: crashed gw1 declared %v dead at %v", seed, tr.Link, tr.At)
			}
		}
	}
}

// TestSystemReliableUnreachable checks that a partition surfaces a typed
// DeliveryError from Run instead of a deadlock.
func TestSystemReliableUnreachable(t *testing.T) {
	plan := madeleine.NewFaultPlan(1).Crash("gw", 0, 0)
	sys, err := madeleine.NewSystem(demoConfig, madeleine.WithFaults(plan))
	if err != nil {
		t.Fatal(err)
	}
	sys.Spawn("sender", func(p *madeleine.Proc) {
		px := sys.At("a0").BeginPacking(p, "b0")
		px.Pack(p, make([]byte, 10_000), madeleine.SendCheaper, madeleine.ReceiveCheaper)
		px.EndPacking(p)
	})
	err = sys.Run()
	var de *madeleine.DeliveryError
	if !errors.As(err, &de) {
		t.Fatalf("Run() = %v, want a *DeliveryError", err)
	}
	if de.From != "a0" || de.To != "b0" {
		t.Errorf("DeliveryError names %s -> %s, want a0 -> b0", de.From, de.To)
	}
}

// starRun is one run of the contention wall's star (internal/fwd: sixteen
// senders on one edge network, one gateway, the sink behind it; every fifth
// sender an elephant) under 1 % seeded loss, and what the run looked like from
// outside: when it ended, how long every message took, what the protocol and
// the failure detector counted.
type starRun struct {
	end         madeleine.Time
	latencies   map[string][]madeleine.Duration
	delivery    madeleine.DeliveryStats
	transitions []madeleine.HealthTransition
	flow        madeleine.FlowStats
}

func runReliableStar(t *testing.T, opts ...madeleine.Option) starRun {
	t.Helper()
	const senders, perSender = 16, 2
	var cfg strings.Builder
	cfg.WriteString("network edge sci\nnetwork core myrinet\n")
	for i := 0; i < senders; i++ {
		fmt.Fprintf(&cfg, "node s%d edge\n", i)
	}
	cfg.WriteString("node gw edge core\nnode sink core\nfault seed 5\nfault drop * 0.01\n")
	sys, err := madeleine.NewSystem(cfg.String(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	if sys.Health() == nil {
		t.Fatal("Health() = nil on a reliable system")
	}
	rng := rand.New(rand.NewSource(senders*7919 + 13))
	run := starRun{latencies: make(map[string][]madeleine.Duration)}
	sizes := make(map[string][]int)
	for i := 0; i < senders; i++ {
		name := fmt.Sprintf("s%d", i)
		for m := 0; m < perSender; m++ {
			size := 64 + rng.Intn(1024)
			if i%5 == 0 {
				size = 24*1024 + rng.Intn(48*1024)
			}
			sizes[name] = append(sizes[name], size)
		}
		fill := byte(i + 1)
		sys.Spawn("send:"+name, func(p *madeleine.Proc) {
			for _, size := range sizes[name] {
				t0 := p.Now()
				px := sys.At(name).BeginPacking(p, "sink")
				px.Pack(p, bytes.Repeat([]byte{fill}, size), madeleine.SendCheaper, madeleine.ReceiveCheaper)
				px.EndPacking(p)
				run.latencies[name] = append(run.latencies[name], p.Now().Sub(t0))
			}
		})
	}
	sys.Spawn("recv:sink", func(p *madeleine.Proc) {
		seen := make(map[string]int)
		for i := 0; i < senders*perSender; i++ {
			u := sys.At("sink").BeginUnpacking(p)
			from := sys.NodeName(u.From())
			size := sizes[from][seen[from]]
			seen[from]++
			got := make([]byte, size)
			u.Unpack(p, got, madeleine.SendCheaper, madeleine.ReceiveCheaper)
			u.EndUnpacking(p)
			if fill := got[0]; from != fmt.Sprintf("s%d", fill-1) || !bytes.Equal(got, bytes.Repeat([]byte{fill}, size)) {
				t.Errorf("message %d from %s corrupted", seen[from]-1, from)
			}
		}
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	st := sys.Stats()
	run.end, run.delivery, run.flow = sys.Now(), st.Delivery, st.Flow
	run.transitions = sys.Health().Transitions()
	return run
}

// TestReliableDeliveryHasOneShape: there is one reliable engine, so no option
// picks between shapes of it any more — the failure detector or the engine's
// own dead-link guesses, the fair relay daemon or the FIFO one, credits or
// none. WithReliableDelivery runs the lossy many-sender incast with its
// failure detector and its fair relay, and runs it again to the same virtual
// nanosecond, every latency and health transition included.
func TestReliableDeliveryHasOneShape(t *testing.T) {
	alone := runReliableStar(t, madeleine.WithReliableDelivery())
	if alone.delivery.Retransmits == 0 {
		t.Error("1% loss run saw zero retransmissions: the run tests no recovery")
	}
	if alone.flow.SchedRounds == 0 {
		t.Errorf("reliable delivery: %+v, want relay scheduler rounds", alone.flow)
	}
	if got := runReliableStar(t, madeleine.WithReliableDelivery()); !reflect.DeepEqual(got, alone) {
		t.Errorf("a second run differs from the first:\n  got %+v\n want %+v", got, alone)
	}
}
