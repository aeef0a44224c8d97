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
	if ds := sys.DeliveryStats(); ds.Retransmits == 0 {
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
	tr := madeleine.NewTracer()
	sys, err := madeleine.NewSystemFromTopology(madeleine.PaperTestbed(),
		madeleine.WithRouteNetworks("sci0", "myri0"),
		madeleine.WithFaults(plan),
		madeleine.WithTracer(tr))
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
	ds := sys.DeliveryStats()
	if ds.Retransmits == 0 {
		t.Error("no retransmissions under 5% loss")
	}
	if ds.Failovers == 0 {
		t.Error("gateway crash caused no failover")
	}
	ops := make(map[string]bool)
	for _, s := range tr.Spans() {
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
	run.end, run.delivery, run.flow = sys.Now(), sys.DeliveryStats(), sys.FlowStats()
	run.transitions = sys.Health().Transitions()
	return run
}

// TestReliableDeliveryHasOneShape: there is one reliable engine, so the options
// that used to pick between its four shapes — the failure detector or the
// engine's own dead-link guesses, the fair relay daemon or the FIFO one — pick
// nothing any more. WithReliableDelivery alone and with WithFlowControl
// (reliable mode has no credit layer: the option armed the fair relay and
// nothing else) are the same program and run the same lossy many-sender
// incast to the same virtual nanosecond. When the options still picked a
// shape they differed (and the first had no Health() to ask).
func TestReliableDeliveryHasOneShape(t *testing.T) {
	alone := runReliableStar(t, madeleine.WithReliableDelivery())
	if alone.delivery.Retransmits == 0 {
		t.Error("1% loss run saw zero retransmissions: the legs agree about nothing")
	}
	if alone.flow.SchedRounds == 0 || alone.flow.Accounts != 0 {
		t.Errorf("reliable delivery alone: %+v, want relay scheduler rounds and no credit account", alone.flow)
	}
	if got := runReliableStar(t, madeleine.WithReliableDelivery(), madeleine.WithFlowControl()); !reflect.DeepEqual(got, alone) {
		t.Errorf("with WithFlowControl the run differs from WithReliableDelivery alone:\n  got %+v\n want %+v", got, alone)
	}
}
