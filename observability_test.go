package madeleine_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	madeleine "madgo"
	"madgo/internal/trace"
)

// TestObservabilityEndToEnd is the issue's acceptance scenario: a single
// reliable run under injected loss must yield, from one registry,
//
//	(a) a Chrome trace_event JSON file Perfetto accepts,
//	(b) a Prometheus snapshot with retransmit/failover counters and a
//	    send-latency histogram with p50/p99, and
//	(c) a complete per-message hop sequence including the retransmitted
//	    hops.
func TestObservabilityEndToEnd(t *testing.T) {
	plan := madeleine.NewFaultPlan(7).Drop("*", 0.10)
	m := madeleine.NewMetrics()
	sys, err := madeleine.NewSystemFromTopology(madeleine.PaperTestbed(),
		madeleine.WithRouteNetworks("sci0", "myri0"),
		madeleine.WithMTU(16*1024),
		madeleine.WithFaults(plan),
		madeleine.WithMetrics(m))
	if err != nil {
		t.Fatal(err)
	}
	if sys.Metrics() != m {
		t.Fatal("System.Metrics() is not the WithMetrics registry")
	}

	payload := make([]byte, 256*1024)
	for i := range payload {
		payload[i] = byte(i*11 + 3)
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
		t.Fatal("payload corrupted under 10% loss")
	}
	ds := sys.Stats().Delivery
	if ds.Retransmits == 0 {
		t.Fatal("10% loss run saw zero retransmissions; the assertions below would be vacuous")
	}

	// (a) Chrome trace JSON: well-formed, with pipeline spans and message
	// instants.
	var chrome bytes.Buffer
	if err := sys.WriteChromeTrace(&chrome); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(chrome.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	phs := make(map[string]int)
	for _, ev := range doc.TraceEvents {
		ph, _ := ev["ph"].(string)
		phs[ph]++
		switch ph {
		case "X":
			for _, k := range []string{"name", "pid", "tid", "ts", "dur"} {
				if _, ok := ev[k]; !ok {
					t.Fatalf("complete event missing %q: %v", k, ev)
				}
			}
		case "i":
			if s, _ := ev["s"].(string); s != "t" {
				t.Errorf("instant event scope = %q, want \"t\"", s)
			}
		}
	}
	if phs["X"] == 0 || phs["i"] == 0 || phs["M"] == 0 {
		t.Errorf("chrome trace phases = %v, want spans (X), instants (i) and metadata (M)", phs)
	}

	// (b) Prometheus snapshot: recovery counters and the send-latency
	// histogram's quantile series.
	var prom bytes.Buffer
	sys.WritePrometheus(&prom)
	snap := prom.String()
	for _, want := range []string{
		"# TYPE madgo_retransmits_total counter",
		"# TYPE madgo_failovers_total counter",
		"# TYPE madgo_link_send_seconds histogram",
		`quantile="0.5"`,
		`quantile="0.99"`,
		`madgo_link_send_seconds_bucket{le="+Inf"`,
	} {
		if !strings.Contains(snap, want) {
			t.Errorf("prometheus snapshot missing %q", want)
		}
	}
	// The quantile pseudo-series of the send-latency histogram (labels are
	// canonically sorted, so quantile comes last).
	if !strings.Contains(snap, "madgo_link_send_seconds{") {
		t.Error("prometheus snapshot has no send-latency quantile series")
	}
	var totalRexmit float64
	for _, n := range sys.Topology.Nodes() {
		totalRexmit += m.Counter("madgo_retransmits_total", madeleine.MetricLabels{"node": n.Name})
	}
	if int64(totalRexmit) != ds.Retransmits {
		t.Errorf("metric retransmits = %v, DeliveryStats = %d", totalRexmit, ds.Retransmits)
	}

	// (c) Per-message provenance: the payload message's hop sequence is
	// complete — packed at the sender, relayed at a gateway, delivered at
	// the receiver — and includes the retransmitted hops.
	ids := m.Messages()
	if len(ids) == 0 {
		t.Fatal("no traced messages")
	}
	var best []madeleine.MessageHop
	for _, id := range ids {
		h := sys.MessageTrace(id)
		if len(h) > len(best) {
			best = h
		}
	}
	ops := make(map[string][]madeleine.MessageHop)
	for i, h := range best {
		ops[h.Op] = append(ops[h.Op], h)
		if i > 0 && h.At < best[i-1].At {
			t.Fatal("message trace not in virtual-time order")
		}
	}
	if len(ops["pack"]) == 0 || ops["pack"][0].Node != "a1" {
		t.Errorf("trace does not start with a pack at a1: %v", ops["pack"])
	}
	if len(ops["hop"]) == 0 {
		t.Error("trace has no hop events")
	}
	if len(ops["rexmit"]) == 0 {
		t.Error("trace has no retransmitted hops under 10% loss")
	}
	if len(ops["deliver"]) != 1 || ops["deliver"][0].Node != "b1" {
		t.Errorf("trace delivery = %v, want exactly one at b1", ops["deliver"])
	}
	if ops["deliver"][0].Bytes != len(payload) {
		t.Errorf("delivered bytes = %d, want %d", ops["deliver"][0].Bytes, len(payload))
	}
	if len(ops["e2e"]) == 0 {
		t.Error("trace has no end-to-end acknowledgement event")
	}

	// The bubble analyzer sees the reliable engines' spans.
	lanes := sys.Lanes(0, sys.Now())
	if len(lanes) == 0 {
		t.Error("no pipeline lanes analyzed")
	}
}

// TestObservabilityStreamingRun checks the instrumentation of the paper's
// fault-free streaming path: GTM fragmentation hops, gateway relay and swap
// histograms, and the memcpy/link counters.
func TestObservabilityStreamingRun(t *testing.T) {
	m := madeleine.NewMetrics()
	sys, err := madeleine.NewSystem(demoConfig, madeleine.WithMetrics(m))
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 300_000)
	var got []byte
	sys.Spawn("sender", func(p *madeleine.Proc) {
		px := sys.At("a0").BeginPacking(p, "b0")
		px.Pack(p, payload, madeleine.SendCheaper, madeleine.ReceiveCheaper)
		px.EndPacking(p)
	})
	sys.Spawn("receiver", func(p *madeleine.Proc) {
		u := sys.At("b0").BeginUnpacking(p)
		got = make([]byte, len(payload))
		u.Unpack(p, got, madeleine.SendCheaper, madeleine.ReceiveCheaper)
		u.EndUnpacking(p)
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}

	// One GTM message: pack at a0, per-fragment hops, gateway relay,
	// reassembly at b0.
	ids := m.Messages()
	if len(ids) != 1 {
		t.Fatalf("Messages() = %v, want exactly one", ids)
	}
	hops := sys.MessageTrace(ids[0])
	ops := make(map[string]int)
	for _, h := range hops {
		ops[h.Op]++
	}
	if ops["pack"] != 1 || ops["relay"] == 0 || ops["deliver"] != 1 {
		t.Errorf("streaming trace ops = %v, want pack/relay/deliver", ops)
	}

	// The gateway swap histogram measures the §3.3.1 buffer-switch
	// overhead: every observation is the host's constant SwapOverhead, so
	// all quantiles agree.
	gw := madeleine.MetricLabels{"gateway": "gw"}
	if n := m.HistogramCount("madgo_gateway_swap_seconds", gw); n == 0 {
		t.Fatal("no gateway swap observations")
	}
	p50, ok := m.Quantile("madgo_gateway_swap_seconds", gw, 0.5)
	if !ok {
		t.Fatal("no p50 swap quantile")
	}
	p99, _ := m.Quantile("madgo_gateway_swap_seconds", gw, 0.99)
	if p50 != p99 {
		t.Errorf("constant swap overhead has p50 %v != p99 %v", p50, p99)
	}
	if p50 < 10e-6 || p50 > 200e-6 {
		t.Errorf("swap overhead p50 = %v s, want tens of microseconds", p50)
	}

	if m.Counter("madgo_link_sends_total", madeleine.MetricLabels{"net": "sci0", "node": "a0"}) == 0 {
		t.Error("no link sends counted on a0/sci0")
	}
	if m.Counter("madgo_gateway_relayed_packets_total", gw) == 0 {
		t.Error("no relayed packets counted")
	}

	// Lane analysis over the gateway pipeline actors.
	lanes := sys.Lanes(0, sys.Now())
	var sawGw bool
	for _, l := range lanes {
		if strings.HasPrefix(l.Actor, "gw:") {
			sawGw = true
			if l.Busy+l.Stall+l.Idle != madeleine.Duration(sys.Now()) {
				t.Errorf("lane %s: busy+stall+idle = %v, window = %v",
					l.Actor, l.Busy+l.Stall+l.Idle, sys.Now())
			}
			if l.Stall == 0 {
				t.Errorf("lane %s has no buffer-switch stall time", l.Actor)
			}
		}
	}
	if !sawGw {
		t.Errorf("no gateway lanes in %d analyzed lanes", len(lanes))
	}
}

// bothWays streams 256 KiB a1 → b1 and b1 → a1 at once through the paper
// testbed's one gateway, so each of its networks carries an ingress and an
// egress pipeline, and returns the system after the run.
func bothWays(t *testing.T, opts ...madeleine.Option) *madeleine.System {
	t.Helper()
	sys, err := madeleine.NewSystemFromTopology(madeleine.PaperTestbed(),
		append(opts, madeleine.WithRouteNetworks("sci0", "myri0"))...)
	if err != nil {
		t.Fatal(err)
	}
	const n = 256 * 1024
	for _, pair := range [][2]string{{"a1", "b1"}, {"b1", "a1"}} {
		from, to := pair[0], pair[1]
		sys.Spawn("send "+from, func(p *madeleine.Proc) {
			px := sys.At(from).BeginPacking(p, to)
			px.Pack(p, make([]byte, n), madeleine.SendCheaper, madeleine.ReceiveCheaper)
			px.EndPacking(p)
		})
		sys.Spawn("recv "+to, func(p *madeleine.Proc) {
			u := sys.At(to).BeginUnpacking(p)
			u.Unpack(p, make([]byte, n), madeleine.SendCheaper, madeleine.ReceiveCheaper)
			u.EndUnpacking(p)
		})
	}
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestGatewayRelayingBothWaysKeepsEachSwapOnItsThread: a gateway relaying
// both ways between two networks records a buffer switch on each network
// from its receive thread and from its send thread. Each must land on its
// own thread's lane. The report is the one the gateway's span tracer gave
// for this run when every step was written to it as a span.
func TestGatewayRelayingBothWaysKeepsEachSwapOnItsThread(t *testing.T) {
	sys := bothWays(t)
	var b strings.Builder
	madeleine.WriteLaneReport(&b, sys.Lanes(0, sys.Now()))
	const want = `lane                       busy        stall         idle   util       period  spans
gw:recv:myri0           10.81ms    647.474µs      1.153ms  85.7%      1.526ms     23
gw:recv:sci0           11.151ms        320µs      1.139ms  88.4%      1.526ms     16
gw:send:myri0          10.803ms        320µs      1.487ms  85.7%      1.526ms     16
gw:send:sci0           11.498ms        320µs    793.082µs  91.2%      1.526ms     16
`
	if b.String() != want {
		t.Errorf("lane report:\n%s\nwant:\n%s", b.String(), want)
	}
}

// TestLanesPastTheRingDepth: a run longer than the flight rings hold must
// not give lanes that silently miss its start. Lanes then covers the window
// every ring still holds, and gives there what a run whose rings held every
// event gives over the same window; the Chrome trace refuses.
func TestLanesPastTheRingDepth(t *testing.T) {
	run := func(ringCap int) *madeleine.System {
		sys, err := madeleine.NewSystemFromTopology(madeleine.PaperTestbed(), madeleine.WithRouteNetworks("sci0", "myri0"),
			madeleine.WithMTU(4096), madeleine.WithFlightRingCap(ringCap))
		if err != nil {
			t.Fatal(err)
		}
		streamThrough(t, sys, "a1", "b1", 1, 4<<20)
		return sys
	}
	wrapped, whole := run(0), run(1<<15)
	if wrapped.Flight().Dropped() == 0 || whole.Flight().Dropped() != 0 {
		t.Fatalf("rings dropped %d events at the default depth and %d at 32Ki; want some and none",
			wrapped.Flight().Dropped(), whole.Flight().Dropped())
	}
	now := wrapped.Now()
	got := wrapped.Lanes(0, now)
	if len(got) == 0 || got[0].Window >= now.Sub(0) {
		t.Fatalf("the lanes of a wrapped ring cover the whole run [0, %v): %+v", now, got)
	}
	since := now.Add(-got[0].Window)
	if want := whole.Lanes(since, now); !reflect.DeepEqual(got, want) {
		t.Errorf("lanes over [%v, %v) of the wrapped run:\n%+v\nwant those of the run that kept every event:\n%+v", since, now, got, want)
	}
	var b bytes.Buffer
	if err := wrapped.WriteChromeTrace(&b); err == nil || b.Len() != 0 {
		t.Errorf("the Chrome trace of a wrapped ring: error %v, %d bytes; want an error and nothing written", err, b.Len())
	}
	if err := whole.WriteChromeTrace(&b); err != nil {
		t.Error(err)
	}
}

// lanesOf derives sys's lanes; a flight ring that overwrote events fails t.
func lanesOf(t *testing.T, sys *madeleine.System) trace.Log {
	t.Helper()
	lanes, err := trace.Of(sys.Session.Platform)
	if err != nil {
		t.Fatal(err)
	}
	return lanes
}

// TestLanesNeedNoTracer: the lanes, the timeline and the Chrome trace are
// derived from what the run recorded once, so arming WithTracer changes none
// of them, and the tracer's spans are the system's lanes. The streaming run
// draws the gateway's pipeline, the lossy one the recovery and fault lanes.
func TestLanesNeedNoTracer(t *testing.T) {
	views := func(sys *madeleine.System) (string, string, string) {
		var lanes, chrome bytes.Buffer
		madeleine.WriteLaneReport(&lanes, sys.Lanes(0, sys.Now()))
		if err := sys.WriteChromeTrace(&chrome); err != nil {
			t.Fatal(err)
		}
		return lanes.String(), lanesOf(t, sys).Timeline(0, sys.Now(), 100), chrome.String()
	}
	lossy := func() madeleine.Option {
		return madeleine.WithFaults(madeleine.NewFaultPlan(3).Drop("*", 0.05).
			Flap("myri0", madeleine.Time(2*madeleine.Millisecond), madeleine.Millisecond))
	}
	for _, run := range []struct {
		name  string
		opts  func() []madeleine.Option
		lanes []string
	}{
		{"streaming", func() []madeleine.Option { return nil }, []string{"gw:recv:sci0", "gw:send:myri0"}},
		{"lossy", func() []madeleine.Option { return []madeleine.Option{lossy()} }, []string{"rel:b1", "fault:myri0"}},
	} {
		tr := madeleine.NewTracer()
		plain := bothWays(t, append(run.opts(), madeleine.WithMetrics(madeleine.NewMetrics()))...)
		armed := bothWays(t, append(run.opts(), madeleine.WithMetrics(madeleine.NewMetrics()), madeleine.WithTracer(tr))...)
		l0, tl0, c0 := views(plain)
		l1, tl1, c1 := views(armed)
		for _, lane := range run.lanes {
			if !strings.Contains(tl0, lane) {
				t.Errorf("%s: the timeline has no %s lane:\n%s", run.name, lane, tl0)
			}
		}
		if l0 != l1 || tl0 != tl1 || c0 != c1 {
			t.Errorf("%s: WithTracer changed a derived view: lanes %v, timeline %v, Chrome trace %v the same",
				run.name, l0 == l1, tl0 == tl1, c0 == c1)
		}
		if got, want := fmt.Sprint(tr.Spans()), fmt.Sprint(lanesOf(t, armed)); got != want {
			t.Errorf("%s: the tracer's spans are not the system's lanes:\n%s\nwant:\n%s", run.name, got, want)
		}
	}
}
