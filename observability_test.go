package madeleine_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	madeleine "madgo"
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
	tr := madeleine.NewTracer()
	m := madeleine.NewMetrics()
	sys, err := madeleine.NewSystemFromTopology(madeleine.PaperTestbed(),
		madeleine.WithRouteNetworks("sci0", "myri0"),
		madeleine.WithMTU(16*1024),
		madeleine.WithFaults(plan),
		madeleine.WithTracer(tr),
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
	tr := madeleine.NewTracer()
	m := madeleine.NewMetrics()
	sys, err := madeleine.NewSystem(demoConfig,
		madeleine.WithTracer(tr), madeleine.WithMetrics(m))
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
