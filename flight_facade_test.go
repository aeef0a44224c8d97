package madeleine_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	madeleine "madgo"
	"madgo/internal/flight"
)

// streamThrough runs count back-to-back messages of n bytes from src to dst
// and fails the test on any simulation error.
func streamThrough(t *testing.T, sys *madeleine.System, src, dst string, count, n int) {
	t.Helper()
	payload := make([]byte, n)
	sys.Spawn("sender", func(p *madeleine.Proc) {
		for i := 0; i < count; i++ {
			px := sys.At(src).BeginPacking(p, dst)
			px.Pack(p, payload, madeleine.SendCheaper, madeleine.ReceiveCheaper)
			px.EndPacking(p)
		}
	})
	sys.Spawn("receiver", func(p *madeleine.Proc) {
		buf := make([]byte, n)
		for i := 0; i < count; i++ {
			u := sys.At(dst).BeginUnpacking(p)
			u.Unpack(p, buf, madeleine.SendCheaper, madeleine.ReceiveCheaper)
			u.EndUnpacking(p)
		}
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestDiagnoseSwapBoundFlip is the issue's acceptance scenario for the
// §3.4.1 pathology: the same forwarded stream is swap-overhead-bound at
// pipeline depth 1 and healthy (of that pathology) at depth 8.
func TestDiagnoseSwapBoundFlip(t *testing.T) {
	verdict := func(depth int) madeleine.Diagnosis {
		m := madeleine.NewMetrics()
		sys, err := madeleine.NewSystem(demoConfig,
			madeleine.WithMetrics(m),
			madeleine.WithPipelineDepth(depth))
		if err != nil {
			t.Fatal(err)
		}
		streamThrough(t, sys, "a0", "b0", 8, 128*1024)
		return sys.Diagnose()
	}

	shallow := verdict(1)
	if !shallow.Has(madeleine.DiagSwapBound) {
		t.Errorf("depth-1 run not diagnosed swap-overhead-bound: %+v", shallow.Findings)
	}
	deep := verdict(8)
	if deep.Has(madeleine.DiagSwapBound) {
		t.Errorf("depth-8 run still diagnosed swap-overhead-bound: %+v", deep.Findings)
	}
}

// TestDiagnoseRetransmitBoundUnderFlap mirrors the r2 recovery scenario: a
// link flap mid-stream drives retransmissions and backoff, and the analyzer
// names the run retransmit-bound.
func TestDiagnoseRetransmitBoundUnderFlap(t *testing.T) {
	plan := madeleine.NewFaultPlan(42).Flap("sci0", madeleine.Time(10*madeleine.Millisecond), 60*madeleine.Millisecond)
	m := madeleine.NewMetrics()
	sys, err := madeleine.NewSystem(demoConfig,
		madeleine.WithMetrics(m),
		madeleine.WithFaults(plan))
	if err != nil {
		t.Fatal(err)
	}
	streamThrough(t, sys, "a0", "b1", 40, 32*1024)
	if sys.Stats().Delivery.Retransmits == 0 {
		t.Fatal("flap run saw zero retransmissions; the diagnosis below would be vacuous")
	}
	d := sys.Diagnose()
	if !d.Has(madeleine.DiagRexmitBound) {
		t.Errorf("flap run not diagnosed retransmit-bound: %+v", d.Findings)
	}
	var f madeleine.Finding
	for _, cand := range d.Findings {
		if cand.Code == madeleine.DiagRexmitBound {
			f = cand
		}
	}
	if len(f.Evidence) == 0 || !strings.Contains(strings.Join(f.Evidence, " "), "outage window") {
		t.Errorf("retransmit-bound finding names no outage window: %+v", f)
	}
}

// TestFlightBudgets checks the per-message latency budgets: every streamed
// message gets one, wire time is attributed, and the report renders.
func TestFlightBudgets(t *testing.T) {
	m := madeleine.NewMetrics()
	sys, err := madeleine.NewSystem(demoConfig, madeleine.WithMetrics(m))
	if err != nil {
		t.Fatal(err)
	}
	streamThrough(t, sys, "a0", "b0", 3, 64*1024)
	bs := sys.Budgets()
	if len(bs) != 3 {
		t.Fatalf("Budgets() returned %d budgets, want 3", len(bs))
	}
	for _, b := range bs {
		if b.Total <= 0 {
			t.Errorf("message %d: non-positive total %v", b.Msg, b.Total)
		}
		if b.Stages[madeleine.StageWire] <= 0 {
			t.Errorf("message %d: no wire time attributed", b.Msg)
		}
		if b.Stages[madeleine.StageSwap] <= 0 {
			t.Errorf("message %d: no buffer-swap time attributed on a forwarded route", b.Msg)
		}
	}
	var report bytes.Buffer
	madeleine.WriteBudgetReport(&report, bs)
	for _, want := range []string{"wire", "buffer-swap", "all"} {
		if !strings.Contains(report.String(), want) {
			t.Errorf("budget report missing %q:\n%s", want, report.String())
		}
	}

	// A send that buffers its blocks pays the host's pack cost per block, and
	// the budget shows it as pack time whichever layer does the buffering:
	// the coalescer and the rail scheduler as well as the reliable protocol.
	for _, c := range []struct {
		name, config, src, dst string
		size                   int
		opts                   []madeleine.Option
	}{
		{"aggregated 64 B", demoConfig, "a0", "b0", 64,
			[]madeleine.Option{madeleine.WithEagerSmallMessages(), madeleine.WithAggregation()}},
		{"striped 256 KiB", "network myri0 myrinet\nnetwork sci0 sci\nnode a myri0 sci0\nnode b myri0 sci0\n", "a", "b", 256 * 1024,
			[]madeleine.Option{madeleine.WithStriping(2)}},
	} {
		sys, err := madeleine.NewSystem(c.config, append(c.opts, madeleine.WithMetrics(madeleine.NewMetrics()))...)
		if err != nil {
			t.Fatal(err)
		}
		streamThrough(t, sys, c.src, c.dst, 1, c.size)
		if bs := sys.Budgets(); len(bs) == 0 || bs[0].Stages[madeleine.StagePack] <= 0 {
			t.Errorf("%s message: no pack time in its budget: %+v", c.name, bs)
		}
	}
}

// TestFlightBudgetBroadcast checks that a relayed broadcast's budget sees the
// gateways: a 64 KiB multicast replicated by two gateways must charge the
// buffer swaps of every staged fragment and the egress transmissions of every
// branch, not only the ingress receives.
func TestFlightBudgetBroadcast(t *testing.T) {
	sys, err := madeleine.NewSystem(`network up sci
network core myrinet
network leaf sci
node root up
node gw1 up core
node c1 core
node c2 core
node gw2 core leaf
node l1 leaf
node l2 leaf
`, madeleine.WithMetrics(madeleine.NewMetrics()))
	if err != nil {
		t.Fatal(err)
	}
	dsts := []string{"c1", "c2", "l1", "l2"}
	payload := make([]byte, 64*1024)
	sys.Spawn("root", func(p *madeleine.Proc) {
		px := sys.At("root").BeginMulticast(p, dsts...)
		px.Pack(p, payload, madeleine.SendCheaper, madeleine.ReceiveCheaper)
		px.EndPacking(p)
	})
	for _, dst := range dsts {
		sys.Spawn("recv:"+dst, func(p *madeleine.Proc) {
			u := sys.At(dst).BeginUnpacking(p)
			u.Unpack(p, make([]byte, len(payload)), madeleine.SendCheaper, madeleine.ReceiveCheaper)
			u.EndUnpacking(p)
		})
	}
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	bs := sys.Budgets()
	if len(bs) != 1 {
		t.Fatalf("Budgets() returned %d budgets, want 1", len(bs))
	}
	var ingress madeleine.Duration
	for _, e := range sys.Flight().Events() {
		if e.Kind == flight.KindRecv {
			ingress += e.Dur
		}
	}
	if swap := bs[0].Stages[madeleine.StageSwap]; swap <= 0 {
		t.Errorf("no buffer-swap time attributed to a broadcast relayed by two gateways")
	}
	if wire := bs[0].Stages[madeleine.StageWire]; wire <= ingress {
		t.Errorf("wire stage %v holds only the %v of gateway ingress; egress replication is missing", wire, ingress)
	}
}

// TestFlightDumpOnDeliveryError checks the automatic snapshot: a run that
// ends in a DeliveryError leaves a flight dump naming the failure.
func TestFlightDumpOnDeliveryError(t *testing.T) {
	plan := madeleine.NewFaultPlan(3).Crash("gw", madeleine.Time(2*madeleine.Millisecond), madeleine.Second)
	sys, err := madeleine.NewSystem(demoConfig, madeleine.WithFaults(plan))
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 256*1024)
	sys.Spawn("sender", func(p *madeleine.Proc) {
		px := sys.At("a0").BeginPacking(p, "b0")
		px.Pack(p, payload, madeleine.SendCheaper, madeleine.ReceiveCheaper)
		px.EndPacking(p)
	})
	sys.Spawn("receiver", func(p *madeleine.Proc) {
		u := sys.At("b0").BeginUnpacking(p)
		u.Unpack(p, make([]byte, len(payload)), madeleine.SendCheaper, madeleine.ReceiveCheaper)
		u.EndUnpacking(p)
	})
	var de *madeleine.DeliveryError
	if runErr := sys.Run(); !errors.As(runErr, &de) {
		t.Fatalf("crashed-gateway run ended in %v; expected a delivery error", runErr)
	}
	// The error's dump is not the first: every reliable system runs the
	// failure detector (PR 22; before it only WithHealthMonitor did), so the
	// gateway's links die first and each new routing epoch leaves a
	// "health-epoch-N" dump of its own ahead of it, under the same cap.
	var reasons []string
	named := false
	for _, d := range sys.Flight().Dumps() {
		reasons = append(reasons, d.Reason)
		named = named || strings.Contains(d.Reason, "delivery-error")
	}
	if !named {
		t.Errorf("dump reasons %q: none names the delivery error", reasons)
	}
	var out bytes.Buffer
	if err := sys.WriteFlightJSON(&out); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Rings []struct {
			Node   string            `json:"node"`
			Events []json.RawMessage `json:"events"`
		} `json:"rings"`
		Dumps []struct {
			Reason string `json:"reason"`
		} `json:"dumps"`
	}
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("flight JSON does not parse: %v", err)
	}
	if len(doc.Rings) == 0 || len(doc.Dumps) == 0 {
		t.Errorf("flight JSON has %d rings and %d dumps, want both non-empty", len(doc.Rings), len(doc.Dumps))
	}
}

// TestFlightChromeReplay checks that flight events replay into the Chrome
// exporter: with no tracer attached, the trace still carries per-node
// flight spans.
func TestFlightChromeReplay(t *testing.T) {
	sys, err := madeleine.NewSystem(demoConfig)
	if err != nil {
		t.Fatal(err)
	}
	streamThrough(t, sys, "a0", "b0", 2, 64*1024)
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
	// Find the pid of the "flight" process, then count spans in it.
	flightPid := -1.0
	for _, ev := range doc.TraceEvents {
		if name, _ := ev["name"].(string); name == "process_name" {
			if args, _ := ev["args"].(map[string]any); args != nil && args["name"] == "flight" {
				flightPid, _ = ev["pid"].(float64)
			}
		}
	}
	if flightPid < 0 {
		t.Fatal("chrome trace has no \"flight\" process")
	}
	var flightSpans int
	for _, ev := range doc.TraceEvents {
		if ph, _ := ev["ph"].(string); ph == "X" && ev["pid"] == flightPid {
			flightSpans++
		}
	}
	if flightSpans == 0 {
		t.Error("chrome trace has no flight-recorder spans")
	}
}
