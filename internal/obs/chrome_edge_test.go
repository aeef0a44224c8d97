package obs

import (
	"bytes"
	"encoding/json"
	"testing"

	"madgo/internal/vtime"
)

// TestChromeTraceZeroEvents pins the degenerate case: a run with no spans
// and no hops must still produce {"traceEvents": []} — Perfetto rejects
// "traceEvents": null, which a nil slice would encode to.
func TestChromeTraceZeroEvents(t *testing.T) {
	var out bytes.Buffer
	if err := WriteChromeTrace(&out, nil, nil); err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("empty trace is not valid JSON: %v", err)
	}
	raw, ok := doc["traceEvents"]
	if !ok {
		t.Fatal("empty trace has no traceEvents key")
	}
	if string(raw) == "null" {
		t.Fatal(`empty trace encodes traceEvents as null; Perfetto requires []`)
	}
	var events []any
	if err := json.Unmarshal(raw, &events); err != nil {
		t.Fatalf("traceEvents is not an array: %v", err)
	}
	if len(events) != 0 {
		t.Fatalf("empty trace has %d events, want 0", len(events))
	}
}

// TestChromeTraceIdenticalTimestamps checks that events sharing one virtual
// instant — common in a discrete-event simulation, where a whole burst can
// complete at the same tick — all survive the export with zero-length
// durations rather than being merged or reordered.
func TestChromeTraceIdenticalTimestamps(t *testing.T) {
	at := vtime.Time(5 * vtime.Microsecond)
	spans := []Span{
		{Actor: "gw:recv:sci0", Op: "recv", Bytes: 100, T0: at, T1: at},
		{Actor: "gw:send:myri0", Op: "send", Bytes: 100, T0: at, T1: at},
	}
	hops := []Hop{
		{Msg: 1, At: at, Node: "gw", Op: "relay", Bytes: 100},
		{Msg: 2, At: at, Node: "gw", Op: "relay", Bytes: 100},
	}
	var out bytes.Buffer
	if err := WriteChromeTrace(&out, spans, hops); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	var complete, instant int
	for _, ev := range doc.TraceEvents {
		switch ev["ph"] {
		case "X":
			complete++
			if ts, _ := ev["ts"].(float64); ts != 5.0 {
				t.Errorf("span ts = %v µs, want 5", ts)
			}
			if dur, _ := ev["dur"].(float64); dur != 0 {
				t.Errorf("zero-width span has dur = %v, want 0", dur)
			}
		case "i":
			instant++
		}
	}
	if complete != 2 || instant != 2 {
		t.Errorf("exported %d spans and %d instants, want 2 and 2", complete, instant)
	}
}

// TestChromeTraceLargeEventCount pushes >64k events through the exporter:
// no internal counter may truncate (65535 is the classic wraparound), and
// every span must come back out.
func TestChromeTraceLargeEventCount(t *testing.T) {
	const n = 70_000
	spans := make([]Span, n)
	for i := range spans {
		t0 := vtime.Time(i) * vtime.Time(vtime.Microsecond)
		spans[i] = Span{Actor: "gw:send:myri0", Op: "send", Bytes: i, T0: t0, T1: t0 + vtime.Time(vtime.Microsecond)}
	}
	var out bytes.Buffer
	if err := WriteChromeTrace(&out, spans, nil); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("large trace is not valid JSON: %v", err)
	}
	var complete int
	for _, ev := range doc.TraceEvents {
		if ev["ph"] == "X" {
			complete++
		}
	}
	if complete != n {
		t.Errorf("large trace exported %d spans, want %d", complete, n)
	}
}
