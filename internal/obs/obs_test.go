package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"strings"
	"sync"
	"testing"

	"madgo/internal/vtime"
)

func TestCountersGaugesAndKeys(t *testing.T) {
	r := New()
	r.Add("pkts", Labels{"net": "sci0", "node": "a1"}, 1)
	r.Add("pkts", Labels{"node": "a1", "net": "sci0"}, 2) // same set, other order
	if got := r.Counter("pkts", Labels{"net": "sci0", "node": "a1"}); got != 3 {
		t.Fatalf("counter = %v, want 3", got)
	}
	if got := r.Counter("pkts", Labels{"net": "myri0", "node": "a1"}); got != 0 {
		t.Fatalf("absent counter = %v, want 0", got)
	}
	r.Set("depth", nil, 4)
	r.Set("depth", nil, 2)
	if got := r.Gauge("depth", nil); got != 2 {
		t.Fatalf("gauge = %v, want 2", got)
	}
	// A zero delta registers the series without changing it.
	r.Add("rexmits", Labels{"node": "gw"}, 0)
	var sb strings.Builder
	r.WritePrometheus(&sb)
	if !strings.Contains(sb.String(), `rexmits{node="gw"} 0`) {
		t.Fatalf("zero-registered counter missing from snapshot:\n%s", sb.String())
	}
}

// A counter series is the sum of its handles (DESIGN.md §21): each handle
// keeps its owner's count, two attached under one key read as one series with
// the string-keyed door's own count on top, and attaching twice counts once.
// Binding alone surfaces nothing.
func TestSeriesIsTheSumOfItsHandles(t *testing.T) {
	r, labels := New(), Labels{"node": "a"}
	var c1, c2 Counter
	r.BindCounter(&c1, "c_total", labels)
	r.BindCounter(&c2, "c_total", labels)
	g, h := r.BindGauge("g", nil), r.BindHistogram("h_seconds", nil)
	if c1.Count() != 0 || g.Value() != 0 || h.Count() != 0 || len(r.Samples()) != 0 {
		t.Fatalf("bound and read but never written, yet the registry holds %v", r.Samples())
	}
	c1.Add(2)
	c2.Add(3)
	r.Add("c_total", labels, 4)
	r.BindCounter(&c1, "c_total", Labels{"node": "a"}) // again: no second share
	if c1.Count() != 2 || c2.Count() != 3 || r.Counter("c_total", labels) != 9 {
		t.Errorf("handles read %d and %d, their series %v, want 2, 3 and 9", c1.Count(), c2.Count(), r.Counter("c_total", labels))
	}
	if got := r.Samples(); len(got) != 1 || got[0].Value != 9 {
		t.Errorf("samples after writing one series: %v", got)
	}
}

// A counter needs no registry to count, and one attached late brings what it
// has counted along; a nil registry attaches nothing and breaks nothing.
func TestFreeStandingCounterBringsItsCountAlong(t *testing.T) {
	var c, never Counter
	c.Add(5)
	(*Registry)(nil).BindCounter(&c, "c_total", nil)
	c.Add(1)
	r := New()
	r.BindCounter(&c, "c_total", nil)
	r.BindCounter(&never, "never_total", nil)
	c.Add(1)
	if got := r.Counter("c_total", nil); got != 7 || c.Count() != 7 {
		t.Errorf("series = %v, handle = %d, want 7 and 7", got, c.Count())
	}
	if got := r.Samples(); len(got) != 1 || got[0].Name != "c_total" {
		t.Errorf("an attached counter nobody wrote surfaced: %v", got)
	}
	never.Add(0) // a zero write registers
	if got := r.Samples(); len(got) != 2 || got[1].Value != 0 {
		t.Errorf("Add(0) did not register the series: %v", got)
	}
}

func TestCounterDecrementPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative Add did not panic")
		}
	}()
	New().Add("pkts", nil, -1)
}

func TestNilRegistryIsSafe(t *testing.T) {
	var r *Registry
	r.Add("x", nil, 1)
	r.Set("x", nil, 1)
	r.Observe("x", nil, 1)
	r.SetClock(nil)
	r.RecordHop(1, 0, "a", "pack", "", 0)
	if r.Counter("x", nil) != 0 || r.Gauge("x", nil) != 0 || r.HistogramCount("x", nil) != 0 {
		t.Fatal("nil registry returned nonzero")
	}
	if _, ok := r.Quantile("x", nil, 0.5); ok {
		t.Fatal("nil registry quantile ok")
	}
	if r.MessageTrace(1) != nil || r.Messages() != nil || r.Hops() != nil {
		t.Fatal("nil registry returned hops")
	}
	if r.Now() != 0 {
		t.Fatal("nil registry Now != 0")
	}
	var sb strings.Builder
	r.WritePrometheus(&sb)
	if !strings.Contains(sb.String(), "no metrics registry") {
		t.Fatalf("nil snapshot: %q", sb.String())
	}
}

func TestHistogramQuantileConstantSeriesIsExact(t *testing.T) {
	// The §3.4.1 reproduction depends on this: every buffer switch costs
	// exactly SwapOverhead, so the quantiles must report it exactly, not the
	// containing bucket's bound.
	r := New()
	for i := 0; i < 100; i++ {
		r.Observe("swap", nil, (40 * vtime.Microsecond).Seconds())
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		got, ok := r.Quantile("swap", nil, q)
		if !ok || math.Abs(got-40e-6) > 1e-12 {
			t.Fatalf("q%v = %v ok=%v, want exactly 40e-6", q, got, ok)
		}
	}
}

func TestHistogramQuantileOrdering(t *testing.T) {
	h := New().BindHistogram("lat", nil)
	for i := 1; i <= 1000; i++ {
		h.Observe(float64(i) * 1e-6) // 1µs .. 1ms uniform
	}
	p50, p99 := h.quantile(0.5), h.quantile(0.99)
	if !(p50 < p99) {
		t.Fatalf("p50=%v >= p99=%v", p50, p99)
	}
	// Log buckets with 8 sub-octaves bound relative error by 2^(1/8)-1 ≈ 9%.
	if math.Abs(p50-500e-6)/500e-6 > 0.1 {
		t.Fatalf("p50 = %v, want ~500µs within 10%%", p50)
	}
	if math.Abs(p99-990e-6)/990e-6 > 0.1 {
		t.Fatalf("p99 = %v, want ~990µs within 10%%", p99)
	}
	if h.Count() != 1000 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.min != 1e-6 || h.max != 1e-3 {
		t.Fatalf("min/max = %v/%v", h.min, h.max)
	}
	if mean := h.sum / float64(h.count); math.Abs(mean-500.5e-6) > 1e-9 {
		t.Fatalf("mean = %v", mean)
	}
}

func TestHistogramNegativeObservationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative observation did not panic")
		}
	}()
	New().Observe("lat", nil, -1)
}

func TestBucketBoundsContainValues(t *testing.T) {
	for _, v := range []float64{1e-10, 1e-9, 3e-9, 41e-6, 1.0, 123.456} {
		i := bucketIndex(v)
		if bucketUpper(i) < v*(1-1e-12) {
			t.Fatalf("v=%v above bucket %d upper %v", v, i, bucketUpper(i))
		}
		if i > 0 && bucketUpper(i-1) >= v*(1+1e-12) {
			t.Fatalf("v=%v at or below bucket %d lower %v", v, i, bucketUpper(i-1))
		}
	}
}

// TestHistogramOverflowBucket: what the fixed bucket array cannot place — a
// value past its last bound, +Inf, NaN — is counted without a panic, and a
// snapshot shows it under le="+Inf" only, never under a finite bound it
// exceeds.
func TestHistogramOverflowBucket(t *testing.T) {
	r := New()
	last := bucketUpper(histOverflow - 1)
	for _, v := range []float64{1, last, last * 2, 1e30, math.Inf(1), math.NaN()} {
		r.Observe("lat", nil, v)
	}
	if got := r.HistogramCount("lat", nil); got != 6 {
		t.Fatalf("count = %d, want 6", got)
	}
	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	out := buf.String()
	for _, want := range []string{
		`lat_bucket{le="` + formatVal(last) + `"} 3` + "\n", // NaN (bucket 0), 1 and last
		`lat_bucket{le="+Inf"} 6` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("snapshot lacks %q:\n%s", want, out)
		}
	}
	if n := strings.Count(out, "lat_bucket{"); n != 4 {
		t.Errorf("%d bucket lines, want 4 (NaN's, 1's, the last finite bound's and +Inf)", n)
	}
}

func TestMessageTraceOrdering(t *testing.T) {
	r := New()
	r.RecordHop(7, 300, "gw", "relay", "sci0 -> myri0", 1024)
	r.RecordHop(7, 100, "a1", "pack", "", 2048)
	r.RecordHop(7, 200, "a1", "hop", "a1 -> gw via sci0", 1024)
	r.RecordHop(9, 150, "b1", "pack", "", 64)
	hops := r.MessageTrace(7)
	if len(hops) != 3 {
		t.Fatalf("len = %d, want 3", len(hops))
	}
	ops := []string{hops[0].Op, hops[1].Op, hops[2].Op}
	if ops[0] != "pack" || ops[1] != "hop" || ops[2] != "relay" {
		t.Fatalf("order = %v", ops)
	}
	if r.MessageTrace(8) != nil {
		t.Fatal("unknown message returned hops")
	}
	if ids := r.Messages(); len(ids) != 2 || ids[0] != 7 || ids[1] != 9 {
		t.Fatalf("messages = %v", ids)
	}
	if len(r.Hops()) != 4 {
		t.Fatalf("hops = %d", len(r.Hops()))
	}
	if s := hops[0].String(); !strings.Contains(s, "pack") || !strings.Contains(s, "a1") {
		t.Fatalf("hop string: %q", s)
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := New()
	r.SetClock(func() vtime.Time { return vtime.Time(5 * vtime.Millisecond) })
	r.Add("madgo_retransmits_total", Labels{"node": "a1"}, 3)
	r.Set("madgo_active_flows", Labels{"net": "sci0"}, 2)
	r.Observe("madgo_send_seconds", Labels{"net": "sci0"}, 40e-6)
	r.Observe("madgo_send_seconds", Labels{"net": "sci0"}, 80e-6)

	var sb strings.Builder
	r.WritePrometheus(&sb)
	out := sb.String()
	for _, want := range []string{
		"# madgo metrics snapshot at virtual time 5ms",
		"# TYPE madgo_retransmits_total counter",
		`madgo_retransmits_total{node="a1"} 3`,
		"# TYPE madgo_active_flows gauge",
		`madgo_active_flows{net="sci0"} 2`,
		"# TYPE madgo_send_seconds histogram",
		`madgo_send_seconds_bucket{le="+Inf",net="sci0"} 2`,
		`madgo_send_seconds_count{net="sci0"} 2`,
		`madgo_send_seconds{net="sci0",quantile="0.5"}`,
		`madgo_send_seconds{net="sci0",quantile="0.99"}`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("snapshot missing %q:\n%s", want, out)
		}
	}
	// Buckets must be cumulative: the +Inf bucket equals the count and no
	// earlier bucket exceeds it.
	if strings.Count(out, "madgo_send_seconds_bucket") < 3 {
		t.Fatalf("expected at least 3 bucket lines:\n%s", out)
	}
}

func TestWriteChromeTraceIsValidJSON(t *testing.T) {
	spans := []Span{
		{Actor: "gw:recv:sci0", Op: "recv", Bytes: 1024, T0: 0, T1: vtime.Time(10 * vtime.Microsecond)},
		{Actor: "gw:send:myri0", Op: "send", Bytes: 1024, T0: vtime.Time(10 * vtime.Microsecond), T1: vtime.Time(25 * vtime.Microsecond)},
	}
	r := New()
	r.RecordHop(1, vtime.Time(5*vtime.Microsecond), "a1", "pack", "", 1024)
	r.RecordHop(1, vtime.Time(30*vtime.Microsecond), "b1", "deliver", "", 1024)

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, spans, r.Hops()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Pid  int     `json:"pid"`
			Tid  int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	var complete, instant, meta int
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "X":
			complete++
			if e.Pid <= 0 || e.Tid <= 0 {
				t.Fatalf("span event without pid/tid: %+v", e)
			}
		case "i":
			instant++
		case "M":
			meta++
		}
	}
	if complete != 2 || instant != 2 {
		t.Fatalf("complete=%d instant=%d, want 2/2", complete, instant)
	}
	if meta < 4 { // 2+ processes, 2+ threads
		t.Fatalf("metadata events = %d, want >= 4", meta)
	}
	// recv span starts at t=0 and lasts 10µs.
	for _, e := range doc.TraceEvents {
		if e.Name == "recv" && e.Ph == "X" {
			if e.Ts != 0 || e.Dur != 10 {
				t.Fatalf("recv ts=%v dur=%v, want 0/10", e.Ts, e.Dur)
			}
		}
	}
}

// Handles are shared: several goroutines may write one series — and read,
// bind and snapshot — at once. Run under -race; the totals also pin that the
// counter's compare-and-swap loses no increment.
func TestHandlesAreSafeForConcurrentUse(t *testing.T) {
	const writers, writes = 8, 2000
	r := New()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			labels := Labels{"node": "a"}
			c, g, h := new(Counter), r.BindGauge("g", labels), r.BindHistogram("h_seconds", labels)
			r.BindCounter(c, "c_total", labels)
			for i := 0; i < writes; i++ {
				c.Add(1)
				g.Set(float64(i))
				h.Observe(float64(i+1) * 1e-6)
				r.RecordHopDetail(uint64(w), vtime.Time(i), "a", "hop", Detail{Form: "${node} -> ${peer}", Peer: "b"}, i)
				if i%500 == 0 {
					r.Samples()
					r.WritePrometheus(io.Discard)
					r.MessageTrace(uint64(w))
				}
			}
		}(w)
	}
	wg.Wait()
	labels := Labels{"node": "a"}
	if got := r.Counter("c_total", labels); got != writers*writes {
		t.Errorf("counter = %v, want %d", got, writers*writes)
	}
	if got := r.HistogramCount("h_seconds", labels); got != writers*writes {
		t.Errorf("histogram count = %d, want %d", got, writers*writes)
	}
	if got := len(r.Hops()); got != writers*writes {
		t.Errorf("%d hops, want %d", got, writers*writes)
	}
	for w := 0; w < writers; w++ {
		if got := len(r.MessageTrace(uint64(w))); got != writes {
			t.Errorf("message %d has %d hops, want %d", w, got, writes)
		}
	}
}
