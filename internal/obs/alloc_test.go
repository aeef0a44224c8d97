package obs

import (
	"testing"

	"madgo/internal/vtime"
)

// The write path is a pointer bump (DESIGN.md §19, §21): a counter changes its
// own number in place, attached or not, and a gauge or histogram handle points
// into its series; nothing is looked up.

func TestCounterAddAllocsNothing(t *testing.T) {
	var free, bound Counter
	New().BindCounter(&bound, "madgo_link_sends_total", Labels{"net": "sci0", "node": "a"})
	for _, c := range []*Counter{&free, &bound} {
		if n := testing.AllocsPerRun(1000, func() { c.Add(1) }); n != 0 {
			t.Errorf("Counter.Add allocates %.1f times, want 0", n)
		}
		if c.Count() != 1001 {
			t.Errorf("counter = %d after 1001 increments", c.Count())
		}
	}
}

func TestGaugeSetAllocsNothing(t *testing.T) {
	g := New().BindGauge("madgo_active_flows", nil)
	if n := testing.AllocsPerRun(1000, func() { g.Set(3) }); n != 0 {
		t.Errorf("Gauge.Set allocates %.1f times, want 0", n)
	}
}

func TestHistogramObserveAllocsNothing(t *testing.T) {
	h := New().BindHistogram("madgo_link_send_seconds", Labels{"net": "sci0", "node": "a"})
	i := 0
	n := testing.AllocsPerRun(1000, func() {
		i++
		h.ObserveDuration(vtime.Duration(i) * vtime.Microsecond)
	})
	if n != 0 {
		t.Errorf("Histogram.Observe allocates %.1f times, want 0", n)
	}
	if h.Count() != 1001 {
		t.Errorf("count = %d after 1001 observations", h.Count())
	}
}

// The string-keyed door builds its key on the stack, so finding an existing
// series allocates nothing either; what it costs is the build and the lookup.
func TestStringKeyedHitAllocsNothing(t *testing.T) {
	r, labels := New(), Labels{"net": "sci0", "node": "a"}
	r.Add("madgo_link_sends_total", labels, 0)
	if n := testing.AllocsPerRun(1000, func() { r.Add("madgo_link_sends_total", labels, 1) }); n != 0 {
		t.Errorf("Registry.Add on an existing series allocates %.1f times, want 0", n)
	}
}

// A hop is copied into the current chunk: no detail text, no index entry. The
// only allocation is the next chunk, one per hopChunk records.
func TestRecordHopAllocsNothing(t *testing.T) {
	r := New()
	const records = 8 * hopChunk
	i := 0
	n := testing.AllocsPerRun(records, func() {
		i++
		r.RecordHopDetail(uint64(i/4), vtime.Time(i), "gw", "relay",
			Detail{Form: "${node} -> ${peer} via ${net}", Peer: "b1", Net: "myri0", A: i}, 1024)
	})
	if n != 0 {
		t.Errorf("RecordHopDetail allocates %.2f times per hop, want 0 amortised over a chunk", n)
	}
	if got, want := len(r.chunks), (records+1+hopChunk-1)/hopChunk; got != want {
		t.Errorf("%d hops sit in %d chunks, want %d", records+1, got, want)
	}
	if r.byMsg != nil {
		t.Error("the per-message index was built before any reader asked for it")
	}
	if got := r.MessageTrace(3); len(got) != 4 || got[0].Detail != "gw -> b1 via myri0" {
		t.Errorf("MessageTrace(3) = %v", got)
	}
}
