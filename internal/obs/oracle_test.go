package obs

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"madgo/internal/vtime"
)

// oracleRegistry is the registry as it stood before series handles: every
// write rebuilds the canonical key under one lock, histogram buckets live in
// a map, hop details arrive as finished strings and the per-message index
// grows with every hop. It is kept, unoptimised, as the reference the handle
// registry must agree with on everything a reader can see (the PR 13/14
// pattern: fluid and route keep theirs the same way).
type oracleRegistry struct {
	counters map[string]*oracleSeries
	gauges   map[string]*oracleSeries
	hists    map[string]*oracleHistogram
	hops     []Hop
	byMsg    map[uint64][]int
}

type oracleSeries struct {
	name   string
	labels Labels
	val    float64
}

type oracleHistogram struct {
	name    string
	labels  Labels
	buckets map[int]int64
	count   int64
	sum     float64
	min     float64
	max     float64
}

func newOracle() *oracleRegistry {
	return &oracleRegistry{
		counters: make(map[string]*oracleSeries),
		gauges:   make(map[string]*oracleSeries),
		hists:    make(map[string]*oracleHistogram),
		byMsg:    make(map[uint64][]int),
	}
}

func oracleKey(name string, labels Labels) string {
	if len(labels) == 0 {
		return name
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	sb.WriteString(name)
	sb.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%s=%q", k, labels[k])
	}
	sb.WriteByte('}')
	return sb.String()
}

func (r *oracleRegistry) Add(name string, labels Labels, delta float64) {
	k := oracleKey(name, labels)
	s := r.counters[k]
	if s == nil {
		s = &oracleSeries{name: name, labels: copyLabels(labels)}
		r.counters[k] = s
	}
	s.val += delta
}

func (r *oracleRegistry) Set(name string, labels Labels, v float64) {
	k := oracleKey(name, labels)
	s := r.gauges[k]
	if s == nil {
		s = &oracleSeries{name: name, labels: copyLabels(labels)}
		r.gauges[k] = s
	}
	s.val = v
}

func (r *oracleRegistry) Observe(name string, labels Labels, v float64) {
	k := oracleKey(name, labels)
	h := r.hists[k]
	if h == nil {
		h = &oracleHistogram{name: name, labels: copyLabels(labels), buckets: make(map[int]int64)}
		r.hists[k] = h
	}
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	h.buckets[bucketIndex(v)]++
}

func (h *oracleHistogram) sortedIndexes() []int {
	idx := make([]int, 0, len(h.buckets))
	for i := range h.buckets {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	return idx
}

func (h *oracleHistogram) quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(h.count)
	var cum int64
	for _, i := range h.sortedIndexes() {
		n := h.buckets[i]
		if float64(cum+n) >= rank {
			lo := 0.0
			if i > 0 {
				lo = bucketUpper(i - 1)
			}
			hi := bucketUpper(i)
			frac := (rank - float64(cum)) / float64(n)
			return min(max(lo+(hi-lo)*frac, h.min), h.max)
		}
		cum += n
	}
	return h.max
}

func (r *oracleRegistry) RecordHop(msg uint64, at vtime.Time, node, op, detail string, bytes int) {
	r.byMsg[msg] = append(r.byMsg[msg], len(r.hops))
	r.hops = append(r.hops, Hop{Msg: msg, At: at, Node: node, Op: op, Detail: detail, Bytes: bytes})
}

func (r *oracleRegistry) MessageTrace(msg uint64) []Hop {
	idx := r.byMsg[msg]
	if len(idx) == 0 {
		return nil
	}
	out := make([]Hop, len(idx))
	for i, j := range idx {
		out[i] = r.hops[j]
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

func (r *oracleRegistry) Messages() []uint64 {
	out := make([]uint64, 0, len(r.byMsg))
	for id := range r.byMsg {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (r *oracleRegistry) Hops() []Hop { return append([]Hop(nil), r.hops...) }

func (r *oracleRegistry) WritePrometheus(w io.Writer, now vtime.Time) {
	fmt.Fprintf(w, "# madgo metrics snapshot at virtual time %v\n", now)
	families := make(map[string][]string)
	types := make(map[string]string)
	for k, s := range r.counters {
		families[s.name] = append(families[s.name], fmt.Sprintf("%s %s", k, oracleFormatVal(s.val)))
		types[s.name] = "counter"
	}
	for k, s := range r.gauges {
		families[s.name] = append(families[s.name], fmt.Sprintf("%s %s", k, oracleFormatVal(s.val)))
		types[s.name] = "gauge"
	}
	for _, h := range r.hists {
		families[h.name] = append(families[h.name], oracleRenderHistogram(h)...)
		types[h.name] = "histogram"
	}
	names := make([]string, 0, len(families))
	for n := range families {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "# TYPE %s %s\n", n, types[n])
		lines := families[n]
		sort.Strings(lines)
		for _, l := range lines {
			fmt.Fprintln(w, l)
		}
	}
}

func oracleRenderHistogram(h *oracleHistogram) []string {
	var out []string
	var cum int64
	for _, i := range h.sortedIndexes() {
		cum += h.buckets[i]
		out = append(out, fmt.Sprintf("%s %d",
			oracleKey(h.name+"_bucket", oracleWithLabel(h.labels, "le", oracleFormatVal(bucketUpper(i)))), cum))
	}
	out = append(out, fmt.Sprintf("%s %d",
		oracleKey(h.name+"_bucket", oracleWithLabel(h.labels, "le", "+Inf")), h.count))
	out = append(out, fmt.Sprintf("%s %s", oracleKey(h.name+"_sum", h.labels), oracleFormatVal(h.sum)))
	out = append(out, fmt.Sprintf("%s %d", oracleKey(h.name+"_count", h.labels), h.count))
	for _, q := range [...]float64{0.5, 0.9, 0.99} {
		out = append(out, fmt.Sprintf("%s %s",
			oracleKey(h.name, oracleWithLabel(h.labels, "quantile", fmt.Sprintf("%g", q))), oracleFormatVal(h.quantile(q))))
	}
	return out
}

func oracleWithLabel(l Labels, k, v string) Labels {
	out := make(Labels, len(l)+1)
	for kk, vv := range l {
		out[kk] = vv
	}
	out[k] = v
	return out
}

func oracleFormatVal(v float64) string {
	if v == float64(int64(v)) && v < 1e15 && v > -1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return strings.TrimSpace(fmt.Sprintf("%g", v))
}

func (r *oracleRegistry) Samples() []Sample {
	out := make([]Sample, 0, len(r.counters)+len(r.gauges)+len(r.hists))
	kindRank := map[string]int{"counter": 0, "gauge": 1, "histogram": 2}
	for _, s := range r.counters {
		out = append(out, Sample{Name: s.name, Kind: "counter", Labels: copyLabels(s.labels), Value: s.val})
	}
	for _, s := range r.gauges {
		out = append(out, Sample{Name: s.name, Kind: "gauge", Labels: copyLabels(s.labels), Value: s.val})
	}
	for _, h := range r.hists {
		sm := Sample{Name: h.name, Kind: "histogram", Labels: copyLabels(h.labels), Value: h.sum, Count: h.count}
		if h.count > 0 {
			sm.P50, sm.P90, sm.P99 = h.quantile(0.5), h.quantile(0.9), h.quantile(0.99)
		}
		out = append(out, sm)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Kind != out[j].Kind {
			return kindRank[out[i].Kind] < kindRank[out[j].Kind]
		}
		return oracleKey(out[i].Name, out[i].Labels) < oracleKey(out[j].Name, out[j].Labels)
	})
	return out
}

// TestRegistryAgreesWithStringKeyedOracle drives the handle registry and the
// oracle with one seeded stream of writes — over label sets that need sorting
// and quoting, through handles bound up front and through the string-keyed
// door, with hop details as fixed fields on one side and as fmt.Sprintf text
// on the other — and requires every reader to agree: Samples, the Prometheus
// bytes, Hops, Messages and MessageTrace of every message. Handles that were
// bound and never written must leave no trace in any of them.
func TestRegistryAgreesWithStringKeyedOracle(t *testing.T) {
	labelSets := []Labels{
		nil,
		{"node": "a1"},
		{"net": "sci0", "node": "a1"},
		{"node": "a1", "net": "myri0", "zone": "z"},
		{"a": `quo"te`, "le_": "x\\y", "quantilf": "né\n"},
		{"kind": "drop", "net": "*"},
	}
	names := []string{"madgo_a_total", "madgo_a", "madgo_b_seconds", "madgo_a_total_more"}
	forms := []struct {
		form   string
		printf func(node string, d Detail, bytes int) string
	}{
		{"", func(_ string, d Detail, _ int) string { return d.Note }},
		{"${node} -> ${peer} via ${net}", func(n string, d Detail, _ int) string { return fmt.Sprintf("%s -> %s via %s", n, d.Peer, d.Net) }},
		{"mcast -> ${note}", func(_ string, d Detail, _ int) string { return "mcast -> " + d.Note }},
		{"flush(${note}) -> ${peer}: ${a} msgs, ${bytes} bytes", func(_ string, d Detail, b int) string {
			return fmt.Sprintf("flush(%s) -> %s: %d msgs, %d bytes", d.Note, d.Peer, d.A, b)
		}},
		{"rail ${a} via ${net} dead, ${b} packets re-striped {", func(_ string, d Detail, _ int) string {
			return fmt.Sprintf("rail %d via %s dead, %d packets re-striped {", d.A, d.Net, d.B)
		}},
	}

	rng := rand.New(rand.NewSource(16))
	reg, oracle := New(), newOracle()
	type bound struct {
		c *Counter
		g *Gauge
		h *Histogram
	}
	handles := make(map[string]bound)
	for _, n := range names {
		for i, l := range labelSets {
			b := bound{new(Counter), reg.BindGauge(n, l), reg.BindHistogram(n, l)}
			reg.BindCounter(b.c, n, l)
			handles[fmt.Sprint(n, i)] = b
		}
	}
	reg.BindCounter(new(Counter), "madgo_never_written_total", Labels{"node": "a1"})

	for step := 0; step < 20000; step++ {
		n, li := names[rng.Intn(len(names))], rng.Intn(len(labelSets)-1) // the last label set is never written
		l, h, viaHandle := labelSets[li], handles[fmt.Sprint(n, li)], rng.Intn(2) == 0
		switch rng.Intn(4) {
		case 0:
			// Whole numbers, which is all a Counter counts: a series is the sum
			// of its handle's count and the door's. A third are zero:
			// registers only.
			v := float64(rng.Intn(3) * rng.Intn(1e6))
			oracle.Add(n, l, v)
			if viaHandle {
				h.c.Add(int64(v))
			} else {
				reg.Add(n, l, v)
			}
		case 1:
			v := rng.NormFloat64() * 1e3
			oracle.Set(n, l, v)
			if viaHandle {
				h.g.Set(v)
			} else {
				reg.Set(n, l, v)
			}
		case 2:
			v := math.Exp(rng.Float64()*30 - 23) // 1e-10 .. 1e3
			oracle.Observe(n, l, v)
			if viaHandle {
				h.h.Observe(v)
			} else {
				reg.Observe(n, l, v)
			}
		case 3:
			f := forms[rng.Intn(len(forms))]
			// Only Form is parsed: a value may look like a placeholder.
			d := Detail{Form: f.form, Peer: fmt.Sprint("b", rng.Intn(9)), Net: "myri0", Note: fmt.Sprint("{b", rng.Intn(9), ",${net}}"),
				A: rng.Intn(100), B: rng.Intn(1 << 20)}
			msg, at, node, bytes := uint64(rng.Intn(300)), vtime.Time(rng.Intn(5000)), fmt.Sprint("n", rng.Intn(4)), rng.Intn(1<<16)
			oracle.RecordHop(msg, at, node, "hop", f.printf(node, d, bytes), bytes)
			reg.RecordHopDetail(msg, at, node, "hop", d, bytes)
		}
		if step == 7000 {
			// Readers may run mid-stream; the lazily built index must pick
			// up where it left off.
			if got, want := reg.MessageTrace(7), oracle.MessageTrace(7); !reflect.DeepEqual(got, want) {
				t.Fatalf("mid-stream MessageTrace(7):\n got %v\nwant %v", got, want)
			}
		}
	}

	if got, want := reg.Samples(), oracle.Samples(); !reflect.DeepEqual(got, want) {
		t.Errorf("Samples differ: %d series against the oracle's %d", len(got), len(want))
		for i := range got {
			if i < len(want) && !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("first difference at %d:\n got %+v\nwant %+v", i, got[i], want[i])
			}
		}
	}
	var got, want bytes.Buffer
	reg.WritePrometheus(&got)
	oracle.WritePrometheus(&want, reg.Now())
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(want.String(), "\n")
		for i := range gl {
			if i >= len(wl) || gl[i] != wl[i] {
				t.Fatalf("Prometheus text differs at line %d:\n got %s\nwant %s", i+1, gl[i], wl[min(i, len(wl)-1)])
			}
		}
		t.Fatalf("Prometheus text: %d lines against the oracle's %d", len(gl), len(wl))
	}
	if strings.Contains(got.String(), "never_written") || strings.Contains(got.String(), `net="*"`) {
		t.Error("a handle that was bound and never written surfaced in the snapshot")
	}
	if !reflect.DeepEqual(reg.Hops(), oracle.Hops()) {
		t.Error("Hops differ from the oracle's")
	}
	if !reflect.DeepEqual(reg.Messages(), oracle.Messages()) {
		t.Fatal("Messages differ from the oracle's")
	}
	for _, id := range oracle.Messages() {
		if got, want := reg.MessageTrace(id), oracle.MessageTrace(id); !reflect.DeepEqual(got, want) {
			t.Fatalf("MessageTrace(%d):\n got %v\nwant %v", id, got, want)
		}
	}
}
