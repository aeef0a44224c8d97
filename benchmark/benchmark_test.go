package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"

	"madgo/internal/flow"
)

// fingerprint hashes everything the library is given for a workload.
func fingerprint(t *testing.T, name string, seed int64) uint64 {
	t.Helper()
	w, err := generate(name, seed, 100)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	for _, v := range w.variants {
		h.Write([]byte(v.topo))
		for _, f := range v.flows {
			fmt.Fprint(h, f.src, f.dsts, f.sizes)
			h.Write(f.pat)
			if !bytes.Equal(f.pat, f.tx) {
				t.Fatalf("%s: the sender's copy of a flow's pattern differs from the pattern", name)
			}
		}
	}
	return h.Sum64()
}

func TestSameSeedGeneratesSameInputs(t *testing.T) {
	for _, name := range workloadNames() {
		if fingerprint(t, name, 7) != fingerprint(t, name, 7) {
			t.Errorf("%s: seed 7 generated two different inputs", name)
		}
		if fingerprint(t, name, 7) == fingerprint(t, name, 8) {
			t.Errorf("%s: seeds 7 and 8 generated the same input", name)
		}
	}
	a, _ := generate("prod_lossy_mix", 7, 100)
	b, _ := generate("prod_lossy_mix", 8, 100)
	if reflect.DeepEqual(a.variants[0].flows[0].sizes, b.variants[0].flows[0].sizes) {
		t.Error("prod_lossy_mix: seeds 7 and 8 drew the same size sequence")
	}
	if _, err := generate("no_such_workload", 1, 1); err == nil {
		t.Error("an unknown workload name was accepted")
	}
}

// tinyRun runs the end-to-end pass of the named workloads at 1/200 load.
func tinyRun(t *testing.T, seed int64, names ...string) *results {
	t.Helper()
	res, err := run(config{workloads: names, seed: seed, div: 200, trials: 2, trace: 0, outDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.failedChecks() {
		t.Errorf("check failed: %s: %s", c.Name, c.Detail)
	}
	return res
}

var virtualMetrics = []string{
	"goodput_virtual_MBps", "latency_virtual_p50_us", "latency_virtual_p99_us",
	"flow_fairness_jain", "copied_bytes_per_byte", "delivery_failure_ratio",
}

func TestVirtualMetricsRepeatBitForBit(t *testing.T) {
	names := []string{"bulk_stream", "mice_stream", "mice_stream_observed", "mice_pingpong", "bcast_fanout8", "prod_lossy_mix"}
	a, b := tinyRun(t, 3, names...), tinyRun(t, 3, names...)
	for _, name := range names {
		for _, m := range virtualMetrics {
			va, vb := a.Workloads[name].EndToEnd[m].Value, b.Workloads[name].EndToEnd[m].Value
			if math.Float64bits(va) != math.Float64bits(vb) {
				t.Errorf("%s %s: %v then %v for the same seed", name, m, va, vb)
			}
		}
		if got := a.Workloads[name].EndToEnd["delivery_failure_ratio"].Value; got != 0 {
			t.Errorf("%s: delivery_failure_ratio %v, want 0", name, got)
		}
	}
	// A single flow is perfectly fair to itself.
	if got := a.Workloads["bulk_stream"].EndToEnd["flow_fairness_jain"].Value; got != 1 {
		t.Errorf("bulk_stream: Jain index %v on one flow, want 1", got)
	}
	// At 1/200 both mice streams send the same 1000 messages, so arming
	// the registry and the tracer must not move the virtual clock.
	plain, observed := a.Workloads["mice_stream"].EndToEnd, a.Workloads["mice_stream_observed"].EndToEnd
	for _, m := range virtualMetrics {
		if plain[m].Value != observed[m].Value {
			t.Errorf("%s: %v with observability disarmed, %v armed", m, plain[m].Value, observed[m].Value)
		}
	}
	// Another seed moves the virtual clock: that is what the size jitter is
	// for.
	c := tinyRun(t, 4, "bulk_stream")
	if c.Workloads["bulk_stream"].EndToEnd["latency_virtual_p50_us"].Value == a.Workloads["bulk_stream"].EndToEnd["latency_virtual_p50_us"].Value {
		t.Error("bulk_stream: seeds 3 and 4 gave the same virtual median latency")
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(xs, n=4) of the same lists.
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{4, 1, 3, 2}, 1.25, 2.5, 3.75},
		{[]float64{10, 20}, 7.5, 15, 22.5},
		{[]float64{5}, 5, 5, 5},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // unsorted on purpose
	}
	v, beyond := percentile(xs, 0.99)
	if v != 990 || beyond != 10 || !supported(beyond) {
		t.Errorf("p99 of 1..1000 = %v with %d beyond (supported %v), want 990 with 10", v, beyond, supported(beyond))
	}
	if _, beyond := percentile(xs[:999], 0.99); supported(beyond) {
		t.Errorf("p99 of 999 samples has %d beyond and was reported as supported", beyond)
	}
	if v, _ := percentile(xs, 0.5); v != 500 {
		t.Errorf("p50 of 1..1000 = %v, want 500", v)
	}
	if j := flow.Jain([]float64{2, 2, 2, 2}); j != 1 {
		t.Errorf("Jain of equal shares = %v, want 1", j)
	}
	if j := flow.Jain([]float64{1, 0, 0, 0}); j != 0.25 {
		t.Errorf("Jain of one of four = %v, want 0.25", j)
	}
}

func TestJudge(t *testing.T) {
	host := func(v, q1, q3 float64) value { return value{Value: v, Q1: &q1, Q3: &q3} }
	rate := e2eMetric{name: "host_msgs_per_s", better: higher, bound: 0.10}
	exactLower := e2eMetric{name: "latency_virtual_p50_us", better: lower}
	for _, c := range []struct {
		m    e2eMetric
		a, b value
		want string
	}{
		{rate, host(100, 99, 101), host(95, 94, 96), unchanged},
		{rate, host(100, 99, 101), host(85, 84, 86), regressed},
		{rate, host(100, 99, 101), host(120, 119, 121), improved},
		{rate, host(100, 90, 105), host(80, 79, 81), unresolved},
		{exactLower, value{Value: 10}, value{Value: 10}, unchanged},
		{exactLower, value{Value: 10}, value{Value: 10.0001}, regressed},
		{exactLower, value{Value: 10}, value{Value: 9.9999}, improved},
		{e2eMetric{name: "copied_bytes_per_byte", better: lower}, value{Value: 0}, value{Value: 0.5}, regressed},
	} {
		if got, _ := judge(c.m, c.a, c.b); got != c.want {
			t.Errorf("judge(%s, %v -> %v) = %s, want %s", c.m.name, c.a.Value, c.b.Value, got, c.want)
		}
	}
}

func TestParseVirtualUS(t *testing.T) {
	for in, want := range map[string]float64{"40µs": 40, "1.536ms": 1536, "999ns": 0.999, "2s": 2e6} {
		if got, ok := parseVirtualUS(in); !ok || math.Abs(got-want) > 1e-9 {
			t.Errorf("parseVirtualUS(%q) = %v %v, want %v", in, got, ok, want)
		}
	}
	if _, ok := parseVirtualUS("forty"); ok {
		t.Error(`parseVirtualUS("forty") succeeded`)
	}
}

// benchmarkJSON is BENCHMARK.json as its reader sees it.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

func TestBenchmarkJSONMatchesRegistry(t *testing.T) {
	doc := readBenchmarkJSON(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is outside [A-Za-z0-9_.-]{1,64}", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(doc.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	if n := len(doc.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(doc.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds %d, want 1 to 60", doc.RunSeconds)
	}
	if !reflect.DeepEqual(doc.Paths, []string{"benchmark"}) || !reflect.DeepEqual(doc.Command, []string{"bash", "benchmark/run.sh"}) {
		t.Errorf("command %v over paths %v, want bash benchmark/run.sh over benchmark", doc.Command, doc.Paths)
	}

	if len(doc.Workloads) != len(workloadTable) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(doc.Workloads), len(workloadTable))
	}
	for i, w := range doc.Workloads {
		name(w.Name)
		if w.Name != workloadTable[i].name || w.Why != workloadTable[i].why {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q in the program, or their reasons differ", i, w.Name, workloadTable[i].name)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters, want at most 200", w.Name, len(w.Why))
		}
	}

	var bounded []e2eMetric
	for _, m := range e2eMetrics {
		if m.driverBound > 0 {
			bounded = append(bounded, m)
		}
	}
	if len(doc.EndToEnd) != len(bounded) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d bounded ones in the program", len(doc.EndToEnd), len(bounded))
	}
	setup := false
	for i, m := range doc.EndToEnd {
		name(m.Name)
		want := bounded[i]
		if m.Name != want.name || m.Unit != want.unit || m.Better != want.better || m.Bound != want.driverBound {
			t.Errorf("end-to-end metric %d: %+v in BENCHMARK.json, %+v in the program", i, m, want)
		}
		if m.Bound <= 0 || m.Bound > 0.25 || !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: bound %v or unit %q out of range", m.Name, m.Bound, m.Unit)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == lower)
	}
	if !setup {
		t.Error("setup_s (s, lower) is not among the end-to-end metrics")
	}

	if len(doc.PerLayer) != len(layerMetrics) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the program", len(doc.PerLayer), len(layerMetrics))
	}
	for i, m := range doc.PerLayer {
		name(m.Name)
		want := layerMetrics[i]
		if m.Name != want.name || m.Unit != want.unit || m.Better != want.better || !unitRE.MatchString(m.Unit) {
			t.Errorf("per-layer metric %d: %+v in BENCHMARK.json, %+v in the program", i, m, want)
		}
	}
}

// TestEveryNameIsEmitted runs both passes of one workload, layer
// microbenchmarks included, and compares what the program hands
// BENCHMARK.json's reader with what BENCHMARK.json lists.
func TestEveryNameIsEmitted(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the layer microbenchmarks, which take several seconds")
	}
	doc := readBenchmarkJSON(t)
	dir := t.TempDir()
	res, err := run(config{workloads: []string{"mice_pingpong"}, seed: 1, div: 200, trials: 2, trace: -1, layers: true, outDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.failedChecks() {
		t.Errorf("check failed: %s: %s", c.Name, c.Detail)
	}
	compare := func(kind string, got map[string]value, want []string) {
		wanted := map[string]bool{}
		for _, n := range want {
			wanted[n] = true
			v, ok := got[n]
			if !ok {
				t.Errorf("%s metric %s is in BENCHMARK.json and not emitted", kind, n)
			} else if v.Unit != unitOf(n) || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				t.Errorf("%s metric %s emitted as %v %q", kind, n, v.Value, v.Unit)
			}
		}
		for n := range got {
			if !wanted[n] {
				t.Errorf("%s metric %s is emitted and not in BENCHMARK.json", kind, n)
			}
		}
	}
	var e2e, layer []string
	for _, m := range doc.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range doc.PerLayer {
		layer = append(layer, m.Name)
	}
	compare("end-to-end", driverMetrics(res, "mice_pingpong", 0), e2e)
	compare("per-layer", driverMetrics(res, "mice_pingpong", 1), layer)
	for _, m := range e2eMetrics {
		if _, ok := res.Workloads["mice_pingpong"].EndToEnd[m.name]; !ok {
			t.Errorf("ledger metric %s is not emitted", m.name)
		}
	}
	for _, suffix := range []string{".harness.trace.json", ".system.trace.json", ".flight.json"} {
		data, err := os.ReadFile(filepath.Join(dir, "mice_pingpong"+suffix))
		if err != nil {
			t.Error(err)
		} else if !json.Valid(data) {
			t.Errorf("mice_pingpong%s is not valid JSON", suffix)
		}
	}
}
