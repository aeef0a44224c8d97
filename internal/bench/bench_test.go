package bench

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"madgo/internal/fwd"
)

var quick = Options{Quick: true}

func TestRegistryComplete(t *testing.T) {
	want := []string{"b1", "t1", "fig6", "fig7", "t2", "t3", "fig5", "fig8", "headline", "a1", "a2", "a3", "a4", "a6", "a7", "a5", "o2", "c1", "o1", "p1", "r2", "r1", "m1", "s1"}
	ids := IDs()
	if len(ids) != len(want) {
		t.Fatalf("registry = %v", ids)
	}
	for i, id := range want {
		if ids[i] != id {
			t.Fatalf("registry[%d] = %s, want %s", i, ids[i], id)
		}
	}
	for _, id := range want {
		e, ok := Lookup(id)
		if !ok || e.ID != id || e.Title == "" || e.Description == "" || e.Run == nil {
			t.Errorf("experiment %s incomplete", id)
		}
	}
	if _, ok := Lookup("nope"); ok {
		t.Error("Lookup of unknown id succeeded")
	}
}

func TestEveryExperimentRunsQuick(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			r := e.Run(quick)
			if r == nil || r.ID != e.ID {
				t.Fatalf("result = %+v", r)
			}
			if len(r.Series) == 0 && len(r.Table) == 0 && len(r.Notes) == 0 {
				t.Fatal("empty result")
			}
			var buf bytes.Buffer
			WriteTable(&buf, r)
			if buf.Len() == 0 {
				t.Fatal("empty table rendering")
			}
		})
	}
}

func TestT1Shape(t *testing.T) {
	e, _ := Lookup("t1")
	r := e.Run(quick)
	// SCI beats Myrinet at small sizes, Myrinet wins at 1 MB, Ethernet
	// is far behind everywhere.
	if sci, myri := r.YAt("sci", 4096), r.YAt("myrinet", 4096); sci <= myri {
		t.Errorf("4KB: sci %.1f <= myrinet %.1f", sci, myri)
	}
	if sci, myri := r.YAt("sci", 1024*kb), r.YAt("myrinet", 1024*kb); myri <= sci {
		t.Errorf("1MB: myrinet %.1f <= sci %.1f", myri, sci)
	}
	if eth := r.YAt("ethernet", 1024*kb); eth > 12 {
		t.Errorf("ethernet = %.1f MB/s, should be Fast-Ethernet bound", eth)
	}
	// Crossover: both ≈40 MB/s at 16 KB.
	for _, net := range []string{"sci", "myrinet"} {
		if y := r.YAt(net, 16*kb); y < 36 || y > 46 {
			t.Errorf("%s @16KB = %.1f, want ≈40", net, y)
		}
	}
}

func TestFig6Fig7Shapes(t *testing.T) {
	f6 := mustRun(t, "fig6", quick)
	f7 := mustRun(t, "fig7", quick)
	const big = 1024 * kb

	// Larger packets win asymptotically in both directions.
	for _, r := range []*Result{f6, f7} {
		small := r.YAt("paquet=8KB", big)
		large := r.YAt("paquet=128KB", big)
		if !(large > small) {
			t.Errorf("%s: 128KB packets (%.1f) not faster than 8KB (%.1f) at %d", r.ID, large, small, big)
		}
	}
	// SCI→Myrinet beats Myrinet→SCI for every packet size at 1 MB — the
	// central asymmetry of the paper.
	for _, pkt := range []string{"paquet=8KB", "paquet=32KB", "paquet=128KB"} {
		y6, y7 := f6.YAt(pkt, big), f7.YAt(pkt, big)
		if !(y6 > y7) {
			t.Errorf("%s at 1MB: fig6 %.1f not > fig7 %.1f", pkt, y6, y7)
		}
	}
	// Band checks against the paper's reconstructed anchors (±20%).
	if y := f6.YAt("paquet=8KB", big); y < 28 || y > 42 {
		t.Errorf("fig6 8KB plateau = %.1f, want ≈34 (paper ≈35)", y)
	}
	if y := f7.YAt("paquet=8KB", big); y < 20 || y > 31 {
		t.Errorf("fig7 8KB plateau = %.1f, want ≈26 (paper ≈25)", y)
	}
	if y := f7.MaxY(""); y >= 35 {
		t.Errorf("fig7 max = %.1f, paper: never exceeds 35", y)
	}
}

func TestT2OverheadAccounting(t *testing.T) {
	r := mustRun(t, "t2", quick)
	// The derived per-switch overhead must sit at the modelled 40 µs.
	found := false
	for _, row := range r.Table {
		if row[0] == "period - max(step)" {
			found = true
			if !strings.HasPrefix(row[1], "40") && !strings.HasPrefix(row[1], "39") && !strings.HasPrefix(row[1], "41") {
				t.Errorf("derived overhead = %s, want ≈40µs", row[1])
			}
		}
	}
	if !found {
		t.Fatal("missing overhead row")
	}
}

func TestT3Stretch(t *testing.T) {
	r := mustRun(t, "t3", quick)
	for _, row := range r.Table {
		if row[0] == "stretch factor" {
			var f float64
			if _, err := sscanf(row[1], &f); err != nil {
				t.Fatalf("bad stretch %q", row[1])
			}
			if f < 1.3 || f > 2.1 {
				t.Errorf("stretch = %.2f, want within (1.3, 2.1) — the paper's factor-of-two PIO slowdown bounded by partial overlap", f)
			}
			return
		}
	}
	t.Fatal("missing stretch row")
}

// sscanf parses a leading float out of strings like "1.45×".
func sscanf(s string, f *float64) (int, error) {
	end := 0
	for end < len(s) && (s[end] == '.' || (s[end] >= '0' && s[end] <= '9')) {
		end++
	}
	var err error
	*f, err = parseFloat(s[:end])
	return 1, err
}

func parseFloat(s string) (float64, error) {
	var v float64
	var frac float64 = 0
	div := 1.0
	seenDot := false
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == '.' {
			seenDot = true
			continue
		}
		d := float64(c - '0')
		if seenDot {
			div *= 10
			frac += d / div
		} else {
			v = v*10 + d
		}
	}
	return v + frac, nil
}

func TestA1GTMBeatsBaselines(t *testing.T) {
	r := mustRun(t, "a1", quick)
	const big = 1024 * kb
	gtm := r.YAt("madeleine-gtm", big)
	app := r.YAt("app-level", big)
	pacx := r.YAt("pacx-tcp", big)
	if !(gtm > app && app > pacx) {
		t.Errorf("ordering broken: gtm %.1f, app %.1f, pacx %.1f", gtm, app, pacx)
	}
	if gtm < 1.3*app {
		t.Errorf("gtm %.1f not clearly ahead of store-and-forward %.1f", gtm, app)
	}
	if pacx > 12 {
		t.Errorf("pacx %.1f should be Ethernet-bound", pacx)
	}
}

func TestA3PipelineAblation(t *testing.T) {
	r := mustRun(t, "a3", quick)
	vals := map[string]float64{}
	for _, row := range r.Table {
		var f float64
		if _, err := sscanf(row[1], &f); err == nil {
			vals[row[0]] = f
		}
	}
	full := vals["full mechanism (2 buffers, zero-copy)"]
	single := vals["no pipelining (1 buffer)"]
	copyAlways := vals["copy-always gateway"]
	if !(full > single) {
		t.Errorf("pipelining does not help: full %.1f vs single %.1f", full, single)
	}
	if !(full > copyAlways) {
		t.Errorf("zero-copy does not help: full %.1f vs copy-always %.1f", full, copyAlways)
	}
}

func TestA5ZeroCopyElection(t *testing.T) {
	r := mustRun(t, "a5", quick)
	if len(r.Table) != 2 {
		t.Fatalf("table = %v", r.Table)
	}
	var zc, cp float64
	sscanf(r.Table[0][1], &zc)
	sscanf(r.Table[1][1], &cp)
	if !(zc > cp) {
		t.Errorf("election (%.1f) not faster than copy-always (%.1f)", zc, cp)
	}
	// A zero-copy gateway may still stage the GTM header (20 bytes), but
	// never payload.
	if r.Table[0][2] != "0" && r.Table[0][2] != "20" {
		t.Errorf("zero-copy gateway copied %s bytes", r.Table[0][2])
	}
}

func TestPingFaithfulMatchesActual(t *testing.T) {
	// The paper's rtt-minus-ack methodology must agree with the
	// simulator's ground truth within a few percent.
	tb := NewTestbed(fwd.DefaultConfig())
	res := tb.PingSeries("a1", "b1", []int{64 * kb, 512 * kb})
	for _, m := range res {
		diff := m.Faithful - m.Actual
		if diff < 0 {
			diff = -diff
		}
		if float64(diff) > 0.08*float64(m.Actual) {
			t.Errorf("%d bytes: faithful %v vs actual %v", m.Bytes, m.Faithful, m.Actual)
		}
	}
}

func TestGatewayZeroCopyOnLongStreams(t *testing.T) {
	// Regression: with the post-gated ingress the gateway must not copy
	// payload even when the sender could stream far ahead.
	tb := NewTestbed(fwd.DefaultConfig())
	tb.Stream("a1", "b1", 4096*kb, 1)
	gw := tb.Sess.NodeByName("gw").Host
	if gw.BytesCopied() > 64 {
		t.Errorf("gateway copied %d bytes on a dyn→dyn stream (want ≈header only)", gw.BytesCopied())
	}
}

func TestWritersRender(t *testing.T) {
	r := &Result{
		ID: "x", Title: "demo", XLabel: "message", YLabel: "MB/s",
		Series: []Series{
			{Name: "s1", Points: []Point{{X: 1024, Y: 1}, {X: 2048, Y: 2}}},
			{Name: "s2", Points: []Point{{X: 1024, Y: 3}}},
		},
		Notes: []string{"hello"},
	}
	var tbl, csv bytes.Buffer
	WriteTable(&tbl, r)
	if !strings.Contains(tbl.String(), "s1") || !strings.Contains(tbl.String(), "1KB") || !strings.Contains(tbl.String(), "hello") {
		t.Fatalf("table:\n%s", tbl.String())
	}
	WriteCSV(&csv, r)
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if len(lines) != 3 || lines[0] != "message,s1,s2" {
		t.Fatalf("csv:\n%s", csv.String())
	}
	// Table-only results render too.
	var buf bytes.Buffer
	WriteTable(&buf, &Result{ID: "y", Title: "t", Header: []string{"k", "v"}, Table: [][]string{{"a", "1"}}})
	if !strings.Contains(buf.String(), "a") {
		t.Fatal("raw table missing rows")
	}
	var csvEmpty bytes.Buffer
	WriteCSV(&csvEmpty, &Result{ID: "y"})
	if !strings.Contains(csvEmpty.String(), "no series") {
		t.Fatal("csv of table result should note absence of series")
	}
}

func TestDeterministicResults(t *testing.T) {
	run := func() string {
		var buf bytes.Buffer
		e, _ := Lookup("fig6")
		WriteTable(&buf, e.Run(quick))
		return buf.String()
	}
	a := run()
	if b := run(); a != b {
		t.Fatalf("fig6 not deterministic:\n%s\nvs\n%s", a, b)
	}
}

func TestRawPairBandwidthPositive(t *testing.T) {
	for _, proto := range []string{"sci", "myrinet", "ethernet", "sbp"} {
		rp := NewRawPair(proto)
		times := rp.OneWaySeries([]int{64 * kb})
		if times[0] <= 0 {
			t.Errorf("%s: nonpositive one-way time", proto)
		}
	}
}

func TestTimelineExperimentsContainLanes(t *testing.T) {
	for _, id := range []string{"fig5", "fig8"} {
		r := mustRun(t, id, quick)
		joined := strings.Join(r.Notes, "\n")
		if !strings.Contains(joined, "recv") || !strings.Contains(joined, "send") {
			t.Errorf("%s timeline missing lanes", id)
		}
	}
}

func mustRun(t *testing.T, id string, o Options) *Result {
	t.Helper()
	e, ok := Lookup(id)
	if !ok {
		t.Fatalf("no experiment %s", id)
	}
	return e.Run(o)
}

// TestReliableBenchFaultFree pins the satellite guarantee: a fault-free
// reliable run of the paper transfer performs zero recovery work, so the
// r1 zero-loss row doubles as a regression check on the protocol overhead.
func TestReliableBenchFaultFree(t *testing.T) {
	_, ds, acks := reliableStream("a1", "b1", 256*kb, nil)
	if ds != (fwd.DeliveryStats{}) {
		t.Errorf("fault-free reliable stream recovered: %+v", ds)
	}
	// Ack coalescing and piggybacking must keep control datagrams well
	// below one per acknowledged packet: every coalesced entry is an ack
	// that did not become its own datagram.
	if acks.Packets == 0 {
		t.Error("reliable stream sent no acknowledgement datagrams")
	}
	if acks.Coalesced == 0 {
		t.Errorf("no acks coalesced over a 256 KB stream: %+v", acks)
	}
	e, ok := Lookup("r1")
	if !ok {
		t.Fatal("r1 not registered")
	}
	r := e.Run(quick)
	if len(r.Table) == 0 || r.Table[0][2] != "0" {
		t.Errorf("r1 zero-loss row shows retransmits: %v", r.Table)
	}
	for _, note := range r.Notes {
		if strings.HasPrefix(note, "WARNING") {
			t.Errorf("r1 flagged recovery on a fault-free run: %s", note)
		}
	}
}

// TestS1StripeSpeedupGate is the CI gate for multi-rail striping: on the
// dual-rail topology (Myrinet/BIP + DMA-engine SCI) K=2 goodput must be at
// least 1.5x the K=1 baseline from the same deterministic run, at both 64
// and 128 KB. The BENCH_s1.json archive `make bench` produces comes from
// the identical sweep, so gating the test gates the archive.
func TestS1StripeSpeedupGate(t *testing.T) {
	r := mustRun(t, "s1", Options{}) // full sweep: the gated sizes are not in quick
	for _, n := range []float64{64 * kb, 128 * kb} {
		one, two := r.YAt("K=1", n), r.YAt("K=2", n)
		if one == 0 || two == 0 {
			t.Fatalf("s1 missing a goodput point at %.0f bytes (K=1 %.1f, K=2 %.1f)", n, one, two)
		}
		if ratio := two / one; ratio < 1.5 {
			t.Errorf("K=2 goodput %.1f MB/s is only %.2fx the K=1 baseline %.1f MB/s at %.0f KB, gate is 1.5x",
				two, ratio, one, n/kb)
		}
	}
	for _, note := range r.Notes {
		if strings.HasPrefix(note, "WARNING") {
			t.Errorf("s1 flagged: %s", note)
		}
	}
}

// TestO1SwapOverheadFromHistogram pins the observability reproduction of
// §3.4.1: the gateway swap histogram's quantiles must report the CPU
// model's per-switch overhead (40 µs) exactly — the histogram interpolation
// may not smear a constant series.
func TestO1SwapOverheadFromHistogram(t *testing.T) {
	r := mustRun(t, "o1", quick)
	vals := map[string]string{}
	for _, row := range r.Table {
		vals[row[0]] = row[1]
	}
	if vals["swap overhead p50"] != "40.0µs" {
		t.Errorf("p50 = %s, want 40.0µs", vals["swap overhead p50"])
	}
	if vals["swap overhead p99"] != "40.0µs" {
		t.Errorf("p99 = %s, want 40.0µs", vals["swap overhead p99"])
	}
	var n float64
	if _, err := sscanf(vals["buffer switches observed"], &n); err != nil || n == 0 {
		t.Errorf("observations = %q, want > 0", vals["buffer switches observed"])
	}
}

// TestWriteJSONRoundTrips checks the machine-readable bench output `make
// bench` archives.
func TestWriteJSONRoundTrips(t *testing.T) {
	r := mustRun(t, "o1", quick)
	var buf bytes.Buffer
	if err := WriteJSON(&buf, r); err != nil {
		t.Fatal(err)
	}
	var back Result
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("bench JSON does not round-trip: %v", err)
	}
	if back.ID != "o1" || len(back.Table) != len(r.Table) {
		t.Errorf("round-tripped result = %+v", back)
	}
}

// TestP1DepthSweep pins the pipeline-depth acceptance criteria: at 128 KB
// packets, goodput must be monotone non-decreasing in ring depth
// (depth 4 ≥ depth 2 ≥ depth 1) and the receive lane's stall fraction must
// shrink as the ring deepens.
func TestP1DepthSweep(t *testing.T) {
	r := mustRun(t, "p1", quick)
	if len(r.Series) != 4 {
		t.Fatalf("series = %d, want one per depth {1,2,4,8}", len(r.Series))
	}
	if len(r.Table) != 4 {
		t.Fatalf("table rows = %d, want one per depth", len(r.Table))
	}
	var goodput, stall []float64
	for _, row := range r.Table {
		var g, s float64
		if _, err := sscanf(row[1], &g); err != nil {
			t.Fatalf("bad goodput cell %q", row[1])
		}
		if _, err := sscanf(row[2], &s); err != nil {
			t.Fatalf("bad stall cell %q", row[2])
		}
		goodput = append(goodput, g)
		stall = append(stall, s)
	}
	for i := 1; i < len(goodput); i++ {
		if goodput[i] < goodput[i-1] {
			t.Errorf("goodput regressed with depth: %v", goodput)
		}
		// Non-increasing per step: short quick-mode messages can bottom
		// out before the deepest ring, but depth must never hurt.
		if stall[i] > stall[i-1] {
			t.Errorf("stall fraction grew with depth: %v", stall)
		}
	}
	if stall[0] <= stall[len(stall)-1] {
		t.Errorf("deepest ring should stall less than no pipelining: %v", stall)
	}
}
