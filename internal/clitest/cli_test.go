// Package clitest builds the four command-line tools and exercises them
// end-to-end — the binaries are deliverables, so they get the same
// regression coverage as the library.
package clitest_test

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildAll compiles every cmd into a temp dir once per test run.
var binDir string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "madgo-cli")
	if err != nil {
		panic(err)
	}
	binDir = dir
	cmd := exec.Command("go", "build", "-o", dir+string(os.PathSeparator), "./cmd/...")
	cmd.Dir = repoRoot()
	if out, err := cmd.CombinedOutput(); err != nil {
		panic("building cmds: " + err.Error() + "\n" + string(out))
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func repoRoot() string {
	wd, err := os.Getwd()
	if err != nil {
		panic(err)
	}
	// internal/clitest -> repo root.
	return filepath.Dir(filepath.Dir(wd))
}

// run executes a built tool and returns its combined output.
func run(t *testing.T, tool string, args ...string) string {
	t.Helper()
	cmd := exec.Command(filepath.Join(binDir, tool), args...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", tool, args, err, out)
	}
	return string(out)
}

func TestMadbenchList(t *testing.T) {
	out := run(t, "madbench", "-list")
	for _, id := range []string{"t1", "fig6", "fig7", "headline", "a7"} {
		if !strings.Contains(out, id) {
			t.Errorf("list missing %s:\n%s", id, out)
		}
	}
}

func TestMadbenchQuickTable(t *testing.T) {
	out := run(t, "madbench", "-quick", "t2")
	if !strings.Contains(out, "pipeline period") || !strings.Contains(out, "40µs") {
		t.Errorf("t2 output:\n%s", out)
	}
}

func TestMadbenchCSV(t *testing.T) {
	out := run(t, "madbench", "-quick", "-csv", "fig7")
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) < 3 || !strings.HasPrefix(lines[0], "message,") {
		t.Errorf("csv output:\n%s", out)
	}
}

func TestMadbenchPlot(t *testing.T) {
	out := run(t, "madbench", "-quick", "-plot", "t1")
	if !strings.Contains(out, "log scale") || !strings.Contains(out, "legend:") {
		t.Errorf("plot output:\n%s", out)
	}
}

func TestMadbenchUnknownExperiment(t *testing.T) {
	cmd := exec.Command(filepath.Join(binDir, "madbench"), "frobnicate")
	if out, err := cmd.CombinedOutput(); err == nil {
		t.Fatalf("unknown experiment accepted:\n%s", out)
	}
}

func TestMadpingDefaults(t *testing.T) {
	out := run(t, "madping", "-sizes", "4096,65536")
	if !strings.Contains(out, "a1 -> b1") || !strings.Contains(out, "gateway gw relayed") {
		t.Errorf("madping output:\n%s", out)
	}
	if !strings.Contains(out, "65536") {
		t.Errorf("missing size row:\n%s", out)
	}
}

func TestMadtraceBothDirections(t *testing.T) {
	s2m := run(t, "madtrace", "-bytes", "131072")
	if !strings.Contains(s2m, "gw:recv:sci0") || !strings.Contains(s2m, "gw:send:myri0") {
		t.Errorf("s2m timeline:\n%s", s2m)
	}
	m2s := run(t, "madtrace", "-dir", "m2s", "-bytes", "131072", "-spans")
	if !strings.Contains(m2s, "gw:send:sci0") || !strings.Contains(m2s, "swap") {
		t.Errorf("m2s timeline:\n%s", m2s)
	}
}

func TestMadtopoBuiltinAndStdin(t *testing.T) {
	out := run(t, "madtopo", "-builtin")
	for _, want := range []string{"networks:", "gw", "[gateway]", "routes:"} {
		if !strings.Contains(out, want) {
			t.Errorf("madtopo output missing %q:\n%s", want, out)
		}
	}
	cmd := exec.Command(filepath.Join(binDir, "madtopo"), "-")
	cmd.Stdin = strings.NewReader("network n sci\nnode a n\nnode b n\n")
	stdinOut, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("stdin mode: %v\n%s", err, stdinOut)
	}
	if !strings.Contains(string(stdinOut), "a -[n]-> b") {
		t.Errorf("stdin route missing:\n%s", stdinOut)
	}
}

func TestMadtopoRejectsBadConfig(t *testing.T) {
	cmd := exec.Command(filepath.Join(binDir, "madtopo"), "-")
	cmd.Stdin = strings.NewReader("garbage\n")
	if out, err := cmd.CombinedOutput(); err == nil {
		t.Fatalf("bad config accepted:\n%s", out)
	}
}

func TestMadpingCustomConfig(t *testing.T) {
	cfg := filepath.Join(t.TempDir(), "chain.topo")
	text := "network n1 sci\nnetwork n2 myrinet\nnode x n1\nnode g n1 n2\nnode y n2\n"
	if err := os.WriteFile(cfg, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	out := run(t, "madping", "-config", cfg, "-from", "x", "-to", "y", "-sizes", "32768")
	if !strings.Contains(out, "x -> y") || !strings.Contains(out, "gateway g relayed") {
		t.Errorf("madping custom config output:\n%s", out)
	}
}

func TestMadpingRejectsBadSizes(t *testing.T) {
	cmd := exec.Command(filepath.Join(binDir, "madping"), "-sizes", "zero")
	if out, err := cmd.CombinedOutput(); err == nil {
		t.Fatalf("bad sizes accepted:\n%s", out)
	}
}

func TestMadtraceJSON(t *testing.T) {
	out := run(t, "madtrace", "-bytes", "131072", "-json")
	var doc struct {
		Src      string `json:"src"`
		Dst      string `json:"dst"`
		OneWayNS int64  `json:"one_way_ns"`
		Messages []struct {
			ID   uint64 `json:"id"`
			Hops []struct {
				Op string `json:"op"`
			} `json:"hops"`
		} `json:"messages"`
	}
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatalf("-json output is not JSON: %v\n%s", err, out)
	}
	if doc.Src != "a1" || doc.Dst != "b1" || doc.OneWayNS <= 0 {
		t.Errorf("summary = %+v", doc)
	}
	if len(doc.Messages) != 1 || len(doc.Messages[0].Hops) == 0 {
		t.Errorf("messages = %+v, want one with hops", doc.Messages)
	}
}

func TestMadtraceChromeExport(t *testing.T) {
	file := filepath.Join(t.TempDir(), "trace.json")
	run(t, "madtrace", "-bytes", "131072", "-chrome", file)
	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("chrome file is not JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("chrome file has no events")
	}
}

func TestMadstatSnapshotLanesAndTrace(t *testing.T) {
	out := run(t, "madstat", "-bytes", "65536", "-lanes", "-trace", "all")
	for _, want := range []string{
		"# madgo metrics snapshot",
		"madgo_gateway_swap_seconds",
		`quantile="0.99"`,
		"pipeline lanes over",
		"gw:recv:sci0",
		"message 1",
		"deliver",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("madstat output missing %q:\n%s", want, out)
		}
	}
}

func TestMadstatLossyRun(t *testing.T) {
	out := run(t, "madstat", "-bytes", "65536", "-loss", "0.1", "-seed", "7", "-noprom", "-trace", "all")
	if !strings.Contains(out, "rexmit") && !strings.Contains(out, "resend") {
		t.Errorf("lossy madstat trace shows no recovery:\n%s", out)
	}
	if !strings.Contains(out, "e2e") {
		t.Errorf("lossy madstat trace has no end-to-end ack:\n%s", out)
	}
}

func TestMadstatChromeExport(t *testing.T) {
	file := filepath.Join(t.TempDir(), "run.json")
	run(t, "madstat", "-bytes", "65536", "-noprom", "-chrome", file)
	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid(data) {
		t.Fatal("madstat -chrome wrote invalid JSON")
	}
}

func TestMadloadIncastBaselineVsFlow(t *testing.T) {
	args := []string{"-senders", "8", "-elephants", "2", "-count", "4"}
	// The gateway relays in DRR order with and without credits.
	base := run(t, "madload", args...)
	for _, want := range []string{"madload: incast, 8 senders", "Jain fairness", "aggregate", "flow: 0 accounts"} {
		if !strings.Contains(base, want) {
			t.Errorf("baseline output missing %q:\n%s", want, base)
		}
	}
	fair := run(t, "madload", append(args, "-flow")...)
	if !strings.Contains(fair, "flow control true") || !strings.Contains(fair, "8 accounts") {
		t.Errorf("flow run shows no credit accounts:\n%s", fair)
	}
	for name, out := range map[string]string{"baseline": base, "flow": fair} {
		if strings.Contains(out, " 0 sched rounds") {
			t.Errorf("%s run served no scheduler rounds:\n%s", name, out)
		}
	}
}

func TestMadloadPatternsAndJSON(t *testing.T) {
	for _, pattern := range []string{"alltoall", "hotspot"} {
		out := run(t, "madload", "-pattern", pattern, "-senders", "6", "-count", "2")
		if !strings.Contains(out, "madload: "+pattern) {
			t.Errorf("%s output:\n%s", pattern, out)
		}
	}
	raw := run(t, "madload", "-senders", "4", "-count", "2", "-window", "4", "-json")
	var doc struct {
		Pattern     string `json:"pattern"`
		FlowControl bool   `json:"flow_control"`
		Senders     []struct {
			Name  string `json:"name"`
			Bytes int64  `json:"bytes"`
		} `json:"senders"`
		Jain float64 `json:"jain"`
		Flow struct {
			CreditsGranted int64 `json:"CreditsGranted"`
			CreditsSpent   int64 `json:"CreditsSpent"`
		} `json:"flow"`
	}
	if err := json.Unmarshal([]byte(raw), &doc); err != nil {
		t.Fatalf("madload -json is not JSON: %v\n%s", err, raw)
	}
	if doc.Pattern != "incast" || !doc.FlowControl || len(doc.Senders) != 4 {
		t.Errorf("json doc: %+v", doc)
	}
	if doc.Jain <= 0 || doc.Jain > 1 {
		t.Errorf("jain %v out of range", doc.Jain)
	}
	if doc.Flow.CreditsGranted == 0 || doc.Flow.CreditsGranted != doc.Flow.CreditsSpent {
		t.Errorf("credit ledger in JSON: %+v", doc.Flow)
	}
}

func TestMadloadSmallMessageMode(t *testing.T) {
	args := []string{"-small", "24", "-bytes", "512", "-senders", "4"}
	seed := run(t, "madload", args...)
	if !strings.Contains(seed, "mice: 96 msgs,") || !strings.Contains(seed, "latency p50") {
		t.Errorf("-small output missing mice line:\n%s", seed)
	}
	if strings.Contains(seed, "agg:") {
		t.Errorf("seed run reports aggregation stats:\n%s", seed)
	}
	raw := run(t, "madload", append(args, "-agg", "-json")...)
	var doc struct {
		Mice *struct {
			Msgs       int     `json:"messages"`
			MsgsPerSec float64 `json:"msgs_per_sec"`
			P50        float64 `json:"latency_p50_seconds"`
			P99        float64 `json:"latency_p99_seconds"`
		} `json:"mice"`
		Agg *struct {
			SubMessages int64 `json:"SubMessages"`
			Frames      int64 `json:"Frames"`
		} `json:"agg"`
	}
	if err := json.Unmarshal([]byte(raw), &doc); err != nil {
		t.Fatalf("madload -small -json: %v\n%s", err, raw)
	}
	if doc.Mice == nil || doc.Mice.Msgs != 96 || doc.Mice.MsgsPerSec <= 0 {
		t.Fatalf("mice doc: %+v", doc.Mice)
	}
	if doc.Mice.P50 <= 0 || doc.Mice.P99 < doc.Mice.P50 {
		t.Errorf("latency quantiles: %+v", doc.Mice)
	}
	if doc.Agg == nil || doc.Agg.SubMessages != 96 || doc.Agg.Frames == 0 ||
		doc.Agg.Frames >= doc.Agg.SubMessages {
		t.Errorf("agg doc: %+v", doc.Agg)
	}
}

func TestMadstatFlowPanel(t *testing.T) {
	out := run(t, "madstat", "-flow", "-noprom", "-count", "3", "-bytes", "65536")
	for _, want := range []string{"flow control:", "credit accounts", "gw <- a1", "sched rounds"} {
		if !strings.Contains(out, want) {
			t.Errorf("madstat -flow output missing %q:\n%s", want, out)
		}
	}
	raw := run(t, "madstat", "-flow", "-json", "-count", "2", "-bytes", "65536")
	var doc struct {
		Stats struct {
			Flow struct {
				CreditsGranted int64 `json:"CreditsGranted"`
				CreditsSpent   int64 `json:"CreditsSpent"`
			} `json:"flow"`
		} `json:"stats"`
		Accounts []struct {
			Gateway string `json:"Gateway"`
			Sender  string `json:"Sender"`
		} `json:"flow_accounts"`
	}
	if err := json.Unmarshal([]byte(raw), &doc); err != nil {
		t.Fatalf("madstat -flow -json: %v", err)
	}
	if doc.Stats.Flow.CreditsGranted == 0 || doc.Stats.Flow.CreditsGranted != doc.Stats.Flow.CreditsSpent {
		t.Errorf("flow doc: %+v", doc.Stats.Flow)
	}
	if len(doc.Accounts) == 0 || doc.Accounts[0].Gateway != "gw" {
		t.Errorf("accounts doc: %+v", doc.Accounts)
	}
}

// Reliable delivery always runs the failure detector, so the flag that selects
// it is the one that brings the health output, and -health, which only armed
// the detector, is no flag any more.
func TestReliableFlagBringsHealthOutput(t *testing.T) {
	if out := run(t, "madping", "-reliable", "-sizes", "65536"); !strings.Contains(out, "health: epoch 1,") {
		t.Errorf("madping -reliable prints no health line:\n%s", out)
	}
	out := run(t, "madstat", "-reliable", "-noprom", "-bytes", "65536")
	for _, want := range []string{"link health: epoch 1,", "a1->gw", "sched rounds"} {
		if !strings.Contains(out, want) {
			t.Errorf("madstat -reliable output missing %q:\n%s", want, out)
		}
	}
	if out := run(t, "madping", "-sizes", "65536"); strings.Contains(out, "health:") {
		t.Errorf("streaming madping prints a health line:\n%s", out)
	}
	for _, tool := range []string{"madping", "madstat"} {
		if out, err := exec.Command(filepath.Join(binDir, tool), "-health").CombinedOutput(); err == nil {
			t.Errorf("%s still accepts -health:\n%s", tool, out)
		}
	}
}

// TestSharedFaultFlags holds the flags madping, madstat and madtrace take
// from one helper (cmd/internal/cli) to one meaning in all three: -loss with
// a -seed is a reproducible lossy run that shows its recovery work, -crash
// exists where the tool can crash the gateway and nowhere else, and a bad
// probability or a missing -config file is a one-line error and exit 1.
func TestSharedFaultFlags(t *testing.T) {
	for _, c := range []struct {
		tool string
		args []string
		want string
	}{
		{"madping", []string{"-sizes", "262144", "-loss", "0.05", "-seed", "42"}, "recovery: 1 retransmits"},
		{"madstat", []string{"-noprom", "-trace", "all", "-loss", "0.05", "-seed", "42"}, "rexmit"},
		{"madtrace", []string{"-loss", "0.05", "-seed", "42"}, "recovery: 1 retransmits"},
		{"madtrace", []string{"-crash", "1ms"}, "failovers"},
	} {
		out := run(t, c.tool, c.args...)
		if !strings.Contains(out, c.want) {
			t.Errorf("%s %v: output missing %q:\n%s", c.tool, c.args, c.want, out)
		}
		if again := run(t, c.tool, c.args...); again != out {
			t.Errorf("%s %v: two runs with one seed differ", c.tool, c.args)
		}
	}
	for _, c := range []struct {
		tool string
		args []string
		want string
	}{
		{"madping", []string{"-crash", "1ms"}, "flag provided but not defined: -crash"},
		{"madtrace", []string{"-config", "x.topo"}, "flag provided but not defined: -config"},
		{"madping", []string{"-loss", "2"}, "madping: fault: rule 0: probability 2 out of [0,1]"},
		{"madstat", []string{"-corrupt", "7"}, "madstat: fault: rule 0: probability 7 out of [0,1]"},
		{"madstat", []string{"-config", "no-such.topo"}, "madstat: open no-such.topo"},
	} {
		failsWith(t, c.tool, c.args, c.want)
	}
}

// failsWith runs a tool that must exit non-zero with want in its output. A
// Go panic exits non-zero too, so the output must not hold one.
func failsWith(t *testing.T, tool string, args []string, want string) {
	t.Helper()
	out, err := exec.Command(filepath.Join(binDir, tool), args...).CombinedOutput()
	if err == nil || !strings.Contains(string(out), want) || strings.Contains(string(out), "panic:") {
		t.Errorf("%s %v: err %v, output missing %q or holding a panic:\n%s", tool, args, err, want, out)
	}
}

// The node names madping, madstat and madtrace stream between are checked
// before the run (cmd/internal/cli.Stream): an unknown node, or a node
// streaming to itself, is a one-line error naming the node, not a panic.
func TestStreamRejectsBadNodeNames(t *testing.T) {
	failsWith(t, "madping", []string{"-from", "nosuch"}, `madping: unknown node "nosuch"`)
	failsWith(t, "madping", []string{"-from", "a1", "-to", "a1"}, `madping: node "a1" cannot stream to itself`)
	failsWith(t, "madstat", []string{"-to", "nosuch"}, `madstat: unknown node "nosuch"`)
}
