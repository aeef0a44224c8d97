package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"madgo/internal/flow"
)

// environment is what a result is only comparable under.
type environment struct {
	NProc       int    `json:"nproc"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	GoVersion   string `json:"go_version"`
	Commit      string `json:"commit"`
	Seed        int64  `json:"seed"`
	LoadDivisor int    `json:"load_divisor"`
}

// check is one self-check of a run; the program exits non-zero when any
// failed.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

type workloadResult struct {
	Why       string           `json:"why"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Trials    int              `json:"trials"`
	Errors    []string         `json:"errors,omitempty"`
	EndToEnd  map[string]value `json:"end_to_end"`
	PerLayer  map[string]value `json:"per_layer,omitempty"`
	// RunWallS is the wall time of System.Run of every timed trial, in run
	// order: the place to look for drift when a median moves.
	RunWallS []float64 `json:"run_wall_s,omitempty"`
}

// results is the document written to results.json and read by -compare.
type results struct {
	Env       environment                `json:"env"`
	Workloads map[string]*workloadResult `json:"workloads"`
	Layers    map[string]value           `json:"layers,omitempty"`
	Checks    []check                    `json:"checks"`
}

func (r *results) check(name string, ok bool, format string, args ...any) {
	r.Checks = append(r.Checks, check{name, ok, fmt.Sprintf(format, args...)})
}

func (r *results) failedChecks() []check {
	var bad []check
	for _, c := range r.Checks {
		if !c.OK {
			bad = append(bad, c)
		}
	}
	return bad
}

// runState is one workload while the benchmark runs.
type runState struct {
	info    workloadInfo
	w       *workload
	res     *workloadResult
	timed   []*trial
	variant []int // variant index of each timed trial
	spent   time.Duration
}

// account adds a finished run to the workload's delivery count.
func (s *runState) account(t *trial) {
	s.res.Attempted += t.attempted
	s.res.Failed += t.attempted - t.delivered
	if t.runErr != nil {
		s.res.Errors = append(s.res.Errors, t.runErr.Error())
	}
}

// virtualKey is what must repeat exactly when a variant is run again.
type virtualKey struct {
	last, payload, copied int64
	delivered             int
	latSum                float64
}

func keyOf(t *trial) virtualKey {
	k := virtualKey{last: int64(t.lastAt), payload: t.payload, copied: t.copied, delivered: t.delivered}
	for _, l := range t.latUS {
		k.latSum += l
	}
	return k
}

// summarize turns the timed trials into the end-to-end metrics. Virtual-time
// metrics are pooled over the first trial of every variant (there is one
// variant, except on the replicated workload); host metrics are medians over
// all timed trials.
func (s *runState) summarize(r *results) {
	var lat, pairs []float64
	var payload, copied int64
	var seconds float64
	first := map[int]virtualKey{}
	repeatable := true
	for i, t := range s.timed {
		vi := s.variant[i]
		if k, seen := first[vi]; seen {
			if k != keyOf(t) {
				repeatable = false
			}
			continue
		}
		first[vi] = keyOf(t)
		lat = append(lat, t.latUS...)
		pairs = append(pairs, t.flowMBps...)
		payload += t.payload
		copied += t.copied
		seconds += t.lastAt.Sub(0).Seconds()
	}
	r.check(s.w.name+": virtual clock repeats", repeatable,
		"every repeated trial of a variant reproduced its virtual end time, payload, copies and latencies exactly")

	e := s.res.EndToEnd
	p50, _ := percentile(lat, 0.50)
	p99, beyond := percentile(lat, 0.99)
	e["goodput_virtual_MBps"] = exact("goodput_virtual_MBps", ratio(float64(payload)/1e6, seconds))
	v50 := exact("latency_virtual_p50_us", p50)
	v50.N = len(lat)
	e["latency_virtual_p50_us"] = v50
	v99 := exact("latency_virtual_p99_us", p99)
	v99.N, v99.Beyond = len(lat), &beyond
	e["latency_virtual_p99_us"] = v99
	e["flow_fairness_jain"] = exact("flow_fairness_jain", flow.Jain(pairs))
	e["copied_bytes_per_byte"] = exact("copied_bytes_per_byte", ratio(float64(copied), float64(payload)))
	e["delivery_failure_ratio"] = exact("delivery_failure_ratio", ratio(float64(s.res.Failed), float64(s.res.Attempted)))

	var setup, rate, cpu, allocs, kb []float64
	for _, t := range s.timed {
		if t.delivered == 0 {
			continue
		}
		n := float64(t.delivered)
		setup = append(setup, t.setup.Seconds())
		rate = append(rate, n/t.wall.Seconds())
		cpu = append(cpu, float64(t.cpu.Microseconds())/n)
		allocs = append(allocs, float64(t.mallocs)/n)
		kb = append(kb, float64(t.allocBytes)/1024/n)
		s.res.RunWallS = append(s.res.RunWallS, t.wall.Seconds())
	}
	e["setup_s"] = overTrials("setup_s", setup)
	e["host_msgs_per_s"] = overTrials("host_msgs_per_s", rate)
	e["host_cpu_us_per_msg"] = overTrials("host_cpu_us_per_msg", cpu)
	e["host_allocs_per_msg"] = overTrials("host_allocs_per_msg", allocs)
	e["host_alloc_KB_per_msg"] = overTrials("host_alloc_KB_per_msg", kb)
	s.res.Trials = len(s.timed)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// formatValue renders one metric row: value, unit and, where they exist,
// the quartiles and counts that say how far to trust it.
func formatValue(name string, v value) string {
	var b strings.Builder
	fmt.Fprintf(&b, "  %-36s %14.6g %-6s", name, v.Value, v.Unit)
	if v.Q1 != nil && v.Q3 != nil {
		fmt.Fprintf(&b, " q1 %.6g q3 %.6g over %d trials", *v.Q1, *v.Q3, v.N)
	} else if v.N > 0 {
		fmt.Fprintf(&b, " n=%d", v.N)
	}
	if v.Beyond != nil {
		fmt.Fprintf(&b, " (%d beyond", *v.Beyond)
		if !supported(*v.Beyond) {
			fmt.Fprintf(&b, ": fewer than %d, not a supported tail", minBeyond)
		}
		b.WriteString(")")
	}
	if ref, ok := paperReference[name]; ok {
		fmt.Fprintf(&b, " reference %.4g, error %+.2f%%", ref, 100*(v.Value-ref)/ref)
	}
	return b.String()
}

func sortedKeys(m map[string]value) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// print writes the ledger: every metric by name with its unit.
func (r *results) print(w io.Writer) {
	fmt.Fprintf(w, "madgo benchmark: seed %d, load 1/%d, nproc %d, GOMAXPROCS %d, %s, commit %s\n",
		r.Env.Seed, r.Env.LoadDivisor, r.Env.NProc, r.Env.GOMAXPROCS, r.Env.GoVersion, r.Env.Commit)
	for _, info := range workloadTable {
		res := r.Workloads[info.name]
		if res == nil {
			continue
		}
		fmt.Fprintf(w, "\n%s: %d messages attempted, %d failed, %d timed trials\n", info.name, res.Attempted, res.Failed, res.Trials)
		for _, e := range res.Errors {
			fmt.Fprintf(w, "  error: %s\n", e)
		}
		for _, m := range e2eMetrics {
			if v, ok := res.EndToEnd[m.name]; ok {
				fmt.Fprintf(w, "%s [%s clock]\n", formatValue(m.name, v), m.clock)
			}
		}
		for _, k := range sortedKeys(res.PerLayer) {
			fmt.Fprintln(w, formatValue(k, res.PerLayer[k]))
		}
	}
	if len(r.Layers) > 0 {
		fmt.Fprintf(w, "\nlayer microbenchmarks (host clock unless named virtual)\n")
		for _, m := range layerMetrics {
			if v, ok := r.Layers[m.name]; ok {
				fmt.Fprintln(w, formatValue(m.name, v))
			}
		}
	}
	fmt.Fprintf(w, "\nchecks\n")
	for _, c := range r.Checks {
		status := "ok  "
		if !c.OK {
			status = "FAIL"
		}
		fmt.Fprintf(w, "  %s %s: %s\n", status, c.Name, c.Detail)
	}
}

func (r *results) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResults(path string) (*results, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r results
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}
