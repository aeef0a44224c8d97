// Command benchmark is madgo's two-clock ledger: seven workloads driven
// through the public facade, measured end to end on the virtual clock (what
// the modelled 2001 hardware would take) and on the host clock (what the Go
// code costs here), then once more with tracing armed for the per-layer
// numbers, plus microbenchmarks of the layers' exported APIs. README.md in
// this directory is the guide; BENCHMARK.json at the repository root is the
// contract the names obey.
//
//	bash benchmark/run.sh                        # everything, about two minutes on a calm machine
//	bash benchmark/run.sh -quick                 # smoke run, seconds
//	bash benchmark/run.sh -workload mice_stream  # one workload
//	bash benchmark/run.sh -compare A.json B.json # two results.json files
//
// Given -workload, -seconds and -trace together (how BENCHMARK.json's
// command is run) the last line of standard output is one JSON object with
// the end-to-end metrics (-trace 0) or the per-layer metrics (-trace 1).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// config is the parsed command line.
type config struct {
	workloads []string
	seed      int64
	quick     bool
	div       int           // load divisor
	trials    int           // timed trials per workload when budget is 0
	budget    time.Duration // timed trials run until this much time was measured
	trace     int           // -1 both passes, 0 end-to-end only, 1 per-layer only
	layers    bool          // run the layer microbenchmarks
	outDir    string
	commit    string
	// gate, when set, is called before every timed trial and before the
	// trace pass and returns when it is this process's turn; see runWorkers.
	gate func()
}

func main() {
	var (
		workloadFlag = flag.String("workload", "", "run one workload (default: all seven)")
		seed         = flag.Int64("seed", 1, "seeds payloads, elephant placement, prod_lossy_mix sizes and fault seeds")
		seconds      = flag.Float64("seconds", 0, "measure each workload for this long instead of a fixed trial count")
		trials       = flag.Int("trials", 11, "timed trials per workload when -seconds is 0")
		trace        = flag.Int("trace", -1, "0: end-to-end metrics only, 1: per-layer metrics only (default: both)")
		quick        = flag.Bool("quick", false, "smoke run: 1/20 load, 3 trials, no layer microbenchmarks")
		layersOnly   = flag.Bool("layers", false, "run only the layer microbenchmarks")
		compare      = flag.Bool("compare", false, "compare two results.json files given as arguments")
		outDir       = flag.String("out", "benchmark/out", "directory for results.json and the trace files")
		commit       = flag.String("commit", "unknown", "commit id recorded in the results")
		worker       = flag.Bool("worker", false, "internal: run one workload step by step for the process that started this one")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare wants two results.json files, got %d arguments", flag.NArg()))
		}
		os.Exit(compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)))
	}
	cfg := config{
		seed: *seed, quick: *quick, div: 1, trials: *trials, budget: time.Duration(*seconds * float64(time.Second)),
		trace: *trace, layers: true, outDir: *outDir, commit: *commit,
		workloads: workloadNames(),
	}
	if *quick {
		cfg.div, cfg.trials, cfg.layers = 20, 3, false
	}
	if *workloadFlag != "" {
		if _, ok := lookupWorkload(*workloadFlag); !ok {
			fatal(fmt.Errorf("unknown workload %q (have %s)", *workloadFlag, strings.Join(workloadNames(), ", ")))
		}
		cfg.workloads = []string{*workloadFlag}
	}
	if *layersOnly {
		cfg.workloads, cfg.trace = nil, 1
	}
	if cfg.trace == 0 {
		cfg.layers = false
	}

	if *worker {
		// Standard output carries the turn-taking; the results go to a file.
		stdin := bufio.NewReader(os.Stdin)
		cfg.layers = false
		cfg.gate = func() {
			fmt.Println("ready")
			if _, err := stdin.ReadString('\n'); err != nil {
				os.Exit(2) // the starting process is gone
			}
		}
		res, err := run(cfg)
		if err != nil {
			fatal(err)
		}
		if err := res.write(workerFile(cfg.outDir, cfg.workloads[0])); err != nil {
			fatal(err)
		}
		return
	}

	var res *results
	var err error
	if len(cfg.workloads) > 1 {
		res, err = runWorkers(cfg)
	} else {
		res, err = run(cfg)
	}
	if err != nil {
		fatal(err)
	}
	res.print(os.Stdout)
	if err := res.write(filepath.Join(cfg.outDir, "results.json")); err != nil {
		fatal(err)
	}
	bad := res.failedChecks()
	if *workloadFlag != "" && cfg.trace >= 0 {
		printDriverLine(res, *workloadFlag, cfg.trace, len(bad) == 0)
	}
	if len(bad) > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: %d checks failed, first: %s: %s\n", len(bad), bad[0].Name, bad[0].Detail)
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

func newResults(cfg config) *results {
	return &results{
		Env: environment{
			NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
			Commit: cfg.commit, Seed: cfg.seed, LoadDivisor: cfg.div,
		},
		Workloads: map[string]*workloadResult{},
	}
}

// run executes the selected passes in this process and returns the ledger.
func run(cfg config) (*results, error) {
	res := newResults(cfg)
	var states []*runState
	for _, name := range cfg.workloads {
		info, _ := lookupWorkload(name)
		w, err := generate(name, cfg.seed, cfg.div)
		if err != nil {
			return nil, err
		}
		s := &runState{info: info, w: w, res: &workloadResult{Why: info.why, EndToEnd: map[string]value{}}}
		res.Workloads[name] = s.res
		states = append(states, s)
	}

	if cfg.trace != 1 {
		// Warm-up: one trial per workload that compares every payload byte,
		// fills the runtime's caches and is not timed.
		for _, s := range states {
			s.account(runTrial(s.w, s.w.variants[0], trialMode{fullVerify: true}))
		}
		// Timed trials, interleaved: trial k of every workload before trial
		// k+1 of any, so a noisy stretch on a shared machine costs each
		// workload one trial, not its median.
		for k := 0; ; k++ {
			ran := false
			for _, s := range states {
				need := cfg.trials
				if cfg.budget > 0 {
					need = 3
				}
				if n := len(s.w.variants); need < n {
					need = n
				}
				if k >= need && (cfg.budget == 0 || s.spent >= cfg.budget) {
					continue
				}
				if cfg.gate != nil {
					cfg.gate()
				}
				t0 := time.Now()
				vi := k % len(s.w.variants)
				t := runTrial(s.w, s.w.variants[vi], trialMode{})
				s.spent += time.Since(t0)
				s.account(t)
				s.timed, s.variant = append(s.timed, t), append(s.variant, vi)
				t.release()
				ran = true
			}
			if !ran {
				break
			}
		}
		for _, s := range states {
			s.summarize(res)
		}
	}

	if cfg.trace != 0 {
		for _, s := range states {
			if cfg.gate != nil {
				cfg.gate()
			}
			if err := s.tracePass(cfg, res); err != nil {
				return nil, err
			}
		}
		if cfg.layers {
			res.Layers = runLayerBenchmarks()
		}
	}

	for _, s := range states {
		res.check(s.w.name+": every message delivered", s.res.Failed == 0 && len(s.res.Errors) == 0,
			"%d of %d messages missing, out of order or not byte-exact; %d run errors", s.res.Failed, s.res.Attempted, len(s.res.Errors))
	}
	crossChecks(res, cfg)
	return res, nil
}

func workerFile(dir, name string) string { return filepath.Join(dir, name+".results.json") }

// runWorkers measures several workloads, each in a worker process of its
// own, one step of one worker at a time. The library never releases a
// finished System (its daemon goroutines stay parked for good, each pinning
// its flight rings and registry), so in one process every workload would be
// timed with the garbage of all the others on the heap: after ten rounds of
// seven workloads that is a gigabyte, and the GC-heavy workloads run up to
// twice as slow. A process per workload keeps a workload's numbers the same
// whether it runs alone or with the rest, and taking turns keeps the
// interleaving: trial k of every workload runs before trial k+1 of any.
func runWorkers(cfg config) (res *results, err error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	type child struct {
		name string
		cmd  *exec.Cmd
		in   io.WriteCloser
		out  *bufio.Reader
	}
	var started []*child
	defer func() {
		// Only reached with workers alive when something failed.
		for _, c := range started {
			c.in.Close()
			c.cmd.Process.Kill()
			c.cmd.Wait()
		}
	}()
	// next lets the worker take its next step and waits until it asks for
	// another turn (more) or has written its results and exited.
	next := func(c *child, first bool) (more bool, err error) {
		if !first {
			if _, err := io.WriteString(c.in, "go\n"); err != nil {
				return false, fmt.Errorf("worker %s: %w", c.name, err)
			}
		}
		if line, err := c.out.ReadString('\n'); err == nil && line == "ready\n" {
			return true, nil
		}
		c.in.Close()
		if err := c.cmd.Wait(); err != nil {
			return false, fmt.Errorf("worker %s: %w", c.name, err)
		}
		return false, nil
	}
	active := map[*child]bool{}
	for _, name := range cfg.workloads {
		args := []string{"-worker", "-workload", name, "-seed", strconv.FormatInt(cfg.seed, 10),
			"-trials", strconv.Itoa(cfg.trials), "-seconds", strconv.FormatFloat(cfg.budget.Seconds(), 'f', -1, 64),
			"-trace", strconv.Itoa(cfg.trace), "-out", cfg.outDir, "-commit", cfg.commit}
		if cfg.quick {
			args = append(args, "-quick")
		}
		c := &child{name: name, cmd: exec.Command(exe, args...)}
		c.cmd.Stderr = os.Stderr
		if c.in, err = c.cmd.StdinPipe(); err != nil {
			return nil, err
		}
		stdout, err := c.cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		c.out = bufio.NewReader(stdout)
		if err := c.cmd.Start(); err != nil {
			return nil, err
		}
		started = append(started, c)
		// The worker warms up before its first "ready": wait for it, so
		// that no two workers ever run at once.
		if active[c], err = next(c, true); err != nil {
			return nil, err
		}
	}
	for len(active) > 0 {
		for _, c := range started {
			if !active[c] {
				continue
			}
			more, err := next(c, false)
			if err != nil {
				return nil, err
			}
			if !more {
				delete(active, c)
			}
		}
	}
	started = nil

	res = newResults(cfg)
	for _, name := range cfg.workloads {
		part, err := readResults(workerFile(cfg.outDir, name))
		if err != nil {
			return nil, err
		}
		res.Workloads[name] = part.Workloads[name]
		res.Checks = append(res.Checks, part.Checks...)
	}
	if cfg.trace != 0 && cfg.layers {
		res.Layers = runLayerBenchmarks()
	}
	crossChecks(res, cfg)
	return res, nil
}

// tracePass measures the per-layer metrics of one workload on its trace
// load (the load divided by the workload's traceDiv): a warm-up, three
// untraced trials as the reference cost, then one run with metrics, tracer
// and harness spans armed and a flight ring deep enough, going by the
// reference trials, to keep every event, so that the stage budget covers
// every message.
func (s *runState) tracePass(cfg config, res *results) error {
	w, err := generate(s.w.name, cfg.seed, cfg.div*s.info.traceDiv)
	if err != nil {
		return err
	}
	v := w.variants[0]
	s.account(runTrial(w, v, trialMode{fullVerify: true}))
	var refs []*trial
	for k := 0; k < 3; k++ {
		t := runTrial(w, v, trialMode{})
		s.account(t)
		t.release()
		refs = append(refs, t)
	}
	ref := referenceOf(refs)
	t := runTrial(w, v, trialMode{fullVerify: true, traced: true, ringCap: ref.ringNeed})
	s.account(t)
	if t.sys == nil || t.delivered == 0 {
		return nil // the delivery check reports it
	}
	s.res.PerLayer = layerMetricsOf(w, v, t, ref, res)
	return writeTraces(cfg.outDir, w.name, v, t)
}

// crossChecks are the checks that span workloads or layers.
func crossChecks(res *results, cfg config) {
	bulk, fig6 := res.Workloads["bulk_stream"], res.Layers["bench.fig6_virtual_MBps_1MB_32KB"]
	if bulk != nil && bulk.Trials > 0 && fig6.Unit != "" && cfg.div == 1 {
		got := bulk.EndToEnd["goodput_virtual_MBps"].Value
		// The stream's messages are up to 1/512 short of 1 MiB (the seeded
		// jitter) and follow each other, where fig6 times one message of
		// exactly 1 MiB, so the two agree to well within half a percent, not
		// to the bit.
		res.check("bulk_stream reproduces Fig. 6", got > fig6.Value*0.995 && got < fig6.Value*1.005,
			"bulk_stream goodput %.4f MB/s, bench fig6 at 1 MB / 32 KB %.4f MB/s", got, fig6.Value)
	}
	plain, observed := res.Workloads["mice_stream"], res.Workloads["mice_stream_observed"]
	if plain != nil && observed != nil && plain.Trials > 0 && observed.Trials > 0 {
		// Equal virtual results need equal load: the observed workload runs
		// half the messages, so compare what does not depend on the count.
		a, b := plain.EndToEnd["copied_bytes_per_byte"].Value, observed.EndToEnd["copied_bytes_per_byte"].Value
		res.check("observability copies nothing", a == b, "copied bytes per byte %.6g disarmed, %.6g armed", a, b)
	}
}

// driverMetrics selects what BENCHMARK.json's reader is given for one
// workload: with trace 0 every end-to-end metric that has a driver bound,
// with trace 1 every per-layer metric, the workload's own and the layer
// microbenchmarks alike.
func driverMetrics(res *results, name string, trace int) map[string]value {
	wr := res.Workloads[name]
	metrics := map[string]value{}
	if trace == 0 {
		for _, m := range e2eMetrics {
			if m.driverBound > 0 {
				metrics[m.name] = wr.EndToEnd[m.name]
			}
		}
		return metrics
	}
	for _, m := range layerMetrics {
		if v, ok := wr.PerLayer[m.name]; ok {
			metrics[m.name] = v
		} else if v, ok := res.Layers[m.name]; ok {
			metrics[m.name] = v
		}
	}
	return metrics
}

// printDriverLine prints the one-line JSON object BENCHMARK.json's command
// is read by.
func printDriverLine(res *results, name string, trace int, correct bool) {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	wr := res.Workloads[name]
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct && wr.Failed == 0, wr.Attempted, wr.Failed, map[string]metric{}}
	for k, v := range driverMetrics(res, name, trace) {
		line.Metrics[k] = metric{v.Value, v.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s\n", data)
}
