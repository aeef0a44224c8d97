package bench

import (
	"fmt"

	"madgo/internal/assembly"
	"madgo/internal/flow"
	"madgo/internal/fwd"
	"madgo/internal/topo"
	"madgo/internal/vtime"
)

func init() {
	register(&Experiment{
		ID:          "c1",
		Title:       "Credit-based gateway fairness under a 64-sender incast",
		Description: "64 senders (8 large-message 'elephants', 56 small-message 'mice', equal byte totals) funnel through one gateway's DRR relay; per-sender goodput Jain fairness and aggregate goodput with credit-window flow control off and on, against the single-sender ceiling.",
		Run:         runC1,
	})
}

// c1Workload fixes the incast shape: every sender moves the same byte
// total, but elephants move it as few large messages and mice as many small
// ones. A first-come relay would be message-fair, so byte service would grow
// with message size: the unfairness the gateway's DRR relay removes.
type c1Workload struct {
	Senders   int
	Elephants int
	EleMsg    int // elephant message bytes
	EleCount  int // messages per elephant
	MouseMsg  int // mouse message bytes
	MouseCnt  int // messages per mouse
}

func c1Full() c1Workload {
	return c1Workload{Senders: 64, Elephants: 8, EleMsg: 256 * kb, EleCount: 2, MouseMsg: 16 * kb, MouseCnt: 32}
}

func c1Quick() c1Workload {
	return c1Workload{Senders: 12, Elephants: 2, EleMsg: 128 * kb, EleCount: 4, MouseMsg: 16 * kb, MouseCnt: 32}
}

func (wl c1Workload) perSender() int { return wl.EleMsg * wl.EleCount } // == MouseMsg*MouseCnt

func (wl c1Workload) total() int { return wl.Senders * wl.perSender() }

func (wl c1Workload) name(i int) string {
	if i < wl.Elephants {
		return fmt.Sprintf("e%d", i)
	}
	return fmt.Sprintf("m%d", i-wl.Elephants)
}

func (wl c1Workload) msgSize(name string) (size, count int) {
	if name[0] == 'e' {
		return wl.EleMsg, wl.EleCount
	}
	return wl.MouseMsg, wl.MouseCnt
}

// c1Topo is the incast star: all senders on one edge network, one gateway,
// the sink alone on the core network behind it.
func (wl c1Workload) topo() *topo.Topology {
	b := topo.NewBuilder().Network("edge", "sci").Network("core", "myrinet")
	for i := 0; i < wl.Senders; i++ {
		b.Node(wl.name(i), "edge")
	}
	b.Node("gw", "edge", "core").Node("sink", "core")
	tp, err := b.Build()
	if err != nil {
		panic(err)
	}
	return tp
}

// c1Out is one incast run's outcome.
type c1Out struct {
	Jain     float64
	AggMBps  float64
	MinMBps  float64
	MaxMBps  float64
	Makespan vtime.Duration
	Stats    fwd.FlowStats
}

// runIncast drives the full workload concurrently and measures per-sender
// goodput as each sender's byte total over its own completion time at the
// sink (equal totals, so the Jain index over goodputs isolates service-rate
// fairness from demand).
func runIncast(wl c1Workload, flowOn bool) c1Out {
	cfg := fwd.DefaultConfig()
	cfg.FlowControl = flowOn
	cb := newBed(assembly.Spec{Topo: wl.topo(), Config: cfg})
	for i := 0; i < wl.Senders; i++ {
		name := wl.name(i)
		size, count := wl.msgSize(name)
		cb.Sim.Spawn("incast:"+name, func(p *vtime.Proc) {
			payload := make([]byte, size)
			for m := 0; m < count; m++ {
				cb.send(p, name, "sink", payload)
			}
		})
	}
	left := make(map[string]int, wl.Senders)
	doneAt := make(map[string]vtime.Time, wl.Senders)
	totalMsgs := 0
	for i := 0; i < wl.Senders; i++ {
		_, count := wl.msgSize(wl.name(i))
		left[wl.name(i)] = count
		totalMsgs += count
	}
	cb.Sim.Spawn("incast:sink", func(p *vtime.Proc) {
		for i := 0; i < totalMsgs; i++ {
			from := cb.recvFrom(p, "sink", func(from string) []byte {
				size, _ := wl.msgSize(from)
				return make([]byte, size)
			})
			left[from]--
			if left[from] == 0 {
				doneAt[from] = p.Now()
			}
		}
	})
	cb.run()
	goodputs := make([]float64, 0, wl.Senders)
	out := c1Out{MinMBps: -1}
	for i := 0; i < wl.Senders; i++ {
		name := wl.name(i)
		t, ok := doneAt[name]
		if !ok {
			panic("bench: sender " + name + " never completed")
		}
		g := mbps(wl.perSender(), vtime.Duration(t))
		goodputs = append(goodputs, g)
		if out.MinMBps < 0 || g < out.MinMBps {
			out.MinMBps = g
		}
		if g > out.MaxMBps {
			out.MaxMBps = g
		}
		if vtime.Duration(t) > out.Makespan {
			out.Makespan = vtime.Duration(t)
		}
	}
	out.Jain = flow.Jain(goodputs)
	out.AggMBps = mbps(wl.total(), out.Makespan)
	out.Stats = cb.VC.FlowStats()
	return out
}

// incastCeiling sends the identical message mix from one sender, back to
// back — the gateway-limited upper bound an ideally scheduled incast can
// reach: the gateway overlaps the receive of a message with the send of the
// one before it whoever sent them (DESIGN.md §23). Per-message overheads are
// included, so aggregate/ceiling measures pure contention loss.
func incastCeiling(wl c1Workload) float64 {
	one := wl
	one.Senders = 1
	one.Elephants = 1
	cb := newBed(assembly.Spec{Topo: one.topo(), Config: fwd.DefaultConfig()})
	// The mix as (size, count) runs, elephants first: sender and sink walk
	// the same list.
	mix := [][2]int{
		{wl.EleMsg, wl.EleCount * wl.Elephants},
		{wl.MouseMsg, wl.MouseCnt * (wl.Senders - wl.Elephants)},
	}
	var done vtime.Time
	cb.Sim.Spawn("ceiling:send", func(p *vtime.Proc) {
		for _, run := range mix {
			payload := make([]byte, run[0])
			for m := 0; m < run[1]; m++ {
				cb.send(p, "e0", "sink", payload)
			}
		}
	})
	cb.Sim.Spawn("ceiling:sink", func(p *vtime.Proc) {
		for _, run := range mix {
			buf := make([]byte, run[0])
			for m := 0; m < run[1]; m++ {
				cb.recv(p, "sink", buf)
			}
		}
		done = p.Now()
	})
	cb.run()
	return mbps(wl.total(), vtime.Duration(done))
}

func runC1(o Options) *Result {
	wl := c1Full()
	if o.Quick {
		wl = c1Quick()
	}
	ceiling := incastCeiling(wl)
	r := &Result{
		ID: "c1", Title: fmt.Sprintf(
			"%d-sender incast through one gateway (%d elephants x %dx%dKB, %d mice x %dx%dKB)",
			wl.Senders, wl.Elephants, wl.EleCount, wl.EleMsg/kb,
			wl.Senders-wl.Elephants, wl.MouseCnt, wl.MouseMsg/kb),
		Header: []string{"run", "Jain", "agg MB/s", "min MB/s", "max MB/s", "stalls", "rounds"},
	}
	// The gateway relays in DRR order either way; the legs differ in credits.
	for _, leg := range []struct {
		name   string
		flowOn bool
	}{{"no-credits", false}, {"flow", true}} {
		out := runIncast(wl, leg.flowOn)
		r.Table = append(r.Table, []string{leg.name, fmt.Sprintf("%.3f", out.Jain), fmt.Sprintf("%.1f", out.AggMBps),
			fmt.Sprintf("%.2f", out.MinMBps), fmt.Sprintf("%.2f", out.MaxMBps),
			fmt.Sprintf("%d", out.Stats.Stalls), fmt.Sprintf("%d", out.Stats.SchedRounds)})
		r.Notes = append(r.Notes, fmt.Sprintf(
			"%s: Jain %.3f (gate: >= 0.90), aggregate %.1f MB/s = %.3fx the single-sender ceiling %.1f MB/s (gate: >= 0.95x)",
			leg.name, out.Jain, out.AggMBps, out.AggMBps/ceiling, ceiling))
		if out.Jain < 0.90 {
			r.Notes = append(r.Notes, fmt.Sprintf("WARNING: %s Jain %.3f below 0.90", leg.name, out.Jain))
		}
		if out.AggMBps < 0.95*ceiling {
			r.Notes = append(r.Notes, fmt.Sprintf(
				"WARNING: %s: fairness cost %.1f%% of aggregate goodput", leg.name, 100*(1-out.AggMBps/ceiling)))
		}
	}
	r.Table = append(r.Table, []string{"ceiling", "", fmt.Sprintf("%.1f", ceiling), "", "", "", ""})
	return r
}
