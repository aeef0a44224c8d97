package fluid

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"madgo/internal/vtime"
)

// refComputeRates is the water-filling allocator as it was before its maps
// and per-round slices became scratch fields: a sorted copy of the flow
// list, a demand map, capLeft and count maps, fresh limits and rest slices
// per round. It is kept verbatim as the oracle the engine's computeRates is
// compared against, except that it returns the rates instead of storing
// them in the flows.
func refComputeRates(live []*Flow) map[*Flow]float64 {
	rates := make(map[*Flow]float64, len(live))
	if len(live) == 0 {
		return rates
	}
	flows := make([]*Flow, len(live))
	copy(flows, live)
	sort.Slice(flows, func(i, j int) bool { return flows[i].id < flows[j].id })

	demand := make(map[*Flow]float64, len(flows))
	for _, f := range flows {
		d := f.demand
		for _, h := range f.route {
			if h.R.adjust != nil {
				m := h.R.adjust(Presence{Flow: f, Class: h.Class}, h.R.flows)
				if m < 0 {
					panic("fluid: negative arbitration multiplier on " + h.R.name)
				}
				d *= m
			}
		}
		demand[f] = d
	}

	capLeft := make(map[*Resource]float64)
	count := make(map[*Resource]int)
	for _, f := range flows {
		for _, h := range f.route {
			if _, seen := capLeft[h.R]; !seen {
				capLeft[h.R] = h.R.capacity
				count[h.R] = 0
			}
			count[h.R]++
		}
	}

	unfrozen := flows
	for len(unfrozen) > 0 {
		limits := make([]float64, len(unfrozen))
		lmin := math.Inf(1)
		for i, f := range unfrozen {
			l := demand[f]
			for _, h := range f.route {
				share := capLeft[h.R] / float64(count[h.R])
				if share < l {
					l = share
				}
			}
			limits[i] = l
			if l < lmin {
				lmin = l
			}
		}
		var rest []*Flow
		for i, f := range unfrozen {
			if limits[i] <= lmin*(1+1e-12) {
				rates[f] = lmin
				for _, h := range f.route {
					capLeft[h.R] -= lmin
					if capLeft[h.R] < 0 {
						capLeft[h.R] = 0
					}
					count[h.R]--
				}
			} else {
				rest = append(rest, f)
			}
		}
		if len(rest) == len(unfrozen) {
			panic("fluid: water-filling made no progress")
		}
		unfrozen = rest
	}
	return rates
}

// oracleCfg is one random scenario: resources (some arbitrated by the PCI
// "PIO at half speed under DMA" policy), flows with per-hop classes, and
// optionally a resource whose flows are cancelled mid-run.
type oracleCfg struct {
	caps     []float64
	policed  []bool
	flows    []oracleFlow
	cancelAt vtime.Time // 0: no cancellation
	cancelOn int
}

type oracleFlow struct {
	demand  float64
	bytes   int64
	route   []int
	classes []Class
	start   vtime.Time
	block   bool // a process in Transfer (recycled record) rather than Start
}

func pioUnderDMA(self Presence, active []Presence) float64 {
	if self.Class != ClassPIO {
		return 1
	}
	for _, a := range active {
		if a.Class == ClassDMA {
			return 0.5
		}
	}
	return 1
}

func randomOracleCfg(rng *rand.Rand) oracleCfg {
	var cfg oracleCfg
	for i, n := 0, 1+rng.Intn(5); i < n; i++ {
		cfg.caps = append(cfg.caps, float64(20+rng.Intn(100))*1e6)
		cfg.policed = append(cfg.policed, rng.Intn(2) == 0)
	}
	classes := []Class{ClassDMA, ClassPIO, ClassWire}
	for i, n := 0, 1+rng.Intn(12); i < n; i++ {
		f := oracleFlow{
			demand: float64(5+rng.Intn(80)) * 1e6,
			bytes:  int64(1+rng.Intn(400)) * 1000,
			// Half-millisecond steps plus the index in nanoseconds: flows
			// pile up, yet no two arrive in the same instant, so arrival
			// order (the allocator's processing order) is unambiguous.
			start: vtime.Time(rng.Intn(8))*vtime.Time(vtime.Millisecond)/2 + vtime.Time(i),
			block: rng.Intn(2) == 0,
		}
		// Routes may cross a resource twice, as a link whose two ends
		// share a bus would.
		for h, hops := 0, 1+rng.Intn(3); h < hops; h++ {
			f.route = append(f.route, rng.Intn(len(cfg.caps)))
			f.classes = append(f.classes, classes[rng.Intn(len(classes))])
		}
		cfg.flows = append(cfg.flows, f)
	}
	if rng.Intn(3) == 0 {
		cfg.cancelAt = vtime.Time(1+rng.Intn(5))*vtime.Time(vtime.Millisecond) + 500
		cfg.cancelOn = rng.Intn(len(cfg.caps))
	}
	return cfg
}

// oracleOutcome is what both sides report per flow.
type oracleOutcome struct {
	end      vtime.Time
	canceled bool
}

// refTimeline replays cfg with the old allocator and the engine's lazy
// integration and completion-timer rules, on hand-built flows and with no
// simulator: the reference for completion times.
func refTimeline(cfg oracleCfg) []oracleOutcome {
	res := make([]*Resource, len(cfg.caps))
	for i, c := range cfg.caps {
		res[i] = &Resource{name: "r", capacity: c}
		if cfg.policed[i] {
			res[i].adjust = pioUnderDMA
		}
	}
	order := make([]int, len(cfg.flows)) // arrival order: by start, then index
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return cfg.flows[order[a]].start < cfg.flows[order[b]].start })

	out := make([]oracleOutcome, len(cfg.flows))
	index := map[*Flow]int{}
	var live []*Flow
	var now vtime.Time
	never := vtime.Time(math.MaxInt64)
	eta := never
	remove := func(f *Flow) {
		for _, h := range f.route {
			h.R.flows = removeFlow(h.R.flows, f)
		}
	}
	integrate := func() {
		for _, f := range live {
			dt := vtime.Since(now, f.updated).Seconds()
			if dt > 0 && f.rate > 0 {
				f.remaining -= math.Min(f.rate*dt, f.remaining)
			}
			f.updated = now
		}
	}
	allocate := func() {
		for f, r := range refComputeRates(live) {
			f.rate = r
		}
		eta = never
		for _, f := range live {
			if f.rate > 0 {
				d := vtime.Duration(math.Ceil(f.remaining / f.rate * float64(vtime.Second)))
				if t := now.Add(d); t < eta {
					eta = t
				}
			}
		}
	}
	retire := func() {
		kept := live[:0]
		for _, f := range live {
			if f.remaining <= completionEps {
				remove(f)
				out[index[f]].end = now
			} else {
				kept = append(kept, f)
			}
		}
		live = kept
	}
	next, canceled := 0, cfg.cancelAt == 0
	var id uint64
	for {
		arrival, cancel := never, never
		if next < len(order) {
			arrival = cfg.flows[order[next]].start
		}
		if !canceled {
			cancel = cfg.cancelAt
		}
		// Arrivals never share an instant. A cancellation that coincides
		// with a completion runs first, as in the real run, where it was
		// scheduled before the run began and the timer during it; which of
		// an arrival and a coinciding completion runs first changes nothing,
		// since no time passes between them.
		switch {
		case arrival == never && cancel == never && eta == never:
			return out
		case arrival <= cancel && arrival <= eta:
			now = arrival
			spec := cfg.flows[order[next]]
			id++
			f := &Flow{id: id, demand: spec.demand, remaining: float64(spec.bytes), updated: now}
			for h, r := range spec.route {
				f.route = append(f.route, Hop{R: res[r], Class: spec.classes[h]})
			}
			index[f] = order[next]
			next++
			integrate()
			live = append(live, f)
			for _, h := range f.route {
				h.R.flows = append(h.R.flows, Presence{Flow: f, Class: h.Class})
			}
			retire()
			allocate()
		case cancel <= eta:
			now, canceled = cancel, true
			crosses := func(f *Flow) bool {
				return slices.ContainsFunc(f.route, func(h Hop) bool { return h.R == res[cfg.cancelOn] })
			}
			if !slices.ContainsFunc(live, crosses) {
				continue // CancelOn leaves the engine untouched
			}
			integrate()
			kept := live[:0]
			for _, f := range live {
				if crosses(f) {
					remove(f)
					out[index[f]] = oracleOutcome{end: now, canceled: true}
				} else {
					kept = append(kept, f)
				}
			}
			live = kept
			allocate()
		default:
			now = eta
			integrate()
			retire()
			allocate()
		}
	}
}

// TestAllocatorMatchesMapBasedOracle runs random flow sets × routes ×
// classes × the PCI policy through the engine and requires (a) after every
// change of the flow set, every live flow's rate to equal the old map-based
// allocator's to the last bit, and (b) every flow to end on the nanosecond
// the reference timeline says, cancelled or completed alike.
func TestAllocatorMatchesMapBasedOracle(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		cfg := randomOracleCfg(rand.New(rand.NewSource(seed)))
		want := refTimeline(cfg)

		sim := vtime.New()
		eng := NewEngine(sim)
		res := make([]*Resource, len(cfg.caps))
		for i, c := range cfg.caps {
			var adjust AdjustFunc
			if cfg.policed[i] {
				adjust = pioUnderDMA
			}
			res[i] = eng.NewResource("r", c, adjust)
		}
		// checkRates runs inside callbacks and simulated processes, so it
		// reports with Errorf (a Fatalf there would strand the scheduler)
		// and says no more once the scenario has failed.
		checkRates := func(when string) {
			if t.Failed() {
				return
			}
			ref := refComputeRates(eng.flows)
			for _, f := range eng.flows {
				if math.Float64bits(f.rate) != math.Float64bits(ref[f]) {
					t.Errorf("seed %d, %s at %v: flow %d runs at %v, map-based allocator says %v",
						seed, when, sim.Now(), f.id, f.rate, ref[f])
					return
				}
			}
		}
		got := make([]oracleOutcome, len(cfg.flows))
		for i, spec := range cfg.flows {
			i, spec := i, spec
			fs := Spec{Name: "f", Demand: spec.demand, Bytes: spec.bytes}
			for h, r := range spec.route {
				fs.Route = append(fs.Route, Hop{R: res[r], Class: spec.classes[h]})
			}
			fs.Class = fs.Route[0].Class
			if spec.block {
				sim.Spawn("flow", func(p *vtime.Proc) {
					p.Sleep(vtime.Duration(spec.start))
					_, ok := eng.TransferOK(p, fs)
					got[i] = oracleOutcome{end: sim.Now(), canceled: !ok}
					checkRates("unblocking")
				})
				continue
			}
			sim.At(spec.start, func() {
				var f *Flow
				f = eng.Start(fs, func() {
					got[i] = oracleOutcome{end: sim.Now(), canceled: f.Canceled()}
					checkRates("completion")
				})
				checkRates("start")
			})
		}
		if cfg.cancelAt > 0 {
			sim.At(cfg.cancelAt, func() {
				eng.CancelOn(res[cfg.cancelOn])
				checkRates("cancel")
			})
		}
		if err := sim.Run(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if t.Failed() {
			return
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: flow %d ended %+v, reference timeline says %+v", seed, i, got[i], want[i])
			}
		}
	}
}
