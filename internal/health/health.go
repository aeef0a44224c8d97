// Package health is the per-link failure detector behind the self-healing
// route tables. It consumes passive evidence from the forwarding layer (ACK
// round-trips, send outcomes, exhausted retransmit budgets, relay stalls)
// and active probe results, smooths them into a per-edge EWMA score, and
// drives each directed link through Up → Suspect → Dead → Probation
// transitions with hysteresis so a flapping link cannot oscillate the route
// table. Every transition that changes routable connectivity publishes a
// fresh constraint set to the route.Manager, which stamps a new epoch;
// recovered links are re-admitted only after a run of consecutive probation
// probe successes.
//
// The package is pure policy: it never touches channels or packets itself.
// The forwarding layer injects a scheduler hook (virtual-time callbacks) and
// a probe sink; the monitor decides when an edge deserves a probe and the
// forwarding layer performs it, reporting the outcome back.
package health

import (
	"sort"
	"strings"

	"madgo/internal/obs"
	"madgo/internal/route"
	"madgo/internal/topo"
	"madgo/internal/vtime"
)

// State is a link's position in the detector state machine.
type State uint8

const (
	// Up: full confidence, the edge is routable.
	Up State = iota
	// Suspect: score dropped below the suspect threshold. Still routable
	// (evidence is inconclusive) but probed actively to resolve quickly.
	Suspect
	// Dead: excluded from every route table until probation succeeds.
	Dead
	// Probation: a probe got through a dead edge. Still excluded from
	// routing; a run of consecutive probe successes re-admits it.
	Probation
)

func (s State) String() string {
	switch s {
	case Up:
		return "up"
	case Suspect:
		return "suspect"
	case Dead:
		return "dead"
	case Probation:
		return "probation"
	}
	return "invalid"
}

// Config tunes the detector. The zero value of any field selects the
// default noted on it.
type Config struct {
	// Alpha is the EWMA weight of each new piece of evidence (default
	// 0.3): score' = (1-Alpha)*score + Alpha*outcome, outcome 1 for a
	// success, 0 for a failure.
	Alpha float64
	// SuspectBelow demotes Up to Suspect when the score falls under it
	// (default 0.5).
	SuspectBelow float64
	// UpAbove promotes Suspect back to Up when the score climbs over it
	// (default 0.8). The gap to SuspectBelow is the hysteresis band.
	UpAbove float64
	// DeadBelow demotes Suspect to Dead when the score falls under it
	// (default 0.15). An exhausted retransmit budget kills the edge
	// outright regardless of score.
	DeadBelow float64
	// ProbeAfter is the delay from an edge dying to its first probation
	// probe (default 20ms). Each repeated death doubles the delay up to
	// ProbeAfterMax — a flap damper: the more often a link dies, the
	// longer it must wait for another chance.
	ProbeAfter vtime.Duration
	// ProbeAfterMax caps the death-count doubling (default 320ms).
	ProbeAfterMax vtime.Duration
	// ProbeTimeout is how long the prober waits for a response before
	// declaring the probe failed (default 10ms). Consumed by the
	// forwarding layer's prober, not by the detector itself.
	ProbeTimeout vtime.Duration
	// ProbationEvery spaces consecutive probation (and suspect-resolving)
	// probes (default 5ms).
	ProbationEvery vtime.Duration
	// ProbationSuccesses is the run of consecutive probe successes that
	// re-admits a dead edge (default 3).
	ProbationSuccesses int
	// ProbeGiveUp abandons an edge after this many consecutive failed
	// probes (default 40): the monitor stops scheduling probes so a
	// permanently-dead link stops generating events and the simulation
	// can drain. Evidence of life (a successful send) re-arms probing.
	ProbeGiveUp int
	// HeartbeatIdle is the idle threshold for heartbeats (default 50ms):
	// when a node transmits, sibling Up edges of that node with no
	// evidence for this long get a probe, so a silently-dead idle edge is
	// discovered before real traffic needs it.
	HeartbeatIdle vtime.Duration
}

// DefaultConfig returns the documented defaults.
func DefaultConfig() Config { return Config{}.withDefaults() }

func (c Config) withDefaults() Config {
	if c.Alpha == 0 {
		c.Alpha = 0.3
	}
	if c.SuspectBelow == 0 {
		c.SuspectBelow = 0.5
	}
	if c.UpAbove == 0 {
		c.UpAbove = 0.8
	}
	if c.DeadBelow == 0 {
		c.DeadBelow = 0.15
	}
	if c.ProbeAfter == 0 {
		c.ProbeAfter = 20 * vtime.Millisecond
	}
	if c.ProbeAfterMax == 0 {
		c.ProbeAfterMax = 320 * vtime.Millisecond
	}
	if c.ProbeTimeout == 0 {
		c.ProbeTimeout = 10 * vtime.Millisecond
	}
	if c.ProbationEvery == 0 {
		c.ProbationEvery = 5 * vtime.Millisecond
	}
	if c.ProbationSuccesses == 0 {
		c.ProbationSuccesses = 3
	}
	if c.ProbeGiveUp == 0 {
		c.ProbeGiveUp = 40
	}
	if c.HeartbeatIdle == 0 {
		c.HeartbeatIdle = 50 * vtime.Millisecond
	}
	return c
}

// Transition is one state change, kept in the monitor's log for diagnostics
// (madstat's health panel, the chaos soak's convergence assertions).
type Transition struct {
	At       vtime.Time
	Link     route.Edge
	From, To State
	Epoch    uint64 // routing epoch after this transition
}

// LinkHealth is one edge's externally visible condition.
type LinkHealth struct {
	Link  route.Edge
	State State
	Score float64
	RTT   vtime.Duration // EWMA of observed ack/probe round-trips
	Since vtime.Time     // time of the last state transition
}

// link is the per-edge detector record.
type link struct {
	scoreG, stateG *obs.Gauge // this edge's gauges, bound with the record; nil without a registry
	state          State
	score          float64
	rtt            vtime.Duration // EWMA, 0 until first measurement
	since          vtime.Time
	lastEvidence   vtime.Time
	probePending   bool // a probe is scheduled or in flight
	probeFails     int  // consecutive probe failures
	okProbes       int  // consecutive probation successes
	deaths         int  // lifetime death count, for probe-delay damping
	gaveUp         bool // probing abandoned after ProbeGiveUp failures
}

// Monitor is the failure detector plus its routing side: it owns the
// route.Manager and republishes constraints whenever the dead-edge set
// changes. All methods must be called from simulation context (the
// simulation is single-threaded, so there is no locking).
type Monitor struct {
	cfg      Config
	mgr      *route.Manager
	schedule func(vtime.Duration, func()) // vtime.Sim.After
	sink     func(route.Edge)             // forwarding layer's probe queue
	now      func() vtime.Time
	onEpoch  func(uint64, vtime.Time) // epoch-publication hook (may be nil)

	links  map[route.Edge]*link
	order  []route.Edge            // deterministic iteration order
	byFrom map[string][]route.Edge // heartbeat scan index

	dead map[route.Edge]bool // edges excluded from routing (Dead+Probation)

	log []Transition

	// The monitor's counts, attached to their series by NewMonitor, and its
	// gauge handles (nil, recording nothing, without a registry).
	probes, probeFails, readmissions, transitions obs.Counter
	transitionsTo                                 [Probation + 1]obs.Counter
	epochG, deadLinksG                            *obs.Gauge
}

// NewMonitor builds a monitor over every directed edge of the primary (and
// optional fallback) topology. met may be nil; schedule and now are the
// simulation's After and Now. The probe sink is injected separately by the
// forwarding layer once its prober queues exist.
func NewMonitor(cfg Config, primary, fallback *topo.Topology, met *obs.Registry,
	schedule func(vtime.Duration, func()), now func() vtime.Time) *Monitor {

	m := &Monitor{
		cfg:      cfg.withDefaults(),
		mgr:      route.NewManager(primary, fallback),
		schedule: schedule,
		now:      now,
		byFrom:   make(map[string][]route.Edge),
		dead:     make(map[route.Edge]bool),
	}
	tps := []*topo.Topology{primary}
	if fallback != nil {
		tps = append(tps, fallback)
	}
	n := 0 // directed links, counting a link both topologies have twice
	for _, tp := range tps {
		for _, nw := range tp.Networks() {
			n += len(nw.Members) * (len(nw.Members) - 1)
		}
	}
	m.links = make(map[route.Edge]*link, n)
	m.order = make([]route.Edge, 0, n)
	// m.order's Edge.String()s, built once, end to end, to sort by.
	var keys strings.Builder
	ends := make([]int, 1, n+1)
	for _, tp := range tps {
		for _, nw := range tp.Networks() {
			for _, from := range nw.Members {
				for _, to := range nw.Members {
					if from == to {
						continue
					}
					e := route.Edge{From: from, To: to, Network: nw.Name}
					if _, ok := m.links[e]; ok {
						continue
					}
					l := &link{state: Up, score: 1}
					if met != nil {
						labels := obs.Labels{"link": e.String()}
						l.scoreG = met.BindGauge("madgo_health_link_score", labels)
						l.stateG = met.BindGauge("madgo_health_link_state", labels)
					}
					m.links[e] = l
					m.order = append(m.order, e)
					keys.WriteString(e.String())
					ends = append(ends, keys.Len())
				}
			}
		}
	}
	all, byKey := keys.String(), linksByKey{make([]string, len(m.order)), m.order}
	for i := range byKey.keys {
		byKey.keys[i] = all[ends[i]:ends[i+1]]
	}
	sort.Sort(byKey)
	for _, e := range m.order {
		m.byFrom[e.From] = append(m.byFrom[e.From], e)
	}
	met.BindCounter(&m.probes, "madgo_health_probes_total", nil)
	met.BindCounter(&m.probeFails, "madgo_health_probe_failures_total", nil)
	met.BindCounter(&m.readmissions, "madgo_health_readmissions_total", nil)
	met.BindCounter(&m.transitions, "madgo_health_transitions_total", nil)
	for to := range m.transitionsTo {
		met.BindCounter(&m.transitionsTo[to], "madgo_health_transitions_total", obs.Labels{"to": State(to).String()})
	}
	m.epochG = met.BindGauge("madgo_route_epoch", nil)
	m.deadLinksG = met.BindGauge("madgo_health_dead_links", nil)
	// Registered at zero so a clean run's snapshot still shows them.
	for _, c := range [...]*obs.Counter{&m.probes, &m.probeFails, &m.readmissions, &m.transitions} {
		c.Add(0)
	}
	m.epochG.Set(float64(m.mgr.Epoch()))
	return m
}

// linksByKey sorts a monitor's links by their Edge.String() keys, each key
// swapped along with its link.
type linksByKey struct {
	keys  []string
	links []route.Edge
}

func (s linksByKey) Len() int           { return len(s.keys) }
func (s linksByKey) Less(i, j int) bool { return s.keys[i] < s.keys[j] }
func (s linksByKey) Swap(i, j int) {
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
	s.links[i], s.links[j] = s.links[j], s.links[i]
}

// SetProbeSink installs the callback that carries a probe request to the
// forwarding layer. Until it is set the monitor records state but schedules
// no probes.
func (m *Monitor) SetProbeSink(fn func(route.Edge)) { m.sink = fn }

// SetEpochHook installs a callback invoked after every routing-epoch
// publication (link death or re-admission). The forwarding layer uses it
// to trigger flight-recorder dumps on health churn.
func (m *Monitor) SetEpochHook(fn func(epoch uint64, at vtime.Time)) { m.onEpoch = fn }

// Epoch returns the current routing epoch.
func (m *Monitor) Epoch() uint64 { return m.mgr.Epoch() }

// Tables returns the epoch-stamped route tables (primary first).
func (m *Monitor) Tables() []*route.Table { return m.mgr.Tables() }

// Find resolves a route under the current epoch.
func (m *Monitor) Find(src, dst string) (route.Route, error) { return m.mgr.Find(src, dst) }

// Constraints returns the constraint set of the current epoch. Shared maps —
// callers must copy before mutating.
func (m *Monitor) Constraints() route.Constraints { return m.mgr.Constraints() }

// DeadEdges returns the set of routing-excluded edges (shared; do not
// mutate). The stripe scheduler feeds it to ComputeKAvoiding.
func (m *Monitor) DeadEdges() map[route.Edge]bool { return m.dead }

// Excluded reports whether the edge is currently excluded from routing.
func (m *Monitor) Excluded(e route.Edge) bool { return m.dead[e] }

// ProbeTimeout exposes the configured prober-side await.
func (m *Monitor) ProbeTimeout() vtime.Duration { return m.cfg.ProbeTimeout }

// Readmissions counts Probation→Up re-admissions since start.
func (m *Monitor) Readmissions() int64 { return m.readmissions.Count() }

// Probes counts probe results received (successes and failures).
func (m *Monitor) Probes() int64 { return m.probes.Count() }

// Transitions returns a copy of the transition log.
func (m *Monitor) Transitions() []Transition {
	out := make([]Transition, len(m.log))
	copy(out, m.log)
	return out
}

// LastTransition returns the time of the most recent state change, or 0.
func (m *Monitor) LastTransition() vtime.Time {
	if len(m.log) == 0 {
		return 0
	}
	return m.log[len(m.log)-1].At
}

// Snapshot returns every link's condition in deterministic order.
func (m *Monitor) Snapshot() []LinkHealth {
	out := make([]LinkHealth, 0, len(m.order))
	for _, e := range m.order {
		l := m.links[e]
		out = append(out, LinkHealth{Link: e, State: l.state, Score: l.score, RTT: l.rtt, Since: l.since})
	}
	return out
}

// ReportSuccess feeds a successful send/ack round-trip on an edge. rtt <= 0
// means "unknown" (outcome without a measured round-trip).
func (m *Monitor) ReportSuccess(e route.Edge, rtt vtime.Duration, now vtime.Time) {
	l := m.links[e]
	if l == nil {
		return
	}
	if rtt > 0 {
		if l.rtt == 0 {
			l.rtt = rtt
		} else {
			l.rtt = l.rtt - vtime.Duration(m.cfg.Alpha*float64(l.rtt)) + vtime.Duration(m.cfg.Alpha*float64(rtt))
		}
	}
	if l.gaveUp {
		// Life on an abandoned edge re-arms probing.
		l.gaveUp = false
		l.probeFails = 0
	}
	if l.state == Dead || l.state == Probation {
		// Data made it across an excluded edge (e.g. a burst raced the
		// death verdict): as strong as a probe success.
		m.probeOK(e, l, rtt, now)
		return
	}
	m.observe(e, l, 1, now)
}

// ReportFailure feeds a soft failure: one retransmit-timeout expiry. The
// edge stays routable until the score or an exhausted budget says otherwise.
func (m *Monitor) ReportFailure(e route.Edge, now vtime.Time) {
	l := m.links[e]
	if l == nil {
		return
	}
	if l.state == Dead || l.state == Probation {
		return // already excluded; probes own the verdict now
	}
	m.observe(e, l, 0, now)
}

// ReportDead feeds a hard failure — an exhausted retransmit budget or a
// relay stall. The edge dies immediately regardless of score.
func (m *Monitor) ReportDead(e route.Edge, now vtime.Time) {
	l := m.links[e]
	if l == nil {
		return
	}
	l.lastEvidence = now
	m.die(e, l, now)
}

// ProbeResult feeds the outcome of a probe the forwarding layer performed.
func (m *Monitor) ProbeResult(e route.Edge, ok bool, rtt vtime.Duration, now vtime.Time) {
	l := m.links[e]
	if l == nil {
		return
	}
	l.probePending = false
	m.probes.Add(1)
	if ok {
		if rtt > 0 {
			if l.rtt == 0 {
				l.rtt = rtt
			} else {
				l.rtt = l.rtt - vtime.Duration(m.cfg.Alpha*float64(l.rtt)) + vtime.Duration(m.cfg.Alpha*float64(rtt))
			}
		}
		m.probeOK(e, l, rtt, now)
		return
	}
	m.probeFails.Add(1)
	m.probeFail(e, l, now)
}

// Heartbeats scans the Up edges leaving from and schedules a probe on any
// that have been silent past the idle threshold. The forwarding layer calls
// it when a node transmits, so heartbeats are demand-driven and stop with
// the application (keeping the event queue drainable).
func (m *Monitor) Heartbeats(from string, now vtime.Time) {
	for _, e := range m.byFrom[from] {
		l := m.links[e]
		if l.state != Up || l.probePending || l.gaveUp {
			continue
		}
		if l.lastEvidence == 0 {
			// Never carried traffic: start the idle clock now instead of
			// probing everything at once on the first send.
			l.lastEvidence = now
			continue
		}
		if now.Sub(l.lastEvidence) >= m.cfg.HeartbeatIdle {
			m.fireProbe(e, l, 0)
		}
	}
}

// observe folds one outcome into the score and applies the score-driven
// transitions (the hard Dead path bypasses it via die).
func (m *Monitor) observe(e route.Edge, l *link, outcome float64, now vtime.Time) {
	l.score = (1-m.cfg.Alpha)*l.score + m.cfg.Alpha*outcome
	l.lastEvidence = now
	l.scoreG.Set(l.score)
	switch l.state {
	case Up:
		if l.score < m.cfg.SuspectBelow {
			m.transition(e, l, Suspect, now)
			// Resolve the suspicion actively rather than waiting for more
			// traffic to wander by.
			m.fireProbe(e, l, 0)
		}
	case Suspect:
		if l.score < m.cfg.DeadBelow {
			m.die(e, l, now)
		} else if l.score > m.cfg.UpAbove {
			m.transition(e, l, Up, now)
		}
	}
}

// die moves an edge to Dead (from any live state), publishes the shrunken
// connectivity, and schedules the first probation probe with a delay that
// doubles on every repeated death.
func (m *Monitor) die(e route.Edge, l *link, now vtime.Time) {
	if l.state == Dead {
		return
	}
	if l.state == Probation {
		// Failed probation (hard evidence while excluded): back to Dead
		// without recounting the death.
		m.transition(e, l, Dead, now)
		return
	}
	l.deaths++
	l.score = 0
	l.okProbes = 0
	l.scoreG.Set(0)
	m.transition(e, l, Dead, now)
	m.publish(now)
	m.fireProbe(e, l, m.probeDelay(l))
}

// probeDelay is the flap-damped wait before a dead edge's next probe.
func (m *Monitor) probeDelay(l *link) vtime.Duration {
	d := m.cfg.ProbeAfter
	for i := 1; i < l.deaths && d < m.cfg.ProbeAfterMax; i++ {
		d *= 2
	}
	if d > m.cfg.ProbeAfterMax {
		d = m.cfg.ProbeAfterMax
	}
	return d
}

// probeOK handles a successful probe (or success-equivalent evidence on an
// excluded edge).
func (m *Monitor) probeOK(e route.Edge, l *link, rtt vtime.Duration, now vtime.Time) {
	l.probeFails = 0
	l.gaveUp = false
	l.lastEvidence = now
	switch l.state {
	case Dead:
		l.okProbes = 1
		m.transition(e, l, Probation, now)
		m.fireProbe(e, l, m.cfg.ProbationEvery)
	case Probation:
		l.okProbes++
		if l.okProbes >= m.cfg.ProbationSuccesses {
			// Re-admission: the genuinely new capability — the edge
			// returns to the routable graph under a fresh epoch.
			l.score = 1
			l.okProbes = 0
			m.readmissions.Add(1)
			m.transition(e, l, Up, now)
			m.publish(now)
		} else {
			m.fireProbe(e, l, m.cfg.ProbationEvery)
		}
	case Suspect:
		m.observe(e, l, 1, now)
		if l.state == Suspect {
			// Not convinced yet; keep probing toward a verdict.
			m.fireProbe(e, l, m.cfg.ProbationEvery)
		}
	case Up:
		m.observe(e, l, 1, now)
	}
}

// probeFail handles a failed (timed-out) probe.
func (m *Monitor) probeFail(e route.Edge, l *link, now vtime.Time) {
	l.probeFails++
	l.okProbes = 0
	switch l.state {
	case Up, Suspect:
		// A lost probe is soft evidence, same as a lost data packet.
		m.observe(e, l, 0, now)
		if l.state == Suspect {
			m.fireProbe(e, l, m.cfg.ProbationEvery)
		}
	case Probation:
		m.transition(e, l, Dead, now)
	case Dead:
	}
	if l.state == Dead {
		if l.probeFails >= m.cfg.ProbeGiveUp {
			// Stop generating events for a link that is not coming back.
			l.gaveUp = true
			return
		}
		m.fireProbe(e, l, m.probeDelay(l))
	}
}

// firePending schedules a probe after d, marking the edge so overlapping
// triggers collapse into one outstanding probe.
func (m *Monitor) fireProbe(e route.Edge, l *link, d vtime.Duration) {
	if m.sink == nil || m.schedule == nil || l.probePending || l.gaveUp {
		return
	}
	l.probePending = true
	if d <= 0 {
		m.sink(e)
		return
	}
	m.schedule(d, func() {
		if l.probePending && !l.gaveUp {
			m.sink(e)
		}
	})
}

// transition records a state change and its metrics.
func (m *Monitor) transition(e route.Edge, l *link, to State, now vtime.Time) {
	from := l.state
	if from == to {
		return
	}
	l.state = to
	l.since = now
	m.log = append(m.log, Transition{At: now, Link: e, From: from, To: to, Epoch: m.mgr.Epoch()})
	m.transitions.Add(1)
	m.transitionsTo[to].Add(1)
	l.stateG.Set(float64(to))
}

// publish recomputes the routing exclusions from the link states and pushes
// them to the Manager under a new epoch.
func (m *Monitor) publish(now vtime.Time) {
	dead := make(map[route.Edge]bool)
	relays := make(map[string]bool)
	for _, e := range m.order {
		l := m.links[e]
		if l.state == Dead || l.state == Probation {
			dead[e] = true
			// A node with a dead incoming link must not relay: whether it
			// crashed or just that link died, routing *through* it risks a
			// black hole — but it stays a valid destination via other
			// links.
			relays[e.To] = true
		}
	}
	m.dead = dead
	ep := m.mgr.Publish(route.Constraints{Edges: dead, Relays: relays})
	if len(m.log) > 0 && m.log[len(m.log)-1].At == now {
		m.log[len(m.log)-1].Epoch = ep
	}
	m.epochG.Set(float64(ep))
	m.deadLinksG.Set(float64(len(dead)))
	if m.onEpoch != nil {
		m.onEpoch(ep, now)
	}
}
