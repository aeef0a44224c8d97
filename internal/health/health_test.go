package health

import (
	"strings"
	"testing"

	"madgo/internal/obs"
	"madgo/internal/route"
	"madgo/internal/topo"
	"madgo/internal/vtime"
)

// testRig drives a Monitor by hand: scheduled probes collect into a queue
// the test fires explicitly, so every timing decision is observable.
type testRig struct {
	mon   *Monitor
	reg   *obs.Registry
	now   vtime.Time
	timer []struct {
		at vtime.Time
		fn func()
	}
	probed []route.Edge // requests that reached the sink
}

func newRig(t *testing.T, cfg Config) *testRig {
	t.Helper()
	tp, err := topo.NewBuilder().
		Network("sci0", "sci").
		Network("myri0", "myrinet").
		Node("a0", "sci0").
		Node("gw", "sci0", "myri0").
		Node("b0", "myri0").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	r := &testRig{reg: obs.New()}
	r.mon = NewMonitor(cfg, tp, nil, r.reg,
		func(d vtime.Duration, fn func()) {
			r.timer = append(r.timer, struct {
				at vtime.Time
				fn func()
			}{r.now.Add(d), fn})
		},
		func() vtime.Time { return r.now })
	r.mon.SetProbeSink(func(e route.Edge) { r.probed = append(r.probed, e) })
	return r
}

// advance moves the clock and fires due timers in order.
func (r *testRig) advance(d vtime.Duration) {
	r.now = r.now.Add(d)
	for i := 0; i < len(r.timer); {
		if r.timer[i].at <= r.now {
			fn := r.timer[i].fn
			r.timer = append(r.timer[:i], r.timer[i+1:]...)
			fn()
		} else {
			i++
		}
	}
}

func (r *testRig) takeProbes() []route.Edge {
	p := r.probed
	r.probed = nil
	return p
}

var edgeAB = route.Edge{From: "a0", To: "gw", Network: "sci0"}

func stateOf(t *testing.T, m *Monitor, e route.Edge) State {
	t.Helper()
	for _, lh := range m.Snapshot() {
		if lh.Link == e {
			return lh.State
		}
	}
	t.Fatalf("edge %v not tracked", e)
	return 0
}

func TestHardDeathAndReadmission(t *testing.T) {
	r := newRig(t, Config{})
	m := r.mon
	ep0 := m.Epoch()

	// Exhausted budget: immediate Dead, epoch bump, edge excluded.
	m.ReportDead(edgeAB, r.now)
	if got := stateOf(t, m, edgeAB); got != Dead {
		t.Fatalf("state after ReportDead = %v", got)
	}
	if m.Epoch() != ep0+1 {
		t.Fatalf("epoch = %d, want %d", m.Epoch(), ep0+1)
	}
	if !m.Excluded(edgeAB) || !m.DeadEdges()[edgeAB] {
		t.Fatal("dead edge not excluded")
	}
	// The dead edge's head must no longer relay, but stays a destination.
	cons := m.Constraints()
	if !cons.Relays["gw"] || cons.Nodes["gw"] {
		t.Fatalf("constraints = %+v", cons)
	}

	// First probation probe fires after the damped delay.
	if len(r.takeProbes()) != 0 {
		t.Fatal("probe fired before ProbeAfter elapsed")
	}
	r.advance(m.cfg.ProbeAfter)
	if p := r.takeProbes(); len(p) != 1 || p[0] != edgeAB {
		t.Fatalf("probes = %v", p)
	}

	// Probe success → Probation (still excluded), then the configured run
	// of successes re-admits under a fresh epoch.
	m.ProbeResult(edgeAB, true, vtime.Millisecond, r.now)
	if got := stateOf(t, m, edgeAB); got != Probation {
		t.Fatalf("state after first probe ok = %v", got)
	}
	if !m.Excluded(edgeAB) {
		t.Fatal("probation edge must stay excluded")
	}
	epBefore := m.Epoch()
	for i := 1; i < m.cfg.ProbationSuccesses; i++ {
		r.advance(m.cfg.ProbationEvery)
		if p := r.takeProbes(); len(p) != 1 {
			t.Fatalf("probation round %d: probes = %v", i, p)
		}
		m.ProbeResult(edgeAB, true, vtime.Millisecond, r.now)
	}
	if got := stateOf(t, m, edgeAB); got != Up {
		t.Fatalf("state after probation = %v", got)
	}
	if m.Excluded(edgeAB) {
		t.Fatal("readmitted edge still excluded")
	}
	if m.Epoch() != epBefore+1 {
		t.Fatalf("readmission epoch = %d, want %d", m.Epoch(), epBefore+1)
	}
	if m.Readmissions() != 1 {
		t.Fatalf("readmissions = %d", m.Readmissions())
	}
}

func TestFailedProbationFallsBack(t *testing.T) {
	r := newRig(t, Config{})
	m := r.mon
	m.ReportDead(edgeAB, r.now)
	r.advance(m.cfg.ProbeAfter)
	r.takeProbes()
	m.ProbeResult(edgeAB, true, 0, r.now) // → Probation
	r.advance(m.cfg.ProbationEvery)
	r.takeProbes()
	m.ProbeResult(edgeAB, false, 0, r.now) // probation broken
	if got := stateOf(t, m, edgeAB); got != Dead {
		t.Fatalf("state after failed probation = %v", got)
	}
	if !m.Excluded(edgeAB) {
		t.Fatal("edge readmitted despite failed probation")
	}
}

func TestSoftEvidenceHysteresis(t *testing.T) {
	r := newRig(t, Config{})
	m := r.mon
	// Failures erode the score: Up → Suspect once below the threshold.
	for i := 0; stateOf(t, m, edgeAB) == Up && i < 20; i++ {
		m.ReportFailure(edgeAB, r.now)
	}
	if got := stateOf(t, m, edgeAB); got != Suspect {
		t.Fatalf("state after failures = %v", got)
	}
	// Suspect is still routable — no epoch change, no exclusion.
	if m.Excluded(edgeAB) || m.Epoch() != 1 {
		t.Fatalf("suspect edge excluded (epoch %d)", m.Epoch())
	}
	// Suspicion triggers an immediate resolving probe.
	if p := r.takeProbes(); len(p) != 1 {
		t.Fatalf("suspect probes = %v", p)
	}
	// Successes climb back over the hysteresis band to Up.
	for i := 0; stateOf(t, m, edgeAB) == Suspect && i < 20; i++ {
		m.ReportSuccess(edgeAB, vtime.Millisecond, r.now)
	}
	if got := stateOf(t, m, edgeAB); got != Up {
		t.Fatalf("state after recovery = %v", got)
	}
	// The round trip Up→Suspect→Up never touched the route table.
	if m.Epoch() != 1 {
		t.Fatalf("epoch = %d, want 1", m.Epoch())
	}
}

func TestSoftDeathViaScore(t *testing.T) {
	r := newRig(t, Config{})
	m := r.mon
	for i := 0; stateOf(t, m, edgeAB) != Dead && i < 50; i++ {
		m.ReportFailure(edgeAB, r.now)
		// Suspect-state probes time out too.
		for _, e := range r.takeProbes() {
			m.ProbeResult(e, false, 0, r.now)
		}
	}
	if got := stateOf(t, m, edgeAB); got != Dead {
		t.Fatalf("state = %v, want Dead", got)
	}
	if m.Epoch() == 1 {
		t.Fatal("death did not publish a new epoch")
	}
}

func TestFlapDampingDoublesProbeDelay(t *testing.T) {
	r := newRig(t, Config{})
	m := r.mon
	kill := func() {
		m.ReportDead(edgeAB, r.now)
		r.advance(m.cfg.ProbeAfter / 2)
	}
	revive := func() {
		// Drain any due probe and answer everything successfully until Up.
		for i := 0; stateOf(t, m, edgeAB) != Up && i < 20; i++ {
			r.advance(m.cfg.ProbeAfterMax)
			for _, e := range r.takeProbes() {
				m.ProbeResult(e, true, 0, r.now)
			}
		}
		if got := stateOf(t, m, edgeAB); got != Up {
			t.Fatalf("revive stuck in %v", got)
		}
	}
	kill()
	if len(r.takeProbes()) != 0 {
		t.Fatal("first death: probe before ProbeAfter")
	}
	revive()
	kill() // second death: delay doubled, so still nothing at ProbeAfter/2 … or ProbeAfter
	r.advance(m.cfg.ProbeAfter / 2)
	if len(r.takeProbes()) != 0 {
		t.Fatal("second death: probe arrived before the doubled delay")
	}
	r.advance(m.cfg.ProbeAfter)
	if len(r.takeProbes()) != 1 {
		t.Fatal("second death: doubled-delay probe missing")
	}
}

func TestProbeGiveUpStopsScheduling(t *testing.T) {
	r := newRig(t, Config{ProbeGiveUp: 3})
	m := r.mon
	m.ReportDead(edgeAB, r.now)
	fails := 0
	for i := 0; i < 10; i++ {
		r.advance(m.cfg.ProbeAfterMax)
		ps := r.takeProbes()
		if len(ps) == 0 {
			break
		}
		m.ProbeResult(ps[0], false, 0, r.now)
		fails++
	}
	if fails != 3 {
		t.Fatalf("probes before give-up = %d, want 3", fails)
	}
	r.advance(10 * m.cfg.ProbeAfterMax)
	if p := r.takeProbes(); len(p) != 0 {
		t.Fatalf("abandoned edge still probed: %v", p)
	}
	// Fresh evidence of life re-arms the machinery.
	m.ReportSuccess(edgeAB, vtime.Millisecond, r.now)
	if got := stateOf(t, m, edgeAB); got != Probation {
		t.Fatalf("state after life evidence = %v", got)
	}
}

func TestHeartbeatsProbeIdleEdges(t *testing.T) {
	r := newRig(t, Config{})
	m := r.mon
	// First scan only arms the idle clocks.
	m.Heartbeats("a0", r.now)
	if p := r.takeProbes(); len(p) != 0 {
		t.Fatalf("first heartbeat scan probed %v", p)
	}
	// Before the idle threshold: still quiet.
	r.advance(m.cfg.HeartbeatIdle / 2)
	m.Heartbeats("a0", r.now)
	if p := r.takeProbes(); len(p) != 0 {
		t.Fatalf("early heartbeat probed %v", p)
	}
	// Past it: exactly the silent a0-edges get probes, nobody else's.
	r.advance(m.cfg.HeartbeatIdle)
	m.Heartbeats("a0", r.now)
	ps := r.takeProbes()
	if len(ps) != 1 || ps[0] != edgeAB {
		t.Fatalf("heartbeat probes = %v", ps)
	}
	// While the probe is outstanding no duplicate is scheduled.
	m.Heartbeats("a0", r.now)
	if p := r.takeProbes(); len(p) != 0 {
		t.Fatalf("duplicate heartbeat %v", p)
	}
	// Fresh traffic resets the idle clock instead.
	m.ProbeResult(edgeAB, true, vtime.Millisecond, r.now)
	m.ReportSuccess(edgeAB, vtime.Millisecond, r.now)
	m.Heartbeats("a0", r.now)
	if p := r.takeProbes(); len(p) != 0 {
		t.Fatalf("heartbeat despite fresh evidence: %v", p)
	}
}

func TestTransitionLogAndSnapshot(t *testing.T) {
	r := newRig(t, Config{})
	m := r.mon
	m.ReportDead(edgeAB, r.now)
	log := m.Transitions()
	if len(log) != 1 || log[0].Link != edgeAB || log[0].From != Up || log[0].To != Dead {
		t.Fatalf("log = %+v", log)
	}
	if log[0].Epoch != m.Epoch() {
		t.Fatalf("logged epoch %d != %d", log[0].Epoch, m.Epoch())
	}
	// Snapshot lists every directed edge of the topology: sci0 has
	// {a0,gw} → 2 directed, myri0 has {gw,b0} → 2 directed.
	if snap := m.Snapshot(); len(snap) != 4 {
		t.Fatalf("snapshot entries = %d, want 4", len(snap))
	}
	if m.LastTransition() != r.now {
		t.Fatalf("LastTransition = %v", m.LastTransition())
	}
}

// ReportSuccess runs once per acknowledged packet; with no registry armed it
// must not build the per-edge label (make allocs).
func TestReportSuccessDisarmedAllocsNothing(t *testing.T) {
	tp, err := topo.NewBuilder().Network("sci0", "sci").Node("a0", "sci0").Node("gw", "sci0").Build()
	if err != nil {
		t.Fatal(err)
	}
	var now vtime.Time
	mon := NewMonitor(Config{}, tp, nil, nil, func(vtime.Duration, func()) {}, func() vtime.Time { return now })
	n := testing.AllocsPerRun(500, func() {
		now = now.Add(vtime.Microsecond)
		mon.ReportSuccess(edgeAB, 40*vtime.Microsecond, now)
	})
	if n != 0 {
		t.Errorf("ReportSuccess with metrics off allocates %.1f times, want 0", n)
	}
}

// The handles bound with the edge record are the series the armed registry
// always saw: the gauges stay addressable by the edge's string form.
func TestHealthGaugesKeepTheirLabels(t *testing.T) {
	r := newRig(t, Config{})
	reg := r.reg
	r.mon.ReportFailure(edgeAB, r.now)
	r.mon.ReportDead(edgeAB, r.now)
	l := obs.Labels{"link": "a0>gw@sci0"}
	if got := reg.Gauge("madgo_health_link_state", l); got != float64(Dead) {
		t.Errorf("madgo_health_link_state%v = %v, want %v", l, got, float64(Dead))
	}
	var sb strings.Builder
	reg.WritePrometheus(&sb)
	for _, want := range []string{
		`madgo_health_link_score{link="a0>gw@sci0"} 0`,
		`madgo_health_link_state{link="a0>gw@sci0"} 2`,
	} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("Prometheus output lacks %q", want)
		}
	}
}
