package route

import "madgo/internal/topo"

// Manager owns the routing tables a system routes by when a health monitor
// is running. Liveness constraints flow in through Publish; every call bumps
// the epoch and invalidates the cached tables, which are recomputed lazily
// (ComputeConstrained over the primary and, when present, the fallback
// topology) on the next Tables call.
//
// The simulation is single-threaded, so a Publish is atomic by construction:
// senders, gateways and the stripe scheduler all read the same Manager, and
// from the instant Publish returns every nextHop/stripe decision sees the
// new epoch. In-flight messages migrate on their next retransmit — the
// reliability layer re-resolves its hop through the Manager instead of
// burning the rest of a retry budget on an edge the detector already
// declared dead.
type Manager struct {
	primary  *topo.Topology
	fallback *topo.Topology // nil when the system has no fallback topology
	epoch    uint64
	cons     Constraints
	tables   []*Table
	dirty    bool
}

// NewManager creates a Manager routing over primary, with an optional
// fallback topology consulted for pairs the primary cannot route (mirroring
// the FallbackTopo mechanism of the forwarding layer). The initial epoch is
// 1 with empty constraints, so a cache tagged with epoch 0 is stale at once.
func NewManager(primary, fallback *topo.Topology) *Manager {
	if primary == nil {
		panic("route: NewManager with nil primary topology")
	}
	if fallback == primary {
		fallback = nil
	}
	return &Manager{primary: primary, fallback: fallback, epoch: 1, dirty: true}
}

// Epoch returns the current routing epoch.
func (m *Manager) Epoch() uint64 { return m.epoch }

// Constraints returns the constraints of the current epoch. The maps are
// shared — callers must not mutate them.
func (m *Manager) Constraints() Constraints { return m.cons }

// Publish installs a new constraint set, bumps the epoch, and invalidates
// the cached tables. It returns the new epoch.
func (m *Manager) Publish(c Constraints) uint64 {
	m.cons = c
	m.epoch++
	m.dirty = true
	return m.epoch
}

// Tables returns the routing tables of the current epoch — primary first,
// then the fallback when one exists — computing them if the constraints
// changed since the last call.
func (m *Manager) Tables() []*Table {
	if m.dirty {
		m.tables = m.tables[:0]
		for _, tp := range []*topo.Topology{m.primary, m.fallback} {
			if tp == nil {
				continue
			}
			m.tables = append(m.tables, ComputeConstrained(tp, m.cons))
		}
		m.dirty = false
	}
	return m.tables
}

// Find resolves src→dst against the current epoch's tables in order,
// returning the first hit or the last table's NoRouteError.
func (m *Manager) Find(src, dst string) (Route, error) {
	var err error
	for _, t := range m.Tables() {
		var r Route
		if r, err = t.Find(src, dst); err == nil {
			return r, nil
		}
	}
	if err == nil {
		err = &NoRouteError{Src: src, Dst: dst, Why: "no tables"}
	}
	return nil, err
}
