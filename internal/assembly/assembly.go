// Package assembly is the one place a running system is put together:
// simulator → platform → session → a driver per network → bindings →
// fwd.Build. The facade (madeleine.NewSystemFromTopology) and every
// virtual-channel fixture of the experiment harness (internal/bench) call
// Build, so an experiment measures a system built the way a user's is, and
// the step order — which is behaviour: the registry sees series in build
// order, the event loop breaks ties by spawn order — is spelled once
// (DESIGN.md §26).
package assembly

import (
	"fmt"

	"madgo/internal/drivers/bip"
	"madgo/internal/drivers/loopback"
	"madgo/internal/drivers/sbp"
	"madgo/internal/drivers/sisci"
	"madgo/internal/drivers/tcpnet"
	"madgo/internal/fault"
	"madgo/internal/flight"
	"madgo/internal/fwd"
	"madgo/internal/hw"
	"madgo/internal/mad"
	"madgo/internal/obs"
	"madgo/internal/topo"
	"madgo/internal/vtime"
)

// Spec is what a system is assembled from. Only Topo and Config are
// required.
type Spec struct {
	// Topo is the routed topology: the virtual channel spans its networks.
	// When Config.Reliable carries a Config.FallbackTopo — a superset whose
	// extra networks are failover paths — those networks get drivers too.
	Topo   *topo.Topology
	Config fwd.Config
	// Drivers overrides DriverFor per protocol (the §3.4.1 workaround
	// experiments run SCI on the board's DMA engine this way).
	Drivers map[string]mad.Driver
	// Metrics, Flight and Faults, when non-nil, are armed on the platform
	// before the session exists, so the forwarding layer binds its series,
	// finds its rings and meets its faults as it is built. The injector
	// records its windows to Config.Tracer.
	Metrics *obs.Registry
	Flight  *flight.Recorder
	Faults  *fault.Plan
}

// Build assembles the system s describes and returns its simulator, its
// session and its virtual channel.
func Build(s Spec) (*vtime.Sim, *mad.Session, *fwd.VirtualChannel, error) {
	sim := vtime.New()
	pl := hw.NewPlatform(sim)
	if s.Metrics != nil {
		// Before fwd.Build so reliable mode's counter pre-registration
		// lands in the registry.
		pl.SetMetrics(s.Metrics)
	}
	if s.Flight != nil {
		pl.SetFlight(s.Flight)
	}
	sess := mad.NewSession(pl)
	// Reliable mode keeps the fallback topology's extra networks alive as
	// failover paths, so drivers are bound for all of it.
	netTopo := s.Topo
	if s.Config.Reliable && s.Config.FallbackTopo != nil {
		netTopo = s.Config.FallbackTopo
	}
	bindings := make(map[string]fwd.Binding)
	for _, nw := range netTopo.Networks() {
		drv, ok := s.Drivers[nw.Protocol]
		if !ok {
			var err error
			if drv, err = DriverFor(nw.Protocol); err != nil {
				return nil, nil, nil, err
			}
		}
		bindings[nw.Name] = fwd.Binding{Net: pl.NewNetwork(nw.Name, drv.NIC()), Drv: drv}
	}
	if s.Faults != nil {
		if err := s.Faults.Validate(); err != nil {
			return nil, nil, nil, err
		}
		pl.ArmFaults(fault.NewInjector(s.Faults, s.Config.Tracer))
	}
	vc, err := fwd.Build(sess, s.Topo, bindings, s.Config)
	if err != nil {
		return nil, nil, nil, err
	}
	return sim, sess, vc, nil
}

// DriverFor returns a fresh transmission module for a topology's protocol
// name, with its calibrated NIC model.
func DriverFor(protocol string) (mad.Driver, error) {
	switch protocol {
	case "sci":
		return sisci.New(), nil
	case "myrinet":
		return bip.New(), nil
	case "ethernet":
		return tcpnet.New(), nil
	case "sbp":
		return sbp.New(), nil
	case "loopback":
		return loopback.New(), nil
	default:
		return nil, fmt.Errorf("assembly: no driver for protocol %q", protocol)
	}
}
