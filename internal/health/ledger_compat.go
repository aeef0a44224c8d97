package health

import (
	"madgo/internal/obs"
	"madgo/internal/topo"
	"madgo/internal/vtime"
)

// Config is what NewMonitor takes; the detector's tuning is constants, so it
// holds nothing.
//
// benchmark/ only: ROADMAP 8
type Config struct{}

// DefaultConfig returns the empty Config (benchmark/ only: ROADMAP 8).
func DefaultConfig() Config { return Config{} }

// NewMonitor is New (benchmark/ only: ROADMAP 8).
func NewMonitor(_ Config, primary, fallback *topo.Topology, met *obs.Registry,
	schedule func(vtime.Duration, func()), now func() vtime.Time) *Monitor {
	return New(primary, fallback, met, schedule, now)
}
