// Package sbp is the static-buffer transmission module, modelled after SBP
// (the reliable kernel protocol of Russell & Hatcher that the paper cites
// in §2.3): data can only be transmitted from driver-allocated buffers, so
// the buffer-management layer stages every block through 32 KB slots.
//
// The driver exists to exercise the zero-copy election logic on gateways:
// when the egress network is SBP, the forwarding engine asks this driver
// for a static buffer and receives the incoming packet directly into it,
// saving the copy; when both sides are static, one copy is unavoidable —
// the exact case analysis of the paper's §2.3.
package sbp

import (
	"madgo/internal/hw"
	"madgo/internal/mad"
)

// Driver is the SBP transmission module.
type Driver struct {
	mad.BaseDriver
	nic       hw.NICParams
	allocated int64
}

// New returns an SBP driver with the calibrated model.
func New() *Driver { return &Driver{nic: hw.SBP()} }

// NewWith returns an SBP driver with explicit NIC parameters.
func NewWith(nic hw.NICParams) *Driver { return &Driver{nic: nic} }

// Protocol returns "sbp".
func (d *Driver) Protocol() string { return "sbp" }

// NIC returns the hardware model.
func (d *Driver) NIC() hw.NICParams { return d.nic }

// Caps: static buffers; MaxTransmission is the slot size.
func (d *Driver) Caps() mad.Caps {
	return mad.Caps{
		StaticBuffers:   true,
		MaxTransmission: d.nic.StaticBufSize,
	}
}

// AllocStatic makes a new driver-owned slot on every call, charged no time:
// the modelled kernel hands out slots for free. The driver keeps none; what
// recycles them is the caller's pool (a gateway stages into the static class
// of its forwarding layer's mad.Pool), and the count is exposed for tests.
func (d *Driver) AllocStatic(h *hw.Host, n int) []byte {
	if n <= 0 {
		panic("sbp: nonpositive static buffer size")
	}
	d.allocated++
	return make([]byte, n)
}

// Allocated returns how many static buffers were handed out.
func (d *Driver) Allocated() int64 { return d.allocated }

// NewNetwork creates an SBP network instance whose wires match this
// driver's NIC model.
func (d *Driver) NewNetwork(pl *hw.Platform, name string) *hw.Network {
	return pl.NewNetwork(name, d.nic)
}
