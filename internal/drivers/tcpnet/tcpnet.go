// Package tcpnet is the Fast-Ethernet/TCP transmission module: the slow,
// ubiquitous control path the paper's ping harness uses for its return ack,
// and the network PACX-style baselines route inter-cluster traffic over.
//
// Characteristics carried by the model: kernel sockets copy every payload
// byte on both sides (charged to the hosts' CPUs), per-message costs are
// dominated by the protocol stack, and the wire tops out at 100 Mb/s.
package tcpnet

import (
	"madgo/internal/hw"
	"madgo/internal/mad"
	"madgo/internal/vtime"
)

// Driver is the TCP/Fast-Ethernet transmission module.
type Driver struct {
	nic hw.NICParams
}

// New returns a TCP driver with the calibrated Fast-Ethernet model.
func New() *Driver { return &Driver{nic: hw.FastEthernet()} }

// NewWith returns a TCP driver with explicit NIC parameters.
func NewWith(nic hw.NICParams) *Driver { return &Driver{nic: nic} }

// Protocol returns "ethernet".
func (d *Driver) Protocol() string { return "ethernet" }

// NIC returns the hardware model.
func (d *Driver) NIC() hw.NICParams { return d.nic }

// Caps: dynamic buffers, aggressive aggregation (the kernel copies anyway,
// so batching always pays).
func (d *Driver) Caps() mad.Caps {
	return mad.Caps{
		AggregateLimit: 4 * 1024,
		CopyThreshold:  512,
	}
}

// AllocStatic panics: TCP has dynamic buffers.
func (d *Driver) AllocStatic(h *hw.Host, n int) []byte {
	panic("tcpnet: no static buffers")
}

// OnSend charges the kernel's socket-buffer copy on the sending host.
func (d *Driver) OnSend(p *vtime.Proc, h *hw.Host, bytes int) {
	h.Memcpy(p, bytes)
}

// OnRecv charges the kernel-to-user copy on the receiving host.
func (d *Driver) OnRecv(p *vtime.Proc, h *hw.Host, bytes int) {
	h.Memcpy(p, bytes)
}

// NewNetwork creates a Fast-Ethernet network instance whose wires match
// this driver's NIC model.
func (d *Driver) NewNetwork(pl *hw.Platform, name string) *hw.Network {
	return pl.NewNetwork(name, d.nic)
}
