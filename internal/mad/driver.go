package mad

import (
	"madgo/internal/hw"
	"madgo/internal/vtime"
)

// Caps describes a driver to the buffer-management layer, which selects and
// parameterizes the BMM from it.
type Caps struct {
	// StaticBuffers marks drivers that can only transmit from buffers
	// they allocated themselves (SBP). The BMM then stages every block
	// through driver slots.
	StaticBuffers bool
	// AggregateLimit is the size of the aggregation buffer used to batch
	// small and express blocks into a single transmission. Zero selects
	// the eager BMM: every block becomes its own transmission.
	AggregateLimit int
	// CopyThreshold is the largest block the aggregating BMM will copy;
	// strictly larger blocks are sent by reference with no copy.
	CopyThreshold int
	// ScatterGather marks NICs with gather-DMA send descriptors: the
	// aggregating BMM then groups small blocks *by reference* and the
	// card collects them on the fly, so the sender-side copy disappears
	// (the receiver still copies blocks out of the landed aggregate).
	// GatherEntries bounds one transmission's descriptor list; beyond
	// it the aggregate is flushed.
	ScatterGather bool
	GatherEntries int
	// MaxTransmission caps the payload of one transmission (the TM-level
	// MTU). Zero means unlimited. Blocks larger than the cap are
	// fragmented by the BMM.
	MaxTransmission int
}

// Driver is a protocol transmission module: it provides the NIC timing
// model, its capabilities, per-message host-software hooks, and static
// buffer allocation for the protocols that need it.
//
// Drivers hold no per-connection state: the generic link engine in this
// package implements the wire protocol (eager and rendezvous paths, posted
// receives, delivery) using the driver's parameters.
type Driver interface {
	// Protocol returns the protocol name ("myrinet", "sci", ...).
	Protocol() string
	// Caps returns the driver capabilities for the BMM layer.
	Caps() Caps
	// NIC returns the hardware timing model.
	NIC() hw.NICParams
	// AllocStatic returns a new driver-owned static buffer of n bytes on
	// host h, the memory of the SBP-style networks of §2.3 that payload must
	// be copied into before transmission. Drivers without static buffers
	// panic.
	AllocStatic(h *hw.Host, n int) []byte
	// OnSend charges protocol-specific per-transmission host costs on
	// the sending side beyond the NIC model (e.g. the TCP driver's
	// kernel socket copy).
	OnSend(p *vtime.Proc, h *hw.Host, bytes int)
	// OnRecv is the receiving-side counterpart of OnSend.
	OnRecv(p *vtime.Proc, h *hw.Host, bytes int)
}

// BaseDriver provides no-op hooks and a panicking AllocStatic for embedding
// in dynamic-buffer drivers.
type BaseDriver struct{}

// AllocStatic panics: the embedding driver has dynamic buffers only.
func (BaseDriver) AllocStatic(h *hw.Host, n int) []byte {
	panic("mad: driver has no static buffers")
}

// OnSend is a no-op.
func (BaseDriver) OnSend(p *vtime.Proc, h *hw.Host, bytes int) {}

// OnRecv is a no-op.
func (BaseDriver) OnRecv(p *vtime.Proc, h *hw.Host, bytes int) {}
