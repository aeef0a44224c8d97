// Package flow implements credit-based end-to-end flow control and fair
// scheduling for the forwarding layer — the "sophisticated bandwidth control
// mechanism [to] regulate the incoming communication flow on gateways" the
// paper's conclusion names as future work, realized the way later credit-
// carrying transports (cf. MPICH2's RDMA channels) did it.
//
// It holds the wire codec for credit grants (codec.go), the
// deficit-round-robin scheduler the relay dispatchers arbitrate ingress flows
// with (drr.go), and the per-flow byte meter the fairness experiments score
// with (this file). The scheduler is also where its one consumer waits: a
// dispatcher parks in DRR.Next until an item is queued. The credit windows —
// senders parking on exhausted windows, grants waking them — live in
// internal/fwd.
package flow

// Jain computes Jain's fairness index over per-flow allocations:
// (Σx)² / (n·Σx²). It is 1 when every flow got the same share and
// approaches 1/n as one flow starves the rest. Zero-valued and empty
// inputs yield 0 so callers can gate on a threshold directly.
func Jain(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}

// Meter tallies delivered bytes per flow in first-seen order — the
// receiver-side instrument the incast experiments (bench c1, cmd/madload)
// score per-sender goodput and fairness with.
type Meter struct {
	order []string
	bytes map[string]int64
}

// NewMeter returns an empty meter.
func NewMeter() *Meter {
	return &Meter{bytes: make(map[string]int64)}
}

// Add credits n bytes to the named flow, registering it on first use.
func (m *Meter) Add(flow string, n int64) {
	if _, ok := m.bytes[flow]; !ok {
		m.order = append(m.order, flow)
	}
	m.bytes[flow] += n
}

// Flows returns the flow names in first-seen order.
func (m *Meter) Flows() []string { return append([]string(nil), m.order...) }

// Bytes returns the tally of one flow (0 if never seen).
func (m *Meter) Bytes(flow string) int64 { return m.bytes[flow] }

// Total returns the sum over every flow.
func (m *Meter) Total() int64 {
	var t int64
	for _, b := range m.bytes {
		t += b
	}
	return t
}

// Shares returns the per-flow byte counts in first-seen order.
func (m *Meter) Shares() []float64 {
	out := make([]float64, len(m.order))
	for i, f := range m.order {
		out[i] = float64(m.bytes[f])
	}
	return out
}

// Jain returns Jain's fairness index over the meter's per-flow byte
// counts.
func (m *Meter) Jain() float64 { return Jain(m.Shares()) }
