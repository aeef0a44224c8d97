// Package flow implements credit-based end-to-end flow control and fair
// scheduling for the forwarding layer — the "sophisticated bandwidth control
// mechanism [to] regulate the incoming communication flow on gateways" the
// paper's conclusion names as future work, realized the way later credit-
// carrying transports (cf. MPICH2's RDMA channels) did it.
//
// It holds the wire codec for credit grants (codec.go), the
// deficit-round-robin scheduler the relay dispatchers arbitrate ingress flows
// with (drr.go), and Jain's fairness index the incast experiments score
// per-sender goodput with (this file). The scheduler is also where its one
// consumer waits: a dispatcher parks in DRR.Next until an item is queued. The
// credit windows — senders parking on exhausted windows, grants waking them —
// live in internal/fwd.
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
