// Package flow implements fair scheduling for the forwarding layer, its
// answer to the "sophisticated bandwidth control mechanism [to] regulate the
// incoming communication flow on gateways" the paper's conclusion names as
// future work: a gateway is bounded by its staging ring and its links' own
// windows, and shares itself among its ingress senders by bytes
// (DESIGN.md §13).
//
// It holds the deficit-round-robin scheduler the relay dispatchers arbitrate
// ingress flows with (drr.go) and Jain's fairness index the incast
// experiments score per-sender goodput with (this file). The scheduler is
// also where its one consumer waits: a dispatcher parks in DRR.Next until a
// flow's head item is ready. ledger_compat.go keeps the credit-grant codec
// that benchmark/ still times.
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
