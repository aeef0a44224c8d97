package fwd

import (
	"testing"

	"madgo/internal/vtime"
)

// RelWindow and RelAckTimeout are the ARQ window and initial per-hop ack
// timeout, for the external tests.
const (
	RelWindow     = relWindow
	RelAckTimeout = relAckTimeout
)

// RelayQueued is how many packets node's relay dispatcher holds queued.
func (vc *VirtualChannel) RelayQueued(node string) int { return vc.rel[node].relayDRR.Len() }

// The ARQ's retry timeouts use decorrelated jitter: each next timeout is
// drawn uniformly from [relAckTimeout, 3·previous), capped at relMaxTimeout. The
// properties that matter: every draw stays inside the policy bounds, the
// draws actually spread (no synchronized doubling), the sequence is
// deterministic for a given node, and different nodes draw different
// sequences (so senders recovering from the same fault window do not
// retransmit in lockstep).
func TestDecorrelatedJitterSpread(t *testing.T) {
	draw := func(node string, n int) []vtime.Duration {
		e := &relEngine{rng: seedRelRand(node)}
		out := make([]vtime.Duration, n)
		to := relAckTimeout
		for i := range out {
			to = e.nextTimeout(to)
			out[i] = to
		}
		return out
	}

	const n = 200
	a := draw("a0", n)
	distinct := make(map[vtime.Duration]bool)
	for i, d := range a {
		if d < relAckTimeout || d > relMaxTimeout {
			t.Fatalf("draw %d = %v outside [%v, %v]", i, d, relAckTimeout, relMaxTimeout)
		}
		distinct[d] = true
	}
	if len(distinct) < n/4 {
		t.Errorf("only %d distinct timeouts in %d draws; jitter is not spreading", len(distinct), n)
	}

	// Deterministic: the same node re-draws the same sequence.
	b := draw("a0", n)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d differs across runs: %v vs %v", i, a[i], b[i])
		}
	}

	// Decorrelated across nodes: another node's sequence must diverge.
	c := draw("b0", n)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same > n/2 {
		t.Errorf("%d/%d draws identical across nodes; per-node seeding is broken", same, n)
	}
}

// A first-retry timeout below the base would retransmit before the ack can
// possibly arrive; the floor must hold even when the previous timeout was
// degenerate.
func TestJitterFloorsAtAckTimeout(t *testing.T) {
	e := &relEngine{rng: seedRelRand("gw")}
	for i := 0; i < 50; i++ {
		if d := e.nextTimeout(0); d < relAckTimeout || d > relMaxTimeout {
			t.Fatalf("nextTimeout(0) = %v outside [%v, %v]", d, relAckTimeout, relMaxTimeout)
		}
	}
}
