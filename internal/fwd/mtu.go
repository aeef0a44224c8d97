package fwd

import (
	"madgo/internal/hw"
	"madgo/internal/route"
	"madgo/internal/vtime"
)

// MTUForRoute returns the per-path MTU of one route: the minimum of the
// per-network MTUs over every hop the route crosses. This is the §2.3
// negotiation — a connexion's packet size must fit the most constrained
// network it traverses, and no other.
func MTUForRoute(r route.Route, netMTU func(string) int) int {
	min := 0
	for _, hop := range r {
		m := netMTU(hop.Network)
		if min == 0 || m < min {
			min = m
		}
	}
	return min
}

// SuggestMTU formalizes the paper's §3.2.2 packet-size analysis: "the size
// of those fragments is defined so that each network is able to send them
// without having to fragment them further ... an appropriate paquet size
// can be chosen at compile time because the network configuration is
// statically configured."
//
// It models one steady-state pipeline period for a candidate packet size s
// crossing from network `in` to network `out` on a gateway with the given
// CPU costs:
//
//	recv(s) = in-side per-packet cost  + s/in-rate  + swap
//	send(s) = out-side per-packet cost + s/out-rate + swap
//	period  = max(recv, send)
//
// and returns the power-of-two s in [4 KB, 256 KB] with the highest s/period.
// The paper's naive crossover argument picks the size where the two raw
// networks perform equally (≈16 KB for SCI/Myrinet); this model additionally
// amortizes the fixed per-switch overhead, which is why — as the paper's own
// figures show — larger packets win asymptotically.
func SuggestMTU(in, out hw.NICParams, cpu hw.CPUParams) int {
	// Asymptotic choice: an effectively infinite message.
	return SuggestMTUFor(in, out, cpu, 1<<40)
}

// SuggestMTUFor is SuggestMTU for a known message size: shorter messages
// favour smaller packets because the pipeline fill (one extra receive step)
// is amortized over fewer periods — the crossing curve family of Figure 6.
func SuggestMTUFor(in, out hw.NICParams, cpu hw.CPUParams, messageBytes int) int {
	best, bestScore := 0, 0.0
	for s := 4 * 1024; s <= 256*1024; s *= 2 {
		packets := max(1, (messageBytes+s-1)/s)
		fill := stepCost(s, in, false) + cpu.SwapOverhead
		total := fill + vtime.Duration(packets)*period(s, in, out, cpu)
		score := float64(messageBytes) / total.Seconds()
		if score > bestScore {
			best, bestScore = s, score
		}
	}
	return best
}

// period estimates one steady-state pipeline period for packet size s.
func period(s int, in, out hw.NICParams, cpu hw.CPUParams) vtime.Duration {
	recv := stepCost(s, in, false) + cpu.SwapOverhead
	send := stepCost(s, out, true) + cpu.SwapOverhead
	return max(send, recv)
}

// stepCost is the per-packet cost on one side of the gateway.
func stepCost(s int, nic hw.NICParams, sending bool) vtime.Duration {
	rate := nic.RecvEngineRate
	fixed := nic.RecvOverhead
	if sending {
		rate = nic.EffectiveSendRate(s)
		fixed = nic.SendOverhead
		if nic.RendezvousThreshold > 0 && s > nic.RendezvousThreshold {
			fixed += nic.RendezvousCost
		}
	}
	return fixed + nic.WireLatency + vtime.DurationOfBytes(int64(s), rate)
}
