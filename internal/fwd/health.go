package fwd

// Forwarding-layer side of the link-health detector (package health): the
// monitor decides *when* an edge deserves a probe, this file performs it.
//
// A probe is callbacks, not a process. The monitor's sink hands the edge to
// its From node's engine, which sends a KindHealth request over the edge's
// link and arms one timeout; whichever of the echoed response or the timeout
// comes first reports the outcome (with the measured round-trip) back to the
// monitor. A received request is echoed over the reverse link by the polling
// daemon that received it. Every probe datagram leaves through the link's
// control send (mad.Link.SendControl), which never parks, and is subject to
// fault injection exactly like data: a probe across a faulted link is lost
// and times out, which is the signal.

import (
	"slices"

	"madgo/internal/flight"
	"madgo/internal/health"
	"madgo/internal/mad"
	"madgo/internal/route"
	"madgo/internal/vtime"
)

// relProbe is one outstanding probe of a node's engine: the edge probed, the
// instant the request left and the sequence number its echo names. A record
// is free while seq is 0; the engine reuses free records before it makes one.
type relProbe struct {
	edge route.Edge
	t0   vtime.Time
	seq  uint64
}

// probe sends one probe request over edge and arms its timeout: the
// monitor's sink.
func (e *relEngine) probe(edge route.Edge) {
	mon, now := e.vc.mon, e.sim().Now()
	nw := e.vc.regular[edge.Network]
	if nw == nil {
		mon.ProbeResult(edge, false, 0, now)
		return
	}
	e.probeSeq++
	i := slices.IndexFunc(e.probes, func(pr relProbe) bool { return pr.seq == 0 })
	if i < 0 {
		i, e.probes = len(e.probes), append(e.probes, relProbe{})
	}
	e.probes[i] = relProbe{edge: edge, t0: now, seq: e.probeSeq}
	pkt := e.vc.bufs.Get(health.ProbeSize)
	health.PutProbe(pkt, health.Probe{Kind: health.ProbeReq, Seq: e.probeSeq, T0: now})
	e.sendControl(nw.Link(e.node.Rank, e.vc.NodeRank(edge.To)), mad.KindHealth, pkt)
	e.sim().AtArg(now.Add(health.ProbeTimeout), e.probeExpire, e.probeSeq)
}

// probeTimeout fires in scheduler context when the probe of sequence number
// seq runs out of time, unless its echo came first.
func (e *relEngine) probeTimeout(seq uint64) { e.probeDone(seq, false) }

// probeDone ends the outstanding probe of sequence number seq, if there is
// one: it frees the record, reports the outcome and records it on the node's
// flight ring. A probe that failed while this node was down reports no
// evidence (down).
func (e *relEngine) probeDone(seq uint64, ok bool) {
	i := slices.IndexFunc(e.probes, func(pr relProbe) bool { return pr.seq == seq })
	if i < 0 {
		return
	}
	pr, now := e.probes[i], e.sim().Now()
	e.probes[i] = relProbe{} // free before the monitor, which may probe again at once
	bytes := 0
	if ok {
		bytes = 1 // success flag for the flight recorder, not a byte count
	}
	e.flight().Record(flight.KindProbe, now, now.Sub(pr.t0), 0, bytes, pr.edge.Network)
	if !ok && (e.down(pr.t0) || e.down(now)) {
		e.vc.mon.ProbeVoid(pr.edge, now)
		return
	}
	e.vc.mon.ProbeResult(pr.edge, ok, now.Sub(pr.t0), now)
}

// handleHealth dispatches one KindHealth arrival in the polling daemon: a
// request is echoed over the reverse link, a response ends its probe. Like
// every reliable-mode handler it never parks.
func (e *relEngine) handleHealth(in *mad.Link, pkt []byte) {
	pr, ok := health.DecodeProbe(pkt)
	if !ok {
		e.count(relChecksumDrops, 1)
		return // the probe's timeout absorbs the loss
	}
	if pr.Kind == health.ProbeReq {
		echo := e.vc.bufs.Get(health.ProbeSize)
		health.PutProbe(echo, pr.Response())
		e.sendControl(in.Channel.Link(e.node.Rank, in.Src.Rank), mad.KindHealth, echo)
		return
	}
	e.probeDone(pr.Seq, true)
}
