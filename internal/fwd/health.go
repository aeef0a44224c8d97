package fwd

// Forwarding-layer side of the link-health detector (package health): the
// monitor decides *when* an edge deserves a probe, this file performs it.
//
// Each node runs two daemons:
//
//   - A prober, fed by a bounded queue of probe requests the monitor's sink
//     dispatches by the edge's From node. It sends a KindHealth request over
//     the edge's link, waits up to the monitor's probe timeout for the
//     echoed response, and reports the outcome (with the measured
//     round-trip) back to the monitor.
//   - An echo daemon, fed by the polling daemons: a received probe request
//     is answered over the reverse link. The reply goes through a queue so
//     the polling daemon never blocks on link credits — the same discipline
//     as acknowledgements (see flushAcks).
//
// Probes are single KindHealth packets flagged Reliable, so they take the
// plain eager path and are subject to fault injection exactly like data: a
// probe across a faulted link is lost and times out, which is the signal.

import (
	"madgo/internal/flight"
	"madgo/internal/health"
	"madgo/internal/mad"
	"madgo/internal/route"
	"madgo/internal/vtime"
	"madgo/internal/vtime/vsync"
)

// healthEcho is one probe response queued for transmission.
type healthEcho struct {
	link  *mad.Link
	probe health.Probe
}

// healthProber is the per-node probe machinery.
type healthProber struct {
	eng   *relEngine
	q     *vsync.Chan[route.Edge]
	echoQ *vsync.Chan[healthEcho]
	seq   uint64
	await map[uint64]*relAwait // outstanding probes by sequence number
}

// buildHealth wires every engine's probe daemons and the monitor's sink.
func (vc *VirtualChannel) buildHealth() {
	mon := vc.mon
	sim := vc.sess.Platform.Sim
	for _, name := range vc.relOrder {
		e := vc.rel[name]
		hp := &healthProber{
			eng:   e,
			q:     vsync.NewChan[route.Edge]("probeq:"+name, 256),
			echoQ: vsync.NewChan[healthEcho]("echoq:"+name, 256),
			await: make(map[uint64]*relAwait),
		}
		e.hp = hp
		sim.SpawnDaemon("relprobe:"+name, func(p *vtime.Proc) { sendThread(p, hp.q, hp.probe) })
		sim.SpawnDaemon("relecho:"+name, func(p *vtime.Proc) {
			sendThread(p, hp.echoQ, func(p *vtime.Proc, it healthEcho) {
				pkt := vc.bufs.Get(health.ProbeSize)
				health.PutProbe(pkt, it.probe)
				e.sendControl(p, it.link, mad.KindHealth, pkt)
			})
		})
	}
	mon.SetProbeSink(func(edge route.Edge) {
		// Every node of the monitor's topologies has an engine (Build). One
		// heartbeat can queue a probe per edge leaving it: room for all at once.
		q := vc.rel[edge.From].hp.q
		q.Reserve(vc.tp.Degree(edge.From))
		if !q.TrySend(edge) {
			// The prober's queue is saturated: count the probe as failed so
			// the monitor reschedules instead of waiting forever on a request
			// nobody will perform.
			mon.ProbeResult(edge, false, 0, sim.Now())
		}
	})
}

// probe performs one probe: request out, await the echoed response, report.
func (hp *healthProber) probe(p *vtime.Proc, edge route.Edge) {
	e := hp.eng
	mon := e.vc.mon
	nw := e.vc.regular[edge.Network]
	if nw == nil {
		mon.ProbeResult(edge, false, 0, p.Now())
		return
	}
	link := nw.Link(e.node.Rank, e.vc.NodeRank(edge.To))
	hp.seq++
	seq := hp.seq
	aw := e.newAwait()
	hp.await[seq] = aw
	t0 := p.Now()
	pkt := e.vc.bufs.Get(health.ProbeSize)
	health.PutProbe(pkt, health.Probe{Kind: health.ProbeReq, Seq: seq, T0: t0})
	e.sendControl(p, link, mad.KindHealth, pkt)
	ok := e.await(p, aw, mon.ProbeTimeout(), "health probe", edge.To)
	dropAwait(e, hp.await, seq, aw)
	mon.ProbeResult(edge, ok, p.Now().Sub(t0), p.Now())
	bytes := 0
	if ok {
		bytes = 1 // success flag for the flight recorder, not a byte count
	}
	e.flight().Record(flight.KindProbe, p.Now(), p.Now().Sub(t0), 0, bytes, edge.Network)
}

// handleHealth dispatches one KindHealth arrival in the polling daemon: a
// request is queued for echo, a response completes the outstanding probe.
// Like every reliable-mode handler it never parks.
func (e *relEngine) handleHealth(p *vtime.Proc, in *mad.Link, pkt []byte) {
	pr, ok := health.DecodeProbe(pkt)
	if !ok {
		e.corruptDrop(p, in, pkt)
		return // the prober's timeout absorbs the loss
	}
	if pr.Kind == health.ProbeReq {
		back := in.Channel.Link(e.node.Rank, in.Src.Rank)
		e.hp.echoQ.Reserve(e.vc.tp.Degree(e.node.Name)) // an echo per edge, as the prober's queue
		if !e.hp.echoQ.TrySend(healthEcho{link: back, probe: pr.Response()}) {
			// Backpressure: drop the reply; the prober times out and the
			// monitor retries on its own schedule.
			e.count(relRelayDrops, 1)
		}
		return
	}
	complete(e.hp.await[pr.Seq])
}
