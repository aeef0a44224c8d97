package bench

import (
	"bytes"
	"fmt"
	"slices"

	"madgo/internal/assembly"
	"madgo/internal/flight"
	"madgo/internal/fwd"
	"madgo/internal/mad"
	"madgo/internal/topo"
	"madgo/internal/trace"
	"madgo/internal/vtime"
)

// Bed is a system under measurement: a virtual channel over some topology,
// put together by assembly.Build exactly as the facade puts a user's
// together. Every experiment that forwards builds one per run and drives it
// with Stream, or — the shapes with several senders or receivers — with
// processes of its own made of send and recv.
type Bed struct {
	Sim  *vtime.Sim
	Sess *mad.Session
	VC   *fwd.VirtualChannel
	// Eth is the Fast-Ethernet network the §3.1 ping program returns its
	// acks over; only the paper testbed (NewTestbed) has one.
	Eth *mad.Channel
}

// newBed assembles a bed. The harness's inputs are constants, so a set-up
// error is a bug in an experiment and panics.
func newBed(s assembly.Spec) *Bed {
	sim, sess, vc, err := assembly.Build(s)
	if err != nil {
		panic(err)
	}
	return &Bed{Sim: sim, Sess: sess, VC: vc}
}

// paperHS is the paper's evaluation platform — the SCI cluster, the Myrinet
// cluster and the dual-NIC gateway — restricted to the two high-speed
// networks its virtual channel spans.
func paperHS() *topo.Topology {
	hs, err := topo.PaperTestbed().Restrict("sci0", "myri0")
	if err != nil {
		panic(err)
	}
	return hs
}

// NewTestbed builds the paper testbed with the given forwarding
// configuration.
func NewTestbed(cfg fwd.Config) *Bed {
	return NewTestbedDrivers(cfg, nil)
}

// NewTestbedDrivers is NewTestbed with per-protocol driver overrides — the
// §3.4.1 workaround experiment swaps the SCI driver for its DMA-engine
// variant this way.
func NewTestbedDrivers(cfg fwd.Config, override map[string]mad.Driver) *Bed {
	b := newBed(assembly.Spec{Topo: paperHS(), Config: cfg, Drivers: override})
	// The Fast-Ethernet control network spans every node; it is a plain
	// Madeleine channel outside the virtual channel, exactly the role it
	// plays in the paper's ping program.
	ethDrv := mustDriver("ethernet")
	ethNet := b.Sess.Platform.NewNetwork("eth0", ethDrv.NIC())
	b.Eth = b.Sess.NewChannel("eth0", ethNet, ethDrv, b.Sess.Nodes()...)
	return b
}

// StreamTraced is Stream of one message with a flight recorder whose rings
// hold every event of the run, plus the run's pipeline lanes (package trace).
// A ring that overwrote an event would cut a period short, so that panics.
func (b *Bed) StreamTraced(src, dst string, size int) (trace.Log, []vtime.Time) {
	b.Sess.Platform.SetFlight(flight.NewRecorder(16*(size/b.VC.Config().MTU+1) + 256))
	_, ends := b.Stream(src, dst, size, 1)
	lanes, err := trace.Of(b.Sess.Platform)
	if err != nil {
		panic(err)
	}
	return lanes, ends
}

// mustDriver is assembly.DriverFor for the fixtures that bind a driver by
// hand (the ack network above, the raw pairs, the baseline relay).
func mustDriver(protocol string) mad.Driver {
	drv, err := assembly.DriverFor(protocol)
	if err != nil {
		panic(err)
	}
	return drv
}

// send packs one message of payload src → dst on the virtual channel.
func (b *Bed) send(p *vtime.Proc, src, dst string, payload []byte) {
	px := b.VC.At(src).BeginPacking(p, dst)
	px.Pack(p, payload, mad.SendCheaper, mad.ReceiveCheaper)
	px.EndPacking(p)
}

// recv unpacks dst's next message into buf, which must have its size.
func (b *Bed) recv(p *vtime.Proc, dst string, buf []byte) {
	b.recvFrom(p, dst, func(string) []byte { return buf })
}

// recvFrom is recv for a sink whose senders' message sizes differ: it asks
// for the buffer once the message's sender is known, and returns the sender.
func (b *Bed) recvFrom(p *vtime.Proc, dst string, bufFor func(from string) []byte) (from string) {
	u := b.VC.At(dst).BeginUnpacking(p)
	from = b.Sess.Node(u.From()).Name
	u.Unpack(p, bufFor(from), mad.SendCheaper, mad.ReceiveCheaper)
	u.EndUnpacking(p)
	return from
}

// run runs the simulation until every process spawned on the bed is done.
func (b *Bed) run() {
	if err := b.Sim.Run(); err != nil {
		panic(err)
	}
}

// Stream is the one way an experiment moves data: count messages of size
// bytes src → dst, back to back, then the simulation run to completion. It
// returns when each message's packing began and when its unpacking ended.
// The sender is spawned before the drain — the event loop breaks ties by
// spawn order, so the order is part of every archived number.
func (b *Bed) Stream(src, dst string, size, count int) (starts, ends []vtime.Time) {
	starts, ends = make([]vtime.Time, count), make([]vtime.Time, count)
	b.Sim.Spawn("stream:"+src, func(p *vtime.Proc) {
		payload := make([]byte, size)
		for i := range starts {
			starts[i] = p.Now()
			b.send(p, src, dst, payload)
		}
	})
	b.Sim.Spawn("drain:"+dst, func(p *vtime.Proc) {
		buf := make([]byte, size)
		for i := range ends {
			b.recv(p, dst, buf)
			ends[i] = p.Now()
		}
	})
	b.run()
	return starts, ends
}

// makespan is how long a stream that began at virtual time zero — every
// bed's first does — took to reach its sink: the instant its last message
// was unpacked.
func makespan(ends []vtime.Time) vtime.Duration {
	return vtime.Duration(ends[len(ends)-1])
}

// PingResult is one one-way measurement.
type PingResult struct {
	Bytes int
	// Faithful is the paper's method: round-trip time with a small
	// Fast-Ethernet ack, minus the separately measured ack latency.
	Faithful vtime.Duration
	// Actual is the simulator's ground truth (receive completion minus
	// send start), available because virtual time is global.
	Actual vtime.Duration
}

// MBps converts a measurement to the paper's bandwidth unit.
func (r PingResult) MBps() float64 {
	return float64(r.Bytes) / r.Faithful.Seconds() / 1e6
}

// PingSeries runs the §3.1 ping program: for each size, src sends one
// message of that size over the virtual channel to dst, and dst returns a
// small ack over Fast-Ethernet. The ack one-way latency is calibrated first
// with a pure Ethernet ping-pong, then subtracted from each observed
// round-trip. All measurements of the series run in one deterministic
// simulation. It is the paper's method, not a stream, and needs the paper
// testbed's Eth.
func (b *Bed) PingSeries(src, dst string, sizes []int) []PingResult {
	results := make([]PingResult, len(sizes))
	var ackOneWay vtime.Duration
	sendStarts := make([]vtime.Time, len(sizes))
	recvDones := make([]vtime.Time, len(sizes))

	srcEth := b.Eth.At(b.Sess.NodeByName(src))
	dstEth := b.Eth.At(b.Sess.NodeByName(dst))
	srcRank := b.VC.NodeRank(src)
	dstRank := b.VC.NodeRank(dst)
	ackByte := []byte{0xAC}
	// Each payload is built once and checked in one reused buffer: payload i
	// differs from the 255 before it at every index, so no stale byte passes.
	payloads := make([][]byte, len(sizes))

	b.Sim.Spawn("ping:"+src, func(p *vtime.Proc) {
		// Ack calibration: Ethernet ping-pong, half the round trip.
		t0 := p.Now()
		sendEth(p, srcEth, dstRank, ackByte)
		recvEth(p, srcEth)
		ackOneWay = vtime.Since(p.Now(), t0) / 2

		for i, n := range sizes {
			payloads[i] = make([]byte, n)
			for j := range payloads[i] {
				payloads[i][j] = byte(j*31 + i)
			}
			start := p.Now()
			sendStarts[i] = start
			b.send(p, src, dst, payloads[i])
			recvEth(p, srcEth) // the ack
			rtt := vtime.Since(p.Now(), start)
			results[i] = PingResult{Bytes: n, Faithful: rtt - ackOneWay}
		}
	})
	b.Sim.Spawn("pong:"+dst, func(p *vtime.Proc) {
		// Ack calibration partner.
		recvEth(p, dstEth)
		sendEth(p, dstEth, srcRank, ackByte)

		buf := make([]byte, slices.Max(append([]int{0}, sizes...)))
		for i, n := range sizes {
			b.recv(p, dst, buf[:n])
			recvDones[i] = p.Now()
			if !bytes.Equal(buf[:n], payloads[i]) {
				panic(fmt.Sprintf("bench: ping payload corrupted at %d bytes", n))
			}
			sendEth(p, dstEth, srcRank, ackByte)
		}
	})
	b.run()
	for i := range results {
		results[i].Actual = vtime.Since(recvDones[i], sendStarts[i])
	}
	return results
}

func sendEth(p *vtime.Proc, e *mad.Endpoint, to mad.Rank, payload []byte) {
	px := e.BeginPacking(p, to)
	px.Pack(p, payload, mad.SendCheaper, mad.ReceiveExpress)
	px.EndPacking(p)
}

func recvEth(p *vtime.Proc, e *mad.Endpoint) {
	u := e.BeginUnpacking(p)
	u.Unpack(p, make([]byte, 1), mad.SendCheaper, mad.ReceiveExpress)
	u.EndUnpacking(p)
}
