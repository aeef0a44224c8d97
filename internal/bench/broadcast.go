package bench

import (
	"bytes"
	"fmt"

	"madgo/internal/assembly"
	"madgo/internal/fwd"
	"madgo/internal/mad"
	"madgo/internal/topo"
	"madgo/internal/vtime"
)

func init() {
	register(&Experiment{
		ID:    "b1",
		Title: "Gateway-native multicast: broadcast fan-out vs unicast through the 2-gateway chain",
		Description: "One root broadcasts to N in {2..16} receivers spread over a Myrinet core and " +
			"a second SCI cluster, two gateways away. The unicast baseline sends one copy per " +
			"receiver, so the first gateway's ingress link carries the payload N times; the " +
			"multicast path sends once and the gateways replicate staged fragments onto their " +
			"distribution-tree branches, keeping ingress traffic independent of the fan-out.",
		Run: runB1,
	})
}

// b1Sizes covers both framings: 4 KB rides the compact single-transfer
// frame, 64 KB streams MTU-sized fragments through the replication
// pipeline.
var (
	b1Sizes   = []int{4 * kb, 64 * kb}
	b1Fanouts = []int{2, 4, 8, 16}
)

// b1Topo is the 2-gateway chain: the root cluster, a core network with its
// own members, and a leaf cluster behind the second gateway. Eight
// receivers per remote network cover the largest fan-out.
func b1Topo() *topo.Topology {
	b := topo.NewBuilder().
		Network("edge", "sci").
		Network("core", "myrinet").
		Network("leaf", "sci").
		Node("a0", "edge").
		Node("a1", "edge").
		Node("gw1", "edge", "core")
	for i := 0; i < 8; i++ {
		b = b.Node(fmt.Sprintf("c%d", i), "core")
	}
	b = b.Node("gw2", "core", "leaf")
	for i := 0; i < 8; i++ {
		b = b.Node(fmt.Sprintf("l%d", i), "leaf")
	}
	tp, err := b.Build()
	if err != nil {
		panic(err)
	}
	return tp
}

// b1Dests spreads n receivers evenly over the core and leaf networks, so
// the fan-out exercises both gateways instead of queueing on one shared
// per-host bus.
func b1Dests(n int) []string {
	out := make([]string, 0, n)
	for i := 0; i < n/2; i++ {
		out = append(out, fmt.Sprintf("c%d", i))
	}
	for i := 0; i < n-n/2; i++ {
		out = append(out, fmt.Sprintf("l%d", i))
	}
	return out
}

// b1Payload is message m's deterministic content; every receiver checks it
// byte for byte, so the goodput numbers are also a correctness proof.
func b1Payload(size, m int) []byte {
	p := make([]byte, size)
	for i := range p {
		p[i] = byte(i*3 + m)
	}
	return p
}

type b1Out struct {
	MBps    float64 // aggregate goodput: n * size * count / makespan
	Ingress int64   // gw1 ingress bytes over the whole run
}

// runB1Stream drives count back-to-back broadcasts of the given size to n
// receivers — as one multicast per message, or as the unicast fan-out
// baseline — and measures aggregate goodput over the slowest receiver's
// makespan.
func runB1Stream(multicast bool, size, count, n int) b1Out {
	cb := newBed(assembly.Spec{Topo: b1Topo(), Config: fwd.DefaultConfig()})
	dests := b1Dests(n)
	cb.Sim.Spawn("b1:root", func(p *vtime.Proc) {
		for m := 0; m < count; m++ {
			payload := b1Payload(size, m)
			if multicast {
				px := cb.VC.At("a0").BeginMulticast(p, dests...)
				px.Pack(p, payload, mad.SendCheaper, mad.ReceiveCheaper)
				px.EndPacking(p)
				continue
			}
			for _, d := range dests {
				cb.send(p, "a0", d, payload)
			}
		}
	})
	done := make([]vtime.Time, len(dests))
	for i, d := range dests {
		i, d := i, d
		cb.Sim.Spawn("b1:recv:"+d, func(p *vtime.Proc) {
			buf := make([]byte, size)
			for m := 0; m < count; m++ {
				cb.recv(p, d, buf)
				if !bytes.Equal(buf, b1Payload(size, m)) {
					panic(fmt.Sprintf("b1: %s received a corrupted copy of message %d", d, m))
				}
			}
			done[i] = p.Now()
		})
	}
	cb.run()
	var makespan vtime.Time
	for _, t := range done {
		makespan = max(makespan, t)
	}
	return b1Out{
		MBps:    mbps(n*size*count, vtime.Duration(makespan)),
		Ingress: cb.VC.Gateway("gw1").Bytes(),
	}
}

// b1Count picks the stream length for one message size: longer streams for
// the compact frames, fewer for the streaming elephants.
func b1Count(size int, quick bool) int {
	count := 64
	if size >= 16*kb {
		count = 16
	}
	if quick {
		count /= 4
	}
	return count
}

func runB1(o Options) *Result {
	r := &Result{
		ID:     "b1",
		Title:  "Broadcast goodput across the 2-gateway chain: gateway-native multicast vs unicast fan-out",
		Header: []string{"bytes", "receivers", "mcast MB/s", "unicast MB/s", "speedup", "mcast gw1 in", "unicast gw1 in"},
	}
	worst8 := 0.0
	ingressSpread := false
	for _, size := range b1Sizes {
		count := b1Count(size, o.Quick)
		var first int64 = -1
		for _, n := range b1Fanouts {
			mc := runB1Stream(true, size, count, n)
			uc := runB1Stream(false, size, count, n)
			speedup := mc.MBps / uc.MBps
			r.Table = append(r.Table, []string{
				fmt.Sprintf("%d", size),
				fmt.Sprintf("%d", n),
				fmt.Sprintf("%.2f", mc.MBps),
				fmt.Sprintf("%.2f", uc.MBps),
				fmt.Sprintf("%.2fx", speedup),
				fmt.Sprintf("%d", mc.Ingress),
				fmt.Sprintf("%d", uc.Ingress),
			})
			if n >= 8 && (worst8 == 0 || speedup < worst8) {
				worst8 = speedup
			}
			if first < 0 {
				first = mc.Ingress
			} else if mc.Ingress != first {
				ingressSpread = true
			}
		}
	}
	r.Notes = append(r.Notes,
		fmt.Sprintf("multicast vs unicast fan-out: worst speedup at >=8 receivers %.2fx (gate: >= 2x); "+
			"gateway ingress independent of receiver count: %v (gate: true)", worst8, !ingressSpread))
	if worst8 < 2.0 {
		r.Notes = append(r.Notes, fmt.Sprintf("WARNING: speedup %.2fx at >=8 receivers below the 2x gate", worst8))
	}
	if ingressSpread {
		r.Notes = append(r.Notes, "WARNING: gw1 ingress bytes vary with the receiver count — replication is leaking upstream")
	}
	return r
}
