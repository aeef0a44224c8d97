// Fault tolerance: two clusters bridged by redundant gateways, with a
// seeded fault schedule scripted straight in the topology text — 2% packet
// loss everywhere and the preferred gateway crashing 30 ms in. The fault
// directives switch the system to reliable delivery: every packet carries a
// checksum and is acknowledged hop by hop, losses are retransmitted with
// exponential backoff, and when gw1 dies mid-transfer traffic fails over to
// gw2. The application code below is identical to the fault-free examples;
// the recovery is invisible except in the statistics. The system is built
// with the WithProduction preset — the "everything on" profile (eager
// framing, aggregation, flow control, striping, reliable delivery, health
// monitoring) — which the scripted faults compose with.
//
// Run with: go run ./examples/faulttolerance
package main

import (
	"fmt"
	"log"

	madeleine "madgo"
)

func main() {
	tr := madeleine.NewTracer()
	sys, err := madeleine.NewSystem(`
		network sciA  sci
		network myriB myrinet
		node a0 sciA
		node a1 sciA
		node gw1 sciA myriB
		node gw2 sciA myriB
		node b0 myriB
		node b1 myriB

		fault seed 7
		fault drop * 0.02
		fault crash gw1 30ms
	`, madeleine.WithProduction(), madeleine.WithTracer(tr))
	if err != nil {
		log.Fatal(err)
	}

	const n = 4 << 20
	sys.Spawn("sender", func(p *madeleine.Proc) {
		payload := make([]byte, n)
		for i := range payload {
			payload[i] = byte(5 * i)
		}
		px := sys.At("a0").BeginPacking(p, "b1")
		px.Pack(p, payload, madeleine.SendCheaper, madeleine.ReceiveCheaper)
		px.EndPacking(p)
		fmt.Printf("[%8v] a0: sent %d MB toward b1 across a lossy link and a doomed gateway\n",
			p.Now(), n>>20)
	})
	sys.Spawn("receiver", func(p *madeleine.Proc) {
		u := sys.At("b1").BeginUnpacking(p)
		got := make([]byte, n)
		u.Unpack(p, got, madeleine.SendCheaper, madeleine.ReceiveCheaper)
		u.EndUnpacking(p)
		for i := range got {
			if got[i] != byte(5*i) {
				log.Fatal("payload corrupted")
			}
		}
		fmt.Printf("[%8v] b1: received %d MB byte-exact\n", p.Now(), n>>20)
	})
	if err := sys.Run(); err != nil {
		log.Fatal(err)
	}

	for _, g := range []string{"gw1", "gw2"} {
		gs, _ := sys.GatewayStats(g)
		fmt.Printf("%s: %5d packets relayed, %3d retransmits, %d failovers\n",
			g, gs.Packets, gs.Retransmits, gs.Failovers)
	}
	ds := sys.Stats().Delivery
	fmt.Printf("total recovery: %d retransmits, %d failovers, %d duplicates suppressed\n",
		ds.Retransmits, ds.Failovers, ds.Duplicates)
	fmt.Println("\nrecovery timeline:")
	fmt.Println(tr.Timeline(0, sys.Now(), 100))
}
