package madeleine_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"testing"

	madeleine "madgo"
)

var updateObsOracle = flag.Bool("update-obs-oracle", false,
	"rewrite testdata/obs_oracle.golden from this tree's registry (review the diff: the file was first written by the string-keyed registry of PR 15)")

// TestObsSnapshotOracle is the call-site half of the telemetry oracle
// (DESIGN.md §19). testdata/obs_oracle.golden was written by the commit
// before series handles existed — every write a string-keyed
// Registry.Add/Set/Observe, every hop detail a fmt.Sprintf at the call site —
// on the three seeded legs below: a streaming leg that exercises the
// coalescer and the aggregate, GTM and multicast relays; a
// streaming leg with eager framing, two rails and a one-slot gateway ring; and
// a reliable leg under loss, corruption and a gateway crash, with striping and
// the health monitor. The handle-based write
// path must reproduce that file byte for byte: every sample, the Prometheus
// text, every hop in recording order with its rendered Detail, and
// MessageTrace(id) for every id — which also pins that binding a handle
// surfaces no series its call site did not write before.
//
// The file was rewritten once since, when the gateway pipeline began to run
// across message boundaries (DESIGN.md §23 lists the diff): the reliable leg
// stayed byte-identical; on the streaming leg hop instants, the latency and
// duration histograms, one gateway stall and the schedulers' round counts
// moved, and no hop's text or message, packet, byte or credit count; on the
// striped leg the rails' completion instants moved too, the adaptive split
// follows the rates measured from them, and two messages shifted under 0.3 %
// of their bytes from one rail to the other.
//
// And a second time, when the coalescer began to send as soon as its path is
// free (DESIGN.md §24 lists the diff): the striped leg, which does not
// aggregate, stayed byte-identical; on the streaming leg the same messages
// cross in more and smaller frames that leave earlier (11 more hops, no
// "ordering" flush left: the daemon has the frame on the wire before the large
// message is packed); on the reliable leg frames leave at other instants, so
// the seeded fault plan's draws fall on other packets and everything
// downstream of a drop — retransmits, acks, health scores, the adaptive
// split — reads differently, with every message still delivered.
//
// And a third time, when both striping modes began to split by the rails'
// static rates (DESIGN.md §30 attributes every line): the streaming and
// reliable legs stayed byte-identical; on the striped leg a0's rails carry
// equal shares, the rail-rate gauges are gone, and the two sub-threshold
// messages leave in the eager framing the leg arms.
//
// And a fourth time, when every streaming gateway began to relay through its
// fair daemon whether or not credits are armed (DESIGN.md §32 has the diff):
// the streaming and reliable legs stayed byte-identical; the striped leg,
// which arms no credits, gains the two gateways' sched-round series, and its
// relays start up to a poll (2 µs) earlier, because the polling thread has
// already taken the next announcement when a relay returns: the leg ends at
// 18.816 ms instead of 18.818.
//
// And a fifth time, when a reliable rail's run became an ordinary burst pinned
// to its first hop (DESIGN.md §35): on the reliable leg a0's dead SCI rail is
// reported dead like any hop, so its hop reads `failover "link to gw1 via sci0
// presumed dead"` instead of `rail-failover`, madgo_failovers_total{node="a0"}
// reads 1 instead of 0, and every hop instant is unchanged.
//
// And a sixth time, when a reliable rail's bytes stopped counting fragment 0,
// the block descriptor, which is not payload (DESIGN.md §35): on the reliable
// leg a0's rail 0 reads 98 304 instead of 98 318, b1's rail-0 series, which
// only ever carried a descriptor, is gone, and each of the three `stripe`
// split records reads 14 bytes less on rail 0; every other line is unchanged.
//
// And a seventh time, when the credit layer went (DESIGN.md §13): the
// streaming leg armed credits with a window of 2, and its senders stalled on
// it 8 times. The same leg run at the parent commit with the default window
// of 16, which no sender waits on, equals the new streaming leg byte for byte
// once its twelve madgo_flow_credits_* lines are set aside (five samples,
// their five Prometheus lines and two TYPE lines); the striped and reliable
// legs, which kept no credit account, stayed byte-identical.
//
// And an eighth time, when a reliable transfer's sequence number and checksum
// became link framing (DESIGN.md §7): the streaming and striped legs stayed
// byte-identical. On the reliable leg every datagram is shorter — no CRC, no
// piggyback trailer, no MTU in the descriptor, a hop ack 8 bytes — so
// transfers leave at other instants, the seeded fault plan's draws fall on
// other transfers, and everything downstream (retransmits, acks, health
// scores, the checksum drops the receiving links now count) reads
// differently, with every message still delivered; and b1's 20 235-byte
// message, one payload packet, takes the table route instead of a [0 20235]
// split: madgo_stripe_messages_total reads 2, not 3, and b1's rail series is
// gone.
//
// And a ninth time, when a reliable message that does not stripe began to ride
// its pair's least-loaded rail whole instead of the table route (DESIGN.md
// §10): the streaming and striped legs stayed byte-identical. On the reliable
// leg unstriped messages change gateway: b1's 20 235-byte frame (message 14)
// crosses gw2, not gw1, and a0's 85- and 9 023-byte frames (11 and 13), sent
// while a0's link to gw1 is still excluded after gw1's crash, ride a0's other
// rail, whose first hop is a1, instead of going to gw2 directly. Transfers
// leave at other instants, so the seeded fault plan's draws fall on other
// transfers and everything downstream reads differently, with every message
// still delivered and the two stripe splits' bytes unchanged.
//
// And a tenth time, when a reliable pair's coalescer came to keep four frames
// in flight, numbered in the descriptor for the sink to deliver in sequence,
// and a datagram to hold its header within the MTU where that costs no
// fragment (DESIGN.md §24, §7): the streaming and striped legs stayed
// byte-identical. On the reliable leg b1's messages leave in four frames, not
// two, since a frame no longer waits for the one before it to be acknowledged
// end to end; the descriptors are 4 bytes longer and most fragments 27 bytes
// shorter, so transfers leave at other instants, the seeded fault plan's draws
// fall on other transfers, and everything downstream reads differently, with
// every message still delivered in order.
func TestObsSnapshotOracle(t *testing.T) {
	var got bytes.Buffer
	for _, leg := range []struct {
		name string
		run  func(t *testing.T, m *madeleine.Metrics) *madeleine.System
	}{{"streaming", oracleStreamingLeg}, {"striped", oracleStripedLeg}, {"reliable", oracleReliableLeg}} {
		m := madeleine.NewMetrics()
		leg.run(t, m)
		fmt.Fprintf(&got, "== leg %s\n-- samples\n", leg.name)
		for _, s := range m.Samples() {
			line, err := json.Marshal(s)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&got, "%s\n", line)
		}
		got.WriteString("-- prometheus\n")
		m.WritePrometheus(&got)
		got.WriteString("-- hops\n")
		for _, h := range m.Hops() {
			fmt.Fprintf(&got, "%d %d %s %s %q %d\n", h.Msg, h.At, h.Node, h.Op, h.Detail, h.Bytes)
		}
		for _, id := range m.Messages() {
			fmt.Fprintf(&got, "-- trace %d\n", id)
			for _, h := range m.MessageTrace(id) {
				fmt.Fprintf(&got, "%v\n", h)
			}
		}
	}
	const golden = "testdata/obs_oracle.golden"
	if *updateObsOracle {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("registry output departs from the string-keyed oracle at line %d:\n got %s\nwant %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("registry output has %d lines, the string-keyed oracle %d", len(gl), len(wl))
	}
}

// The legs run with any registry, nil included, and return the finished system.

// oracleSend spawns one sender of the given message sizes and its receiver.
func oracleSend(sys *madeleine.System, src, dst string, sizes []int) {
	sys.Spawn("send:"+src+">"+dst, func(p *madeleine.Proc) {
		for i, n := range sizes {
			buf := make([]byte, n)
			for j := range buf {
				buf[j] = byte(i + j)
			}
			px := sys.At(src).BeginPacking(p, dst)
			px.Pack(p, buf, madeleine.SendCheaper, madeleine.ReceiveCheaper)
			px.EndPacking(p)
		}
	})
	sys.Spawn("recv:"+src+">"+dst, func(p *madeleine.Proc) {
		for _, n := range sizes {
			u := sys.At(dst).BeginUnpacking(p)
			u.Unpack(p, make([]byte, n), madeleine.SendCheaper, madeleine.ReceiveCheaper)
			u.EndUnpacking(p)
		}
	})
}

func oracleStreamingLeg(t *testing.T, m *madeleine.Metrics) *madeleine.System {
	sys, err := madeleine.NewSystem(`network up sci
network core myrinet
network leaf sci
node root up
node peer up
node gw1 up core
node c1 core
node c2 core
node gw2 core leaf
node l1 leaf
node l2 leaf
`, madeleine.WithEagerSmallMessages(), madeleine.WithAggregation(),
		madeleine.WithMetrics(m), madeleine.WithTracer(madeleine.NewTracer()))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(16))
	mice := make([]int, 160)
	for i := range mice {
		mice[i] = 16 + rng.Intn(900)
	}
	oracleSend(sys, "root", "l1", mice)                        // coalesced, two gateways
	oracleSend(sys, "peer", "c1", []int{200, 70000, 90, 3000}) // an elephant among mice: spill and bypass
	oracleSend(sys, "root", "peer", []int{512, 40000})         // direct, no gateway
	dsts := []string{"c2", "gw2", "l2"}                        // gw2 relays to l2 and delivers to itself
	sys.Spawn("mcast:root", func(p *madeleine.Proc) {
		for _, n := range []int{300, 50000, 1200} {
			px := sys.At("root").BeginMulticast(p, dsts...)
			px.Pack(p, make([]byte, n), madeleine.SendCheaper, madeleine.ReceiveCheaper)
			px.EndPacking(p)
		}
	})
	for _, dst := range dsts {
		sys.Spawn("mrecv:"+dst, func(p *madeleine.Proc) {
			for _, n := range []int{300, 50000, 1200} {
				u := sys.At(dst).BeginUnpacking(p)
				u.Unpack(p, make([]byte, n), madeleine.SendCheaper, madeleine.ReceiveCheaper)
				u.EndUnpacking(p)
			}
		})
	}
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	return sys
}

func oracleStripedLeg(t *testing.T, m *madeleine.Metrics) *madeleine.System {
	sys, err := madeleine.NewSystem(`network sci0 sci
network myri0 myrinet
node a0 sci0
node a1 sci0
node b0 myri0
node gw1 sci0 myri0
node gw2 sci0 myri0
`, madeleine.WithEagerSmallMessages(), madeleine.WithStriping(2), madeleine.WithPipelineDepth(1),
		madeleine.WithMetrics(m), madeleine.WithTracer(madeleine.NewTracer()))
	if err != nil {
		t.Fatal(err)
	}
	oracleSend(sys, "a0", "b0", []int{100, 20000, 400000, 250000, 3000})
	oracleSend(sys, "a1", "a0", []int{64, 100000})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	return sys
}

func oracleReliableLeg(t *testing.T, m *madeleine.Metrics) *madeleine.System {
	sys, err := madeleine.NewSystem(`network sci0 sci
network myri0 myrinet
node a0 sci0
node a1 sci0
node b0 myri0
node b1 myri0
node gw1 sci0 myri0
node gw2 sci0 myri0
fault seed 16
fault drop * 0.04
fault corrupt * 0.01
fault crash gw1 3ms 40ms
`, madeleine.WithProduction(), madeleine.WithMetrics(m), madeleine.WithTracer(madeleine.NewTracer()))
	if err != nil {
		t.Fatal(err)
	}
	oracleSend(sys, "a0", "b0", []int{700, 300000, 64, 9000, 180000})
	oracleSend(sys, "b1", "a1", []int{100, 100, 20000, 100})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	return sys
}
