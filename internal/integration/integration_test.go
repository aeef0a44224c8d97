// Package integration runs cross-package scenario tests: whole
// clusters-of-clusters under concurrent traffic, random topologies, and
// determinism checks. Everything goes through the public facade, so these
// tests double as executable documentation of the intended usage.
package integration_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	madeleine "madgo"
)

func pattern(n int, seed int) []byte {
	d := make([]byte, n)
	for i := range d {
		d[i] = byte(i*31 + seed)
	}
	return d
}

// TestAllPairsTraffic sends a message between every ordered pair of the
// paper testbed simultaneously and checks byte-exact delivery plus gateway
// accounting.
func TestAllPairsTraffic(t *testing.T) {
	sys, err := madeleine.NewSystemFromTopology(madeleine.PaperTestbed(),
		madeleine.WithRouteNetworks("sci0", "myri0"))
	if err != nil {
		t.Fatal(err)
	}
	nodes := []string{"a0", "a1", "a2", "a3", "gw", "b0", "b1", "b2", "b3"}
	type pair struct{ src, dst string }
	var pairs []pair
	for _, s := range nodes {
		for _, d := range nodes {
			if s != d {
				pairs = append(pairs, pair{s, d})
			}
		}
	}
	// One receiver process per node, draining the right number of
	// messages; senders tag messages so receivers can verify any order.
	inbound := map[string]int{}
	for _, pr := range pairs {
		inbound[pr.dst]++
	}
	crossCluster := 0
	for i, pr := range pairs {
		i, pr := i, pr
		size := 2000 + 137*i
		sys.Spawn(fmt.Sprintf("send:%s->%s", pr.src, pr.dst), func(p *madeleine.Proc) {
			px := sys.At(pr.src).BeginPacking(p, pr.dst)
			tag := []byte{byte(i), byte(size), byte(size >> 8)}
			px.Pack(p, tag, madeleine.SendCheaper, madeleine.ReceiveExpress)
			px.Pack(p, pattern(size, i), madeleine.SendCheaper, madeleine.ReceiveCheaper)
			px.EndPacking(p)
		})
	}
	sizeOf := func(i int) int { return 2000 + 137*i }
	for node, count := range inbound {
		node, count := node, count
		sys.Spawn("recv:"+node, func(p *madeleine.Proc) {
			for k := 0; k < count; k++ {
				u := sys.At(node).BeginUnpacking(p)
				tag := make([]byte, 3)
				u.Unpack(p, tag, madeleine.SendCheaper, madeleine.ReceiveExpress)
				i := int(tag[0])
				n := int(tag[1]) | int(tag[2])<<8
				if n != sizeOf(i)&0xFFFF {
					t.Errorf("%s: tag/size mismatch (i=%d n=%d)", node, i, n)
				}
				body := make([]byte, sizeOf(i))
				u.Unpack(p, body, madeleine.SendCheaper, madeleine.ReceiveCheaper)
				u.EndUnpacking(p)
				if !bytes.Equal(body, pattern(sizeOf(i), i)) {
					t.Errorf("%s: message %d corrupted", node, i)
				}
			}
		})
	}
	for _, pr := range pairs {
		onSCI := func(n string) bool { return strings.HasPrefix(n, "a") || n == "gw" }
		onMyri := func(n string) bool { return strings.HasPrefix(n, "b") || n == "gw" }
		direct := (onSCI(pr.src) && onSCI(pr.dst)) || (onMyri(pr.src) && onMyri(pr.dst))
		if !direct {
			crossCluster++
		}
	}
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	gs, _ := sys.GatewayStats("gw")
	if gs.Messages != int64(crossCluster) {
		t.Errorf("gateway relayed %d messages, want %d cross-cluster pairs", gs.Messages, crossCluster)
	}
}

// TestPerPairOrderingUnderLoad floods one forwarded pair with many
// messages from two independent sender processes on different nodes and
// checks per-sender FIFO order at the receiver.
func TestPerPairOrderingUnderLoad(t *testing.T) {
	sys, err := madeleine.NewSystemFromTopology(madeleine.PaperTestbed(),
		madeleine.WithRouteNetworks("sci0", "myri0"), madeleine.WithMTU(8*1024))
	if err != nil {
		t.Fatal(err)
	}
	const perSender = 12
	for _, src := range []string{"a0", "a1"} {
		src := src
		sys.Spawn("flood:"+src, func(p *madeleine.Proc) {
			for k := 0; k < perSender; k++ {
				px := sys.At(src).BeginPacking(p, "b0")
				px.Pack(p, []byte(src), madeleine.SendCheaper, madeleine.ReceiveExpress)
				px.Pack(p, []byte{byte(k)}, madeleine.SendCheaper, madeleine.ReceiveExpress)
				px.Pack(p, pattern(9000+k, k), madeleine.SendCheaper, madeleine.ReceiveCheaper)
				px.EndPacking(p)
			}
		})
	}
	seen := map[string]int{}
	sys.Spawn("drain:b0", func(p *madeleine.Proc) {
		for k := 0; k < 2*perSender; k++ {
			u := sys.At("b0").BeginUnpacking(p)
			who := make([]byte, 2)
			u.Unpack(p, who, madeleine.SendCheaper, madeleine.ReceiveExpress)
			seq := make([]byte, 1)
			u.Unpack(p, seq, madeleine.SendCheaper, madeleine.ReceiveExpress)
			body := make([]byte, 9000+int(seq[0]))
			u.Unpack(p, body, madeleine.SendCheaper, madeleine.ReceiveCheaper)
			u.EndUnpacking(p)
			src := string(who)
			if int(seq[0]) != seen[src] {
				t.Errorf("sender %s: got seq %d, want %d (per-pair FIFO broken)", src, seq[0], seen[src])
			}
			seen[src]++
			if !bytes.Equal(body, pattern(9000+int(seq[0]), int(seq[0]))) {
				t.Errorf("sender %s message %d corrupted", src, seq[0])
			}
		}
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if seen["a0"] != perSender || seen["a1"] != perSender {
		t.Errorf("seen = %v", seen)
	}
}

// TestRandomChainTopologies builds random chains of clusters (2–4 networks
// with alternating protocols) and checks end-to-end delivery across the
// full chain.
func TestRandomChainTopologies(t *testing.T) {
	protos := []string{"sci", "myrinet", "sbp"}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nets := 2 + rng.Intn(3)
		var sb strings.Builder
		for i := 0; i < nets; i++ {
			fmt.Fprintf(&sb, "network n%d %s\n", i, protos[rng.Intn(len(protos))])
		}
		// Two leaf nodes per end network, gateways chaining them.
		fmt.Fprintf(&sb, "node first n0\n")
		for i := 0; i < nets-1; i++ {
			fmt.Fprintf(&sb, "node g%d n%d n%d\n", i, i, i+1)
		}
		fmt.Fprintf(&sb, "node last n%d\n", nets-1)
		sys, err := madeleine.NewSystem(sb.String(),
			madeleine.WithMTU(4096+rng.Intn(60000)))
		if err != nil {
			t.Logf("seed %d: %v\n%s", seed, err, sb.String())
			return false
		}
		n := 1000 + rng.Intn(200_000)
		payload := pattern(n, int(seed))
		ok := true
		sys.Spawn("s", func(p *madeleine.Proc) {
			px := sys.At("first").BeginPacking(p, "last")
			px.Pack(p, payload, madeleine.SendCheaper, madeleine.ReceiveCheaper)
			px.EndPacking(p)
		})
		sys.Spawn("r", func(p *madeleine.Proc) {
			u := sys.At("last").BeginUnpacking(p)
			got := make([]byte, n)
			u.Unpack(p, got, madeleine.SendCheaper, madeleine.ReceiveCheaper)
			u.EndUnpacking(p)
			ok = bytes.Equal(got, payload)
			if nets > 2 && !u.Forwarded() {
				ok = false
			}
		})
		if err := sys.Run(); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestDeterministicEndToEnd runs the same busy scenario twice and compares
// final virtual times and gateway counters exactly.
func TestDeterministicEndToEnd(t *testing.T) {
	run := func() (madeleine.Time, int64, int64) {
		sys, err := madeleine.NewSystemFromTopology(madeleine.PaperTestbed(),
			madeleine.WithRouteNetworks("sci0", "myri0"))
		if err != nil {
			t.Fatal(err)
		}
		for i, pr := range [][2]string{{"a0", "b0"}, {"b1", "a1"}, {"a2", "b2"}, {"b3", "a3"}} {
			i, pr := i, pr
			n := 50_000 + i*7777
			sys.Spawn("s"+pr[0], func(p *madeleine.Proc) {
				px := sys.At(pr[0]).BeginPacking(p, pr[1])
				px.Pack(p, pattern(n, i), madeleine.SendCheaper, madeleine.ReceiveCheaper)
				px.EndPacking(p)
			})
			sys.Spawn("r"+pr[1], func(p *madeleine.Proc) {
				u := sys.At(pr[1]).BeginUnpacking(p)
				u.Unpack(p, make([]byte, n), madeleine.SendCheaper, madeleine.ReceiveCheaper)
				u.EndUnpacking(p)
			})
		}
		if err := sys.Run(); err != nil {
			t.Fatal(err)
		}
		gs, _ := sys.GatewayStats("gw")
		return sys.Now(), gs.Packets, gs.Bytes
	}
	t1, p1, b1 := run()
	t2, p2, b2 := run()
	if t1 != t2 || p1 != p2 || b1 != b2 {
		t.Fatalf("nondeterministic: (%v,%d,%d) vs (%v,%d,%d)", t1, p1, b1, t2, p2, b2)
	}
}

// TestGatewayAsEndpointWhileRelaying exercises the §2.2.2 dual role: the
// gateway exchanges its own application traffic while relaying a large
// forwarded stream.
func TestGatewayAsEndpointWhileRelaying(t *testing.T) {
	sys, err := madeleine.NewSystemFromTopology(madeleine.PaperTestbed(),
		madeleine.WithRouteNetworks("sci0", "myri0"))
	if err != nil {
		t.Fatal(err)
	}
	const stream = 1 << 20
	sys.Spawn("stream-send", func(p *madeleine.Proc) {
		px := sys.At("a0").BeginPacking(p, "b0")
		px.Pack(p, pattern(stream, 1), madeleine.SendCheaper, madeleine.ReceiveCheaper)
		px.EndPacking(p)
	})
	sys.Spawn("stream-recv", func(p *madeleine.Proc) {
		u := sys.At("b0").BeginUnpacking(p)
		got := make([]byte, stream)
		u.Unpack(p, got, madeleine.SendCheaper, madeleine.ReceiveCheaper)
		u.EndUnpacking(p)
		if !bytes.Equal(got, pattern(stream, 1)) {
			t.Error("stream corrupted")
		}
	})
	const chat = 10
	sys.Spawn("gw-app", func(p *madeleine.Proc) {
		for k := 0; k < chat; k++ {
			px := sys.At("gw").BeginPacking(p, "a1")
			px.Pack(p, []byte{byte(k)}, madeleine.SendCheaper, madeleine.ReceiveExpress)
			px.EndPacking(p)
			u := sys.At("gw").BeginUnpacking(p)
			echo := make([]byte, 1)
			u.Unpack(p, echo, madeleine.SendCheaper, madeleine.ReceiveExpress)
			u.EndUnpacking(p)
			if echo[0] != byte(k) {
				t.Errorf("gw chat round %d broken", k)
			}
		}
	})
	sys.Spawn("a1-app", func(p *madeleine.Proc) {
		for k := 0; k < chat; k++ {
			u := sys.At("a1").BeginUnpacking(p)
			v := make([]byte, 1)
			u.Unpack(p, v, madeleine.SendCheaper, madeleine.ReceiveExpress)
			u.EndUnpacking(p)
			px := sys.At("a1").BeginPacking(p, "gw")
			px.Pack(p, v, madeleine.SendCheaper, madeleine.ReceiveExpress)
			px.EndPacking(p)
		}
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	gs, _ := sys.GatewayStats("gw")
	if gs.Messages != 1 || gs.Bytes != stream {
		t.Errorf("gateway stats %d/%d", gs.Messages, gs.Bytes)
	}
}

// TestStarTopologyManyClusters attaches four clusters to one central
// gateway and crosses traffic through it from every arm at once.
func TestStarTopologyManyClusters(t *testing.T) {
	cfg := `
network n0 sci
network n1 myrinet
network n2 sci
network n3 myrinet
node hub n0 n1 n2 n3
node l0 n0
node l1 n1
node l2 n2
node l3 n3
`
	sys, err := madeleine.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	leaves := []string{"l0", "l1", "l2", "l3"}
	const n = 60_000
	for i, src := range leaves {
		i, src := i, src
		dst := leaves[(i+1)%len(leaves)]
		sys.Spawn("s:"+src, func(p *madeleine.Proc) {
			px := sys.At(src).BeginPacking(p, dst)
			px.Pack(p, pattern(n, i), madeleine.SendCheaper, madeleine.ReceiveCheaper)
			px.EndPacking(p)
		})
		sys.Spawn("r:"+dst, func(p *madeleine.Proc) {
			u := sys.At(dst).BeginUnpacking(p)
			got := make([]byte, n)
			u.Unpack(p, got, madeleine.SendCheaper, madeleine.ReceiveCheaper)
			u.EndUnpacking(p)
			if !bytes.Equal(got, pattern(n, i)) {
				t.Errorf("%s->%s corrupted", src, dst)
			}
		})
	}
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	gs, _ := sys.GatewayStats("hub")
	if gs.Messages != int64(len(leaves)) {
		t.Errorf("hub relayed %d, want %d", gs.Messages, len(leaves))
	}
}

// TestGatewayKillReliability is the fault-tolerance property test: over
// random chain topologies with one or two gateways per cluster boundary,
// crashing any redundant (non-articulation) gateway must leave ring traffic
// byte-exact, while crashing a sole (articulation) gateway must surface a
// typed DeliveryError — never a deadlock.
func TestGatewayKillReliability(t *testing.T) {
	protos := []string{"sci", "myrinet", "ethernet"}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 4; trial++ {
		nets := 2 + rng.Intn(2)
		var sb strings.Builder
		for i := 0; i < nets; i++ {
			fmt.Fprintf(&sb, "network n%d %s\n", i, protos[(trial+i)%len(protos)])
		}
		var leaves []string
		var gateways []string
		redundant := make(map[string]bool)
		for i := 0; i < nets; i++ {
			for j := 0; j < 1+rng.Intn(2); j++ {
				n := fmt.Sprintf("leaf%d_%d", i, j)
				fmt.Fprintf(&sb, "node %s n%d\n", n, i)
				leaves = append(leaves, n)
			}
		}
		for i := 0; i < nets-1; i++ {
			k := 1 + rng.Intn(2)
			for j := 0; j < k; j++ {
				g := fmt.Sprintf("g%d_%d", i, j)
				fmt.Fprintf(&sb, "node %s n%d n%d\n", g, i, i+1)
				gateways = append(gateways, g)
				redundant[g] = k > 1
			}
		}
		cfgText := sb.String()
		for _, victim := range gateways {
			plan := madeleine.NewFaultPlan(int64(trial)).Crash(victim, 0, 0)
			sys, err := madeleine.NewSystem(cfgText, madeleine.WithFaults(plan))
			if err != nil {
				t.Fatalf("trial %d: %v\n%s", trial, err, cfgText)
			}
			// Ring traffic over the leaf nodes: the wrap-around pair
			// crosses every cluster boundary, so the dead gateway's
			// bridge always carries traffic.
			payloads := make([][]byte, len(leaves))
			got := make([][]byte, len(leaves))
			for i := range leaves {
				i := i
				src, dst := leaves[i], leaves[(i+1)%len(leaves)]
				payloads[i] = pattern(2000+i*500, trial)
				sys.Spawn("s:"+src, func(p *madeleine.Proc) {
					px := sys.At(src).BeginPacking(p, dst)
					px.Pack(p, payloads[i], madeleine.SendCheaper, madeleine.ReceiveCheaper)
					px.EndPacking(p)
				})
				sys.Spawn("r:"+dst, func(p *madeleine.Proc) {
					u := sys.At(dst).BeginUnpacking(p)
					got[i] = make([]byte, len(payloads[i]))
					u.Unpack(p, got[i], madeleine.SendCheaper, madeleine.ReceiveCheaper)
					u.EndUnpacking(p)
				})
			}
			err = sys.Run()
			if redundant[victim] {
				if err != nil {
					t.Errorf("trial %d: killing redundant %s: %v\n%s", trial, victim, err, cfgText)
					continue
				}
				for i := range leaves {
					if !bytes.Equal(got[i], payloads[i]) {
						t.Errorf("trial %d: killing redundant %s corrupted %s->%s",
							trial, victim, leaves[i], leaves[(i+1)%len(leaves)])
					}
				}
			} else {
				var de *madeleine.DeliveryError
				if !errors.As(err, &de) {
					t.Errorf("trial %d: killing articulation %s: Run() = %v, want *DeliveryError\n%s",
						trial, victim, err, cfgText)
				}
			}
		}
	}
}

// TestFaultDeterminism runs the same seeded fault schedule twice and demands
// identical trace timelines, delivery statistics and final virtual times —
// the reproducibility contract of the fault-injection substrate.
func TestFaultDeterminism(t *testing.T) {
	cfg := `
network sci0 sci
network myri0 myrinet
node a0 sci0
node a1 sci0
node gw sci0 myri0
node b0 myri0
node b1 myri0
fault seed 5
fault drop * 0.03
fault corrupt * 0.01
fault flap myri0 10ms 5ms
fault crash gw 20ms 20ms
`
	run := func() (madeleine.Time, madeleine.DeliveryStats, string) {
		tr := madeleine.NewTracer()
		sys, err := madeleine.NewSystem(cfg, madeleine.WithTracer(tr))
		if err != nil {
			t.Fatal(err)
		}
		pairs := [][2]string{{"a0", "b0"}, {"a1", "b1"}, {"b0", "a0"}}
		for i, pr := range pairs {
			i, pr := i, pr
			payload := pattern(120_000+i*1000, i)
			sys.Spawn("s:"+pr[0], func(p *madeleine.Proc) {
				px := sys.At(pr[0]).BeginPacking(p, pr[1])
				px.Pack(p, payload, madeleine.SendCheaper, madeleine.ReceiveCheaper)
				px.EndPacking(p)
			})
			sys.Spawn("r:"+pr[1], func(p *madeleine.Proc) {
				u := sys.At(pr[1]).BeginUnpacking(p)
				got := make([]byte, len(payload))
				u.Unpack(p, got, madeleine.SendCheaper, madeleine.ReceiveCheaper)
				u.EndUnpacking(p)
				if !bytes.Equal(got, payload) {
					t.Errorf("%s -> %s corrupted", pr[0], pr[1])
				}
			})
		}
		if err := sys.Run(); err != nil {
			t.Fatal(err)
		}
		var spans strings.Builder
		for _, s := range tr.Spans() {
			fmt.Fprintln(&spans, s.String())
		}
		return sys.Now(), sys.Stats().Delivery, spans.String()
	}
	t1, ds1, tl1 := run()
	t2, ds2, tl2 := run()
	if t1 != t2 {
		t.Errorf("final times differ: %v vs %v", t1, t2)
	}
	if ds1 != ds2 {
		t.Errorf("delivery stats differ: %+v vs %+v", ds1, ds2)
	}
	if tl1 != tl2 {
		t.Error("trace timelines differ between identically-seeded runs")
	}
	if ds1.Retransmits == 0 {
		t.Error("faulty run saw zero retransmissions")
	}
}
