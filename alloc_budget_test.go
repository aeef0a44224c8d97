package madeleine_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	madeleine "madgo"
	"madgo/internal/bench"
	"madgo/internal/vtime/vsync"
)

// chainTopo is the Fig. 6 chain: a –sci– gw –myrinet– b.
const chainTopo = `network sci0 sci
network myri0 myrinet
node a sci0
node gw sci0 myri0
node b myri0
`

// sbpChainTopo is the chain with an SBP ingress: a –sbp– gw –myrinet– b, so
// gw sends every fragment on from the driver slot it landed in.
const sbpChainTopo = `network sbp0 sbp
network myri0 myrinet
node a sbp0
node gw sbp0 myri0
node b myri0
`

// dualRailTopo joins a and b by both high-speed networks: two direct rails.
const dualRailTopo = `network myri0 myrinet
network sci0 sci
node a myri0 sci0
node b myri0 sci0
`

// diamondTopo gives a → b two rails, each through a gateway of its own.
const diamondTopo = `network m1 myrinet
network m2 myrinet
network s1 sci
network s2 sci
node a m1 s1
node g1 m1 m2
node g2 s1 s2
node b m2 s2
`

// incastTopo is the incast64 star: senders s00.. on one edge network, one
// gateway, the sink alone on the core network behind it.
func incastTopo(senders int) string {
	var topo strings.Builder
	topo.WriteString("network edge sci\nnetwork core myrinet\n")
	for i := 0; i < senders; i++ {
		fmt.Fprintf(&topo, "node s%02d edge\n", i)
	}
	topo.WriteString("node gw edge core\nnode sink core\n")
	return topo.String()
}

// bcastTopo is the bcast_fanout8 tree, root –up– gw1 –core– {c1..c4, gw2}
// –leaf– {l1..l4}, and its eight leaves.
func bcastTopo() (string, []string) {
	var topo strings.Builder
	topo.WriteString("network up sci\nnetwork core myrinet\nnetwork leaf sci\nnode root up\nnode gw1 up core\n")
	var leaves []string
	for i := 1; i <= 4; i++ {
		fmt.Fprintf(&topo, "node c%d core\n", i)
		leaves = append(leaves, fmt.Sprintf("c%d", i))
	}
	topo.WriteString("node gw2 core leaf\n")
	for i := 1; i <= 4; i++ {
		fmt.Fprintf(&topo, "node l%d leaf\n", i)
		leaves = append(leaves, fmt.Sprintf("l%d", i))
	}
	return topo.String(), leaves
}

// newSystemAllocBudgets are the most heap allocations NewSystem may cost for
// the chain under WithPaperFidelity, the incast64 shape with no option and
// the prod_lossy_mix shape under WithProduction. Each is a reading under
// the race detector, which does not pack small allocations, plus 2 %. The
// chain's is the reading before every streaming gateway relayed through a
// fair daemon (DESIGN.md §32): 307 then, 292 after (305 under the race
// detector), 271 (284–290) since a route search expands each network once
// (DESIGN.md §39). That change took incast64 from 9 125–9 138 (9 340 under the
// race detector) to 2 329–2 339 (2 555–2 579): Build walks every source's
// search tree and builds no Route, and a row is one slice of steps, not two
// maps. prod_lossy_mix read 3 840–3 849 before it (3 942) and 3 790–3 805
// (3 901–3 903) after: the health monitor's links are sorted on keys built
// once, into one buffer. It read 3 730 before a reliable node stopped making a
// control queue, a probe queue and an echo queue and their three daemons, and
// 2 595 (2 693) since.
var newSystemAllocBudgets = []struct {
	name   string
	topo   string
	opts   []madeleine.Option
	budget float64
}{
	{"chain", chainTopo, []madeleine.Option{madeleine.WithPaperFidelity()}, 313},
	{"incast64", incastTopo(64), nil, 2631},
	{"prod_lossy_mix", prodLossyTopo(16), []madeleine.Option{madeleine.WithProduction()}, 2747},
}

// TestNewSystemAllocBudget fails when building a system costs more
// allocations than its budget (make allocs): a subsystem that makes its
// daemons or tables eagerly shows up here before it shows as setup_s.
func TestNewSystemAllocBudget(t *testing.T) {
	for _, c := range newSystemAllocBudgets {
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := madeleine.NewSystem(c.topo, c.opts...); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("NewSystem(%s): %.0f allocations (budget %.0f)", c.name, allocs, c.budget)
		if allocs > c.budget {
			t.Errorf("NewSystem(%s) allocates %.0f objects, budget %.0f", c.name, allocs, c.budget)
		}
	}
}

// setupScaleBudgets are the most bytes, in MiB, NewSystem may allocate
// building bench.ClusterOfClusters(clusters, members), streaming and under
// WithProduction (DESIGN.md §39). Before the route search expanded each
// network once, the 1 040-node builds allocated 587 and 56 MiB; they read
// 17.0 and 40.9 now (17.2 and 41.2 under the race detector), and their
// budgets are 48 and the old 56. The 136-node ones read 0.71 and 2.18 (0.75
// and 2.23), and their budgets are those readings under the race detector
// plus 15 %. At 1 040 nodes a node costs about three times what it costs at
// 136 when streaming: every source keeps its search tree, one step a node.
var setupScaleBudgets = []struct {
	clusters, members int
	reliable          bool
	mib               float64
}{
	{8, 16, false, 0.87},
	{16, 64, false, 48},
	{8, 16, true, 2.6},
	{16, 64, true, 56},
}

// TestSetupScaleAllocBudget fails when building a cluster of clusters costs
// more bytes than its budget (make allocs): a table or an index that grows
// faster than the node count shows up here at 1 040 nodes.
func TestSetupScaleAllocBudget(t *testing.T) {
	for _, c := range setupScaleBudgets {
		mode, opts := "streaming", []madeleine.Option(nil)
		if c.reliable {
			mode, opts = "WithProduction", []madeleine.Option{madeleine.WithProduction()}
		}
		config := bench.ClusterOfClusters(c.clusters, c.members)
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		if _, err := madeleine.NewSystem(config, opts...); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&m1)
		nodes := c.clusters * (c.members + 1)
		mib := float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
		t.Logf("NewSystem(%d nodes, %s): %.2f MiB, %.1f KiB a node (budget %.2f MiB)",
			nodes, mode, mib, mib*1024/float64(nodes), c.mib)
		if mib > c.mib {
			t.Errorf("NewSystem(%d nodes, %s) allocates %.2f MiB, budget %.2f", nodes, mode, mib, c.mib)
		}
	}
}

// bulkStreamAllocBudget is the most heap allocations one 1 MiB message of the
// Fig. 6 stream (a –sci– gw –myrinet– b, WithPaperFidelity, 32 KiB packets, 68
// link transfers) may cost across System.Run. It read 2 567 when every event,
// wake-up, flow and link transfer allocated, and 4.5 while the stream's Packing
// record, which held the header and first descriptors the relays read, was one
// a message, and 3.6–3.8 (3.7–3.9 under the race detector) once that record
// came off its channel's free list and every transfer's header and descriptors
// were the wire pool's (DESIGN.md §43): nothing a message, and the set-up the
// run amortizes over its 40 messages. It reads 3.1 (3.3–3.4 under the race
// detector) since a link's names are one string and the wait lists and free
// lists are chained through their records (DESIGN.md §42). The budget is the
// race detector's reading plus 15 %, rounded up: one more allocation a message
// does not fit, nor does one per fragment.
const bulkStreamAllocBudget = 4.0

// TestBulkStreamAllocBudget drives the facade the way the benchmark's
// bulk_stream workload does and fails when a message costs more allocations
// than the budget (make allocs).
func TestBulkStreamAllocBudget(t *testing.T) {
	const (
		msgs = 40
		size = 1 << 20
	)
	sys, err := madeleine.NewSystem(chainTopo, madeleine.WithPaperFidelity())
	if err != nil {
		t.Fatal(err)
	}
	tx, rx := make([]byte, size), make([]byte, size)
	for i := range tx {
		tx[i] = byte(i * 7)
	}
	sys.Spawn("send:a", func(p *madeleine.Proc) {
		ep := sys.At("a")
		for i := 0; i < msgs; i++ {
			px := ep.BeginPacking(p, "b")
			px.Pack(p, tx, madeleine.SendCheaper, madeleine.ReceiveCheaper)
			px.EndPacking(p)
		}
	})
	delivered := 0
	sys.Spawn("recv:b", func(p *madeleine.Proc) {
		ep := sys.At("b")
		for i := 0; i < msgs; i++ {
			u := ep.BeginUnpacking(p)
			u.Unpack(p, rx, madeleine.SendCheaper, madeleine.ReceiveCheaper)
			u.EndUnpacking(p)
			if rx[size-1] == tx[size-1] {
				delivered++
			}
		}
	})

	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&m1)
	if delivered != msgs {
		t.Fatalf("delivered %d of %d messages", delivered, msgs)
	}
	perMsg := float64(m1.Mallocs-m0.Mallocs) / msgs
	t.Logf("bulk stream: %.1f allocations per 1 MiB message (budget %.1f)", perMsg, bulkStreamAllocBudget)
	if perMsg > bulkStreamAllocBudget {
		t.Errorf("bulk stream allocates %.1f objects per message, budget %.1f", perMsg, bulkStreamAllocBudget)
	}
}

// bcastAllocBudget is the most heap allocations one 64 KiB fan-out-8
// message of the benchmark's bcast_fanout8 shape may cost across System.Run:
// root –up– gw1 –core– {c1..c4, gw2} –leaf– {l1..l4}, WithPaperFidelity, so
// gw1 replicates onto five branches and gw2 onto four, 18 fragment sends in
// all. It read 343 when every relay formatted its branch names and queues
// and allocated a packet record per fragment, and 15.4–15.9 (15.7–16.0 under
// the race detector, which does not pack small allocations together) while
// the multicast sender made its record, its destination list and one
// descriptor pair a block that no receiver could return, and 13.2 (13.5–13.6
// under the race detector) once the relays decoded and split destination sets
// in their rings' storage and shared header descriptors by length
// (DESIGN.md §37, §38), the sender's and the receivers' records came off their
// channel's free lists, the handles lived on the callers' stacks, and every
// transfer's descriptors were a pool pair its one receiver returns
// (DESIGN.md §43). It reads 11.0 (11.7 under the race detector) since a link's
// names are one string and the wait lists and free lists are chained through
// their records (DESIGN.md §42). What is left is the set-up the run amortizes
// over its 40 messages; once warm a multicast allocates nothing
// (TestMulticastWarmAllocsNothing). The budget is the race detector's reading
// plus 2 %: one more a message does not fit.
const bcastAllocBudget = 12.0

// TestBcastAllocBudget drives the facade the way the benchmark's
// bcast_fanout8 workload does and fails when a message costs more
// allocations than the budget (make allocs).
func TestBcastAllocBudget(t *testing.T) {
	const (
		msgs = 40
		size = 64 << 10
	)
	topo, dsts := bcastTopo()
	sys, err := madeleine.NewSystem(topo, madeleine.WithPaperFidelity())
	if err != nil {
		t.Fatal(err)
	}
	tx := make([]byte, size)
	for i := range tx {
		tx[i] = byte(i * 7)
	}
	sys.Spawn("send:root", func(p *madeleine.Proc) {
		ep := sys.At("root")
		for i := 0; i < msgs; i++ {
			px := ep.BeginMulticast(p, dsts...)
			px.Pack(p, tx, madeleine.SendCheaper, madeleine.ReceiveCheaper)
			px.EndPacking(p)
		}
	})
	delivered := 0
	for _, dst := range dsts {
		rx := make([]byte, size)
		sys.Spawn("recv:"+dst, func(p *madeleine.Proc) {
			ep := sys.At(dst)
			for i := 0; i < msgs; i++ {
				u := ep.BeginUnpacking(p)
				u.Unpack(p, rx, madeleine.SendCheaper, madeleine.ReceiveCheaper)
				u.EndUnpacking(p)
				if bytes.Equal(rx, tx) {
					delivered++
				}
			}
		})
	}

	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&m1)
	if delivered != msgs*len(dsts) {
		t.Fatalf("delivered %d of %d copies byte-exact", delivered, msgs*len(dsts))
	}
	perMsg := float64(m1.Mallocs-m0.Mallocs) / msgs
	t.Logf("broadcast: %.1f allocations per 64 KiB fan-out-8 message (budget %.1f)", perMsg, bcastAllocBudget)
	if perMsg > bcastAllocBudget {
		t.Errorf("broadcast allocates %.1f objects per message, budget %.1f", perMsg, bcastAllocBudget)
	}
}

// prodLossyTopo is the prod_lossy_mix shape: flows senders a00.. on SCI and
// as many receivers b00.. on Myrinet, two gateways bridging both, 1 % loss.
func prodLossyTopo(flows int) string {
	var topo strings.Builder
	topo.WriteString("network sci0 sci\nnetwork myri0 myrinet\n")
	for i := 0; i < flows; i++ {
		fmt.Fprintf(&topo, "node a%02d sci0\n", i)
	}
	for i := 0; i < flows; i++ {
		fmt.Fprintf(&topo, "node b%02d myri0\n", i)
	}
	topo.WriteString("node gw1 sci0 myri0\nnode gw2 sci0 myri0\nfault seed 7\nfault drop * 0.01\n")
	return topo.String()
}

// prodLossyAllocBudget is the most heap allocations one message of the
// benchmark's prod_lossy_mix shape may cost across System.Run: WithProduction
// (reliable ARQ, aggregation, two rails, health probes), sixteen flows of mixed
// sizes across two gateways, 1 % loss. It read 517 when every packet was
// encoded into fresh memory twice per hop, every relayed packet could rebuild
// an all-pairs route table and every await allocated its slot, waker and
// timeout closure (DESIGN.md §17); it read 31.3 when every striped message
// allocated its split, its rail runs and a process per extra rail and every
// message its packet list (DESIGN.md §28), and 28.5 while every message
// allocated its handles apart from its framing records, and a block list, and
// every sink reassembled a frame into fresh memory (DESIGN.md §29). It read
// 23.2 while each of the 612 links the run brings up cost about twenty
// allocations and every K-route search ninety (DESIGN.md §42), and 11.2 (11.4
// under the race detector) while every message allocated its Packing and its
// Unpacking record, and 9.2 (9.4 under the race detector) once both came off
// their channel's free lists (DESIGN.md §43). It reads 6.5 (6.8 under the race
// detector) since bring-up costs only what it keeps (DESIGN.md §42): a link's
// names are one string, a wait list's and a free list's spare records are
// chained through the records, and the reliable engine's duplicate window,
// hop-ack lists and probe queues are allocated once, at their size. It reads 6.3
// (6.5 under the race detector) since a completion slot's timeout is the
// engine's one callback, not a method value of its own, and control datagrams
// leave from the code that makes them, with no queues and no daemons. Per
// message remains, for one too large to coalesce, the decoded descriptor; a
// frame's buffers come from the wire pool at the coalescer and at the sink.
// The rest is what the run builds on first use and amortizes over its 960
// messages: links at two allocations each, route rows, rail sets, send daemons
// and their records. The budget is the race detector's reading plus 15 %,
// rounded up to a tenth, so a return of per-link costs, or of the two records,
// fails it.
const prodLossyAllocBudget = 7.5

// TestProdLossyAllocBudget drives the facade the way the benchmark's
// prod_lossy_mix workload does and fails when a message costs more
// allocations than the budget (make allocs).
func TestProdLossyAllocBudget(t *testing.T) {
	const (
		flows   = 16
		perFlow = 60
	)
	sys, err := madeleine.NewSystem(prodLossyTopo(flows), madeleine.WithProduction())
	if err != nil {
		t.Fatal(err)
	}

	// 50 % 64-1023 B, 30 % 4-16 KiB, 20 % 128-256 KiB, like mixedSizes.
	rng := rand.New(rand.NewSource(1))
	sizeOf := func() int {
		switch c := rng.Intn(10); {
		case c < 5:
			return 64 + rng.Intn(960)
		case c < 8:
			return 4<<10 + rng.Intn(12<<10)
		default:
			return 128<<10 + rng.Intn(128<<10)
		}
	}
	pat := make([]byte, 256<<10+perFlow)
	rng.Read(pat)
	delivered := 0
	for f := 0; f < flows; f++ {
		src, dst := fmt.Sprintf("a%02d", f), fmt.Sprintf("b%02d", f)
		sizes := make([]int, perFlow)
		for i := range sizes {
			sizes[i] = sizeOf()
		}
		sys.Spawn("send:"+src, func(p *madeleine.Proc) {
			ep := sys.At(src)
			for i, n := range sizes {
				px := ep.BeginPacking(p, dst)
				px.Pack(p, pat[i:i+n], madeleine.SendCheaper, madeleine.ReceiveCheaper)
				px.EndPacking(p)
			}
		})
		rx := make([]byte, 256<<10)
		sys.Spawn("recv:"+dst, func(p *madeleine.Proc) {
			ep := sys.At(dst)
			for i, n := range sizes {
				u := ep.BeginUnpacking(p)
				u.Unpack(p, rx[:n], madeleine.SendCheaper, madeleine.ReceiveCheaper)
				u.EndUnpacking(p)
				if bytes.Equal(rx[:n], pat[i:i+n]) {
					delivered++
				}
			}
		})
	}

	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&m1)
	const msgs = flows * perFlow
	if delivered != msgs {
		t.Fatalf("delivered %d of %d messages byte-exact and in order", delivered, msgs)
	}
	perMsg := float64(m1.Mallocs-m0.Mallocs) / msgs
	kib := float64(m1.TotalAlloc-m0.TotalAlloc) / msgs / 1024
	t.Logf("prod lossy mix: %.1f allocations, %.1f KiB per message (budget %.1f)", perMsg, kib, prodLossyAllocBudget)
	if perMsg > prodLossyAllocBudget {
		t.Errorf("prod lossy mix allocates %.1f objects per message, budget %.1f", perMsg, prodLossyAllocBudget)
	}
}

// miceStream drives the facade the way the benchmark's mice_stream and
// mice_stream_observed workloads do — 64 B messages back to back over
// a –sci– gw –myrinet– b with eager framing and aggregation — and returns
// the allocations a message cost across System.Run.
func miceStream(t *testing.T, msgs int, opts ...madeleine.Option) float64 {
	const size = 64
	opts = append(opts, madeleine.WithEagerSmallMessages(), madeleine.WithAggregation())
	sys, err := madeleine.NewSystem(`network sci0 sci
network myri0 myrinet
node a sci0
node gw sci0 myri0
node b myri0
`, opts...)
	if err != nil {
		t.Fatal(err)
	}
	tx, rx := make([]byte, size), make([]byte, size)
	for i := range tx {
		tx[i] = byte(i * 7)
	}
	sys.Spawn("send:a", func(p *madeleine.Proc) {
		ep := sys.At("a")
		for i := 0; i < msgs; i++ {
			px := ep.BeginPacking(p, "b")
			px.Pack(p, tx, madeleine.SendCheaper, madeleine.ReceiveCheaper)
			px.EndPacking(p)
		}
	})
	delivered := 0
	sys.Spawn("recv:b", func(p *madeleine.Proc) {
		ep := sys.At("b")
		for i := 0; i < msgs; i++ {
			u := ep.BeginUnpacking(p)
			u.Unpack(p, rx, madeleine.SendCheaper, madeleine.ReceiveCheaper)
			u.EndUnpacking(p)
			if bytes.Equal(rx, tx) {
				delivered++
			}
		}
	})
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&m1)
	if delivered != msgs {
		t.Fatalf("delivered %d of %d messages byte-exact", delivered, msgs)
	}
	if m := sys.Metrics(); m != nil && len(m.Hops()) < 2*msgs {
		t.Fatalf("the armed run recorded %d hops for %d messages; the budget would be vacuous", len(m.Hops()), msgs)
	}
	return float64(m1.Mallocs-m0.Mallocs) / float64(msgs)
}

// miceStreamAllocBudget is the most heap allocations one message of the
// benchmark's mice_stream shape may cost, disarmed. It read 5.0 when a
// message allocated its Packing and Unpacking pairs and its block list (the
// frames, full ones of 32 KiB, amortizing), and 2.01 (DESIGN.md §29) while it
// allocated the Packing and the Unpacking record, each holding its handle. It
// reads 0.0100–0.0106, under the race detector too, since the handles live on
// the callers' stacks and the records come off their channel's free lists
// (DESIGN.md §43): nothing a message, and the run's set-up amortized over its
// 20 000. The budget is the reading plus 15 %, rounded up: one more
// allocation every hundred messages does not fit.
const miceStreamAllocBudget = 0.02

// TestMiceStreamAllocBudget fails when a message of the mice stream costs more
// allocations than the budget (make allocs).
func TestMiceStreamAllocBudget(t *testing.T) {
	perMsg := miceStream(t, 20000)
	t.Logf("mice stream: %.4f allocations per message (budget %.2f)", perMsg, miceStreamAllocBudget)
	if perMsg > miceStreamAllocBudget {
		t.Errorf("mice stream allocates %.4f objects per message, budget %.2f", perMsg, miceStreamAllocBudget)
	}
}

// TestMiceObservedAllocBudget runs the mice stream once disarmed and once with
// WithMetrics and WithTracer, and fails when arming costs a message more than
// two allocations (make allocs). It read 40 more when every counted event
// rebuilt its series key and every hop record formatted its sentence
// (DESIGN.md §19); what is left is amortised: hop chunks, the span slice, and
// the series bound by the first write.
func TestMiceObservedAllocBudget(t *testing.T) {
	const msgs, extra = 20000, 2
	disarmed := miceStream(t, msgs)
	armed := miceStream(t, msgs, madeleine.WithMetrics(madeleine.NewMetrics()), madeleine.WithTracer(madeleine.NewTracer()))
	t.Logf("mice stream: %.2f allocations per message disarmed, %.2f observed (budget: disarmed + %d)", disarmed, armed, extra)
	if armed > disarmed+extra {
		t.Errorf("observing a mice stream costs %.2f allocations per message over the disarmed %.2f, budget %d", armed-disarmed, disarmed, extra)
	}
}

// TestMessageHandlesAllocsNothing fails when 1 000 messages of 64 B over a
// warm a –sci– gw –myrinet– b aggregated system allocate anything but
// amortised growth (make allocs). A handle lives on its caller's stack where
// the compiler inlines the Begin call, and the framing record behind it comes
// off its virtual channel's free list (DESIGN.md §43); a message allocated
// two, its Packing and its Unpacking record, before. What is left reads 2 in
// all: a free list or a queue growing to a new high-water mark now and then.
func TestMessageHandlesAllocsNothing(t *testing.T) {
	const msgs = 1000
	tx := make([]byte, 64)
	allocs := warmAllocs(t, chainTopo, 8000, msgs, [][]byte{tx}, madeleine.WithEagerSmallMessages(), madeleine.WithAggregation())
	perMsg := float64(allocs) / msgs
	t.Logf("%d messages on a warm system: %d allocations, %.3f a message", msgs, allocs, perMsg)
	if perMsg >= 0.05 {
		t.Errorf("a message on a warm system allocates %.3f objects, want 0 (amortised)", perMsg)
	}
}

// TestStreamMessagesAllocsNothing is TestMessageHandlesAllocsNothing for the
// streamed framings across the same chain (make allocs): 200 messages of
// 64 KiB in two blocks in the seed framing (WithPaperFidelity), and 1 000
// eager messages of one fragment that outgrow a frame, which also holds its
// own header and entry, and spill to the compact stream: 1 KiB at an MTU of
// 1 KiB + 20 B, sharing the header's transfer, and 8 KiB at an MTU of 8 KiB,
// whose header travels alone; 1 000 coalesced messages of four 1 KiB blocks;
// and 1 000 eager messages of 8 KiB at an MTU of 4 KiB, whose second fragment
// reaches b before b posts its receive. A stream's Packing record comes off its
// free list, its headers and an eager frame are wire-pool buffers and every
// transfer's descriptors a pool pair, all returned by the final receiver
// (DESIGN.md §43), so a warm system allocates nothing a message; the seed
// framing's record was 144 bytes a message before. A buffered message's record
// keeps its block list's storage: four blocks read 2.006 allocations a message
// when it was dropped. A fragment that lands in driver memory does so in a
// landing slot of the wire pool, which the receive returns when it copies the
// fragment out: the 8 KiB messages read 1.000 allocations a message while
// every one took fresh memory. The striped
// rows send 128 KiB over a dual-rail pair and 2 × 64 KiB through the two
// gateways of a diamond under WithStriping(2): the sender's record holds the
// rails and their split, the sink's one record a stream a rail, and each side
// takes a crew of rail daemons off its node's free list, so they read nothing
// either; both read 15.0 while the split, the rails' readers and the crew's
// variable were built per message. The sbp-ingress rows send 1 KiB and 32 KiB
// in the seed framing across a –sbp– gw –myrinet– b: gw relays each fragment
// from the SBP landing slot it was handed, a buffer of the wire pool its
// recycling returns, where it read 1.006 and 1.010 while each slot was new
// driver memory that never came back.
func TestStreamMessagesAllocsNothing(t *testing.T) {
	striped := []madeleine.Option{madeleine.WithPaperFidelity(), madeleine.WithStriping(2)}
	for _, c := range []struct {
		name        string
		topo        string
		warm, msgs  int
		blocks, per int
		opts        []madeleine.Option
	}{
		{"seed-64KiB-2blocks", chainTopo, 200, 200, 2, 32 << 10, []madeleine.Option{madeleine.WithPaperFidelity()}},
		{"eager-1KiB-glued", chainTopo, 2000, 1000, 1, 1 << 10, []madeleine.Option{madeleine.WithEagerSmallMessages(), madeleine.WithMTU(1<<10 + 20)}},
		{"eager-8KiB-header-alone", chainTopo, 2000, 1000, 1, 8 << 10, []madeleine.Option{madeleine.WithEagerSmallMessages(), madeleine.WithMTU(8 << 10)}},
		{"eager-4x1KiB-coalesced", chainTopo, 2000, 1000, 4, 1 << 10, []madeleine.Option{madeleine.WithEagerSmallMessages()}},
		{"eager-8KiB-at-4KiB-MTU", chainTopo, 2000, 1000, 1, 8 << 10, []madeleine.Option{madeleine.WithEagerSmallMessages(), madeleine.WithMTU(4 << 10)}},
		{"striped-128KiB-dual-rail", dualRailTopo, 200, 500, 1, 128 << 10, striped},
		{"striped-2x64KiB-diamond", diamondTopo, 200, 500, 2, 64 << 10, striped},
		{"sbp-ingress-1KiB", sbpChainTopo, 200, 1000, 1, 1 << 10, []madeleine.Option{madeleine.WithPaperFidelity()}},
		{"sbp-ingress-32KiB", sbpChainTopo, 200, 1000, 1, 32 << 10, []madeleine.Option{madeleine.WithPaperFidelity()}},
	} {
		t.Run(c.name, func(t *testing.T) {
			blocks := make([][]byte, c.blocks)
			for i := range blocks {
				blocks[i] = make([]byte, c.per)
			}
			allocs := warmAllocs(t, c.topo, c.warm, c.msgs, blocks, c.opts...)
			perMsg := float64(allocs) / float64(c.msgs)
			t.Logf("%d messages on a warm system: %d allocations, %.3f a message", c.msgs, allocs, perMsg)
			if perMsg >= 0.05 {
				t.Errorf("a message on a warm system allocates %.3f objects, want 0 (amortised)", perMsg)
			}
		})
	}
}

// TestDirectMessageWarmAllocBudget pins what a warm direct message — a and b
// on one network, so the facade hands it to the network's regular channel —
// allocates, under each option set that keeps messages on that channel (make
// allocs): 1 000 messages of 64 B and of 32 KiB on SCI and on SBP. What is
// left is the message's own records (Packing with its packer, Unpacking), its
// block descriptors, and on SBP the static buffer the sender's BMM asks the
// driver for at every flush: 4.0 a message on SCI, 5.0 on SBP. They read 8.0
// (64 B) and 7.0 (32 KiB) on SCI and 9.0 on SBP while Channel.At made an
// endpoint for every message, the aggregating BMM made its aggregate afresh,
// the unpacker was a record of its own, AllocStatic wrapped its buffer in a
// record and every SBP landing slot was new driver memory. The budget is the reading plus the 0.05 of amortised
// growth the AllocsNothing rows allow.
func TestDirectMessageWarmAllocBudget(t *testing.T) {
	const sciPair, sbpPair = "network s sci\nnode a s\nnode b s\n", "network s sbp\nnode a s\nnode b s\n"
	sets := []struct {
		name string
		opts []madeleine.Option
	}{
		{"default", nil},
		{"paper", []madeleine.Option{madeleine.WithPaperFidelity()}},
		{"eager", []madeleine.Option{madeleine.WithEagerSmallMessages()}},
	}
	for _, c := range []struct {
		name, topo string
		budget     float64
	}{{"sci", sciPair, 4.05}, {"sbp", sbpPair, 5.05}} {
		for _, size := range []int{64, 32 << 10} {
			for _, set := range sets {
				t.Run(fmt.Sprintf("%s-%dB-%s", c.name, size, set.name), func(t *testing.T) {
					const msgs = 1000
					perMsg := float64(warmAllocs(t, c.topo, 200, msgs, [][]byte{make([]byte, size)}, set.opts...)) / msgs
					t.Logf("%d messages on a warm pair: %.3f allocations a message (budget %.2f)", msgs, perMsg, c.budget)
					if perMsg > c.budget {
						t.Errorf("a warm direct message allocates %.3f objects, budget %.2f", perMsg, c.budget)
					}
				})
			}
		}
	}
}

// warmAllocs sends warm+msgs messages of blocks from a to b on a system of
// topo built with opts, driving the facade the way the benchmark's
// harness does — BeginPacking, Pack and EndPacking on one process,
// BeginUnpacking, Unpack and EndUnpacking on another, in the bodies of the
// spawned functions — and returns what the last msgs allocated. The receiver
// reads the allocation count once the warm-up has filled every
// flight-recorder ring and free list and is delivered, and again after the
// last message; the sender waits for the first reading before it sends the
// msgs, so both sides of each are counted and what the kernel costs to start
// and stop a run is not. Every message must arrive byte-exact.
func warmAllocs(t *testing.T, topo string, warm, msgs int, blocks [][]byte, opts ...madeleine.Option) uint64 {
	t.Helper()
	sys, err := madeleine.NewSystem(topo, opts...)
	if err != nil {
		t.Fatal(err)
	}
	rx := make([][]byte, len(blocks))
	for i, b := range blocks {
		for j := range b {
			b[j] = byte(j*7 + i)
		}
		rx[i] = make([]byte, len(b))
	}
	warmed := vsync.NewSem(0)
	sys.Spawn("send:a", func(p *madeleine.Proc) {
		ep := sys.At("a")
		for i := 0; i < warm+msgs; i++ {
			if i == warm {
				warmed.Acquire(p, 1)
			}
			px := ep.BeginPacking(p, "b")
			for _, b := range blocks {
				px.Pack(p, b, madeleine.SendCheaper, madeleine.ReceiveCheaper)
			}
			px.EndPacking(p)
		}
	})
	var m0, m1 runtime.MemStats
	delivered := 0
	sys.Spawn("recv:b", func(p *madeleine.Proc) {
		ep := sys.At("b")
		for i := 0; i < warm+msgs; i++ {
			if i == warm {
				runtime.ReadMemStats(&m0)
				warmed.Release(1)
			}
			u := ep.BeginUnpacking(p)
			exact := true
			for j, b := range blocks {
				u.Unpack(p, rx[j], madeleine.SendCheaper, madeleine.ReceiveCheaper)
				exact = exact && bytes.Equal(rx[j], b)
			}
			u.EndUnpacking(p)
			if exact {
				delivered++
			}
		}
		runtime.ReadMemStats(&m1)
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if delivered != warm+msgs {
		t.Fatalf("delivered %d of %d messages byte-exact", delivered, warm+msgs)
	}
	return m1.Mallocs - m0.Mallocs
}

// TestMulticastWarmAllocsNothing is TestStreamMessagesAllocsNothing for the
// multicast fork (make allocs): multicasts from root to the eight leaves of a
// warm bcast_fanout8 tree under WithPaperFidelity, 1 000 of 64 KiB, streamed,
// and 1 000 of 1 KiB, one compact frame a branch; and 1 000 of 64 KiB with gw1
// a destination too, which keeps its own copy of every fragment as it relays
// it. The sender's record comes off its free list with its destination and
// block lists, every transfer's descriptors are a pool pair and every frame
// and gateway copy a pool buffer, each returned by its one receiver — a
// replicating gateway gives each branch a pair and a frame of its own
// (DESIGN.md §43) — so a warm tree allocates nothing a multicast. The rows
// read 3.015, 31.013 and 5.015 allocations a multicast before.
func TestMulticastWarmAllocsNothing(t *testing.T) {
	_, leaves := bcastTopo()
	for _, c := range []struct {
		name       string
		warm, msgs int
		size       int
		dsts       []string
	}{
		{"streamed-64KiB", 200, 1000, 64 << 10, leaves},
		{"compact-1KiB", 1000, 1000, 1 << 10, leaves},
		{"gw1-a-destination", 200, 1000, 64 << 10, append([]string{"gw1"}, leaves...)},
	} {
		t.Run(c.name, func(t *testing.T) {
			allocs := warmMulticastAllocs(t, c.warm, c.msgs, c.size, c.dsts)
			perMsg := float64(allocs) / float64(c.msgs)
			t.Logf("%d multicasts on a warm tree: %d allocations, %.3f a multicast", c.msgs, allocs, perMsg)
			if perMsg >= 0.05 {
				t.Errorf("a multicast on a warm tree allocates %.3f objects, want 0 (amortised)", perMsg)
			}
		})
	}
}

// warmMulticastAllocs is warmAllocs for warm+msgs multicasts of size bytes
// from root to dsts on the bcast_fanout8 tree under WithPaperFidelity: a
// third process reads the allocation count once every destination has the
// warm-up, and again once every one has the last, and the sender waits for
// the first reading before it sends the msgs.
func warmMulticastAllocs(t *testing.T, warm, msgs, size int, dsts []string) uint64 {
	t.Helper()
	topo, _ := bcastTopo()
	sys, err := madeleine.NewSystem(topo, madeleine.WithPaperFidelity())
	if err != nil {
		t.Fatal(err)
	}
	tx := make([]byte, size)
	for i := range tx {
		tx[i] = byte(i * 7)
	}
	arrived, warmed, done := vsync.NewSem(0), vsync.NewSem(0), vsync.NewSem(0)
	var m0, m1 runtime.MemStats
	sys.Spawn("count", func(p *madeleine.Proc) {
		arrived.Acquire(p, len(dsts))
		runtime.ReadMemStats(&m0)
		warmed.Release(1)
		done.Acquire(p, len(dsts))
		runtime.ReadMemStats(&m1)
	})
	sys.Spawn("send:root", func(p *madeleine.Proc) {
		ep := sys.At("root")
		for i := 0; i < warm+msgs; i++ {
			if i == warm {
				warmed.Acquire(p, 1)
			}
			px := ep.BeginMulticast(p, dsts...)
			px.Pack(p, tx, madeleine.SendCheaper, madeleine.ReceiveCheaper)
			px.EndPacking(p)
		}
	})
	delivered := 0
	for _, dst := range dsts {
		rx := make([]byte, size)
		sys.Spawn("recv:"+dst, func(p *madeleine.Proc) {
			ep := sys.At(dst)
			for i := 0; i < warm+msgs; i++ {
				if i == warm {
					arrived.Release(1)
				}
				u := ep.BeginUnpacking(p)
				u.Unpack(p, rx, madeleine.SendCheaper, madeleine.ReceiveCheaper)
				u.EndUnpacking(p)
				if bytes.Equal(rx, tx) {
					delivered++
				}
			}
			done.Release(1)
		})
	}
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if want := (warm + msgs) * len(dsts); delivered != want {
		t.Fatalf("delivered %d of %d copies byte-exact", delivered, want)
	}
	return m1.Mallocs - m0.Mallocs
}

// micePingpongAllocBudget is the most heap allocations one message of the
// benchmark's mice_pingpong shape may cost across System.Run: 64 B round
// trips a –sci– gw –myrinet– b with eager framing and aggregation, one
// message outstanding, so every message is a frame of its own and what
// a frame costs shows undiluted. It read 9.0 when a message allocated its
// Packing and Unpacking pairs (4) and its block list, and a frame the
// builder's re-armed buffer, its descriptor array and the link's copy of it
// at the gateway and at the sink. It read 2.03 and 0.34 KiB (DESIGN.md §29)
// while a message allocated the Packing and the Unpacking record, each
// holding its handle, the first with its first block — and per frame
// nothing: the buffer and its descriptor pair come from the wire pool and go
// back there from the sink that ends its last sub-message, and the link hands
// them over at every hop (mad.TxMeta.Owned). Nothing either for the
// hand-over to the flush daemon (the sealed frame is a local of its flush),
// for the sink's queue of sub-messages (it reads them off the frame, DESIGN.md
// §24) nor, since DESIGN.md §27, for the frame's reader, a value the sink
// keeps in place. Since the records come off their channel's free lists
// (DESIGN.md §43) it reads 2.03 and 0.14 KiB, and that is what this test
// measures: the fallback when a handle is not on its caller's stack. The
// compiler inlines the side helper at both its calls, cloning the spawned
// function, and does not inline BeginPacking or BeginUnpacking into the
// clone, so each returns its handle, about 48 bytes, on the heap: two a
// message, a Packing and an Unpacking, and no record. With side kept out of
// line it reads 0.03. The
// budget is the reading plus 15 %, rounded up: one more per message does not
// fit.
const micePingpongAllocBudget = 2.4

// TestMicePingpongAllocBudget drives the facade the way the benchmark's
// mice_pingpong workload does and fails when a message costs more allocations
// than the budget (make allocs).
func TestMicePingpongAllocBudget(t *testing.T) {
	const (
		trips = 5000
		size  = 64
	)
	sys, err := madeleine.NewSystem(`network sci0 sci
network myri0 myrinet
node a sci0
node gw sci0 myri0
node b myri0
`, madeleine.WithEagerSmallMessages(), madeleine.WithAggregation())
	if err != nil {
		t.Fatal(err)
	}
	tx := make([]byte, size)
	for i := range tx {
		tx[i] = byte(i * 7)
	}
	echoed := 0
	// side sends to peer first when it serves, and answers what it receives.
	side := func(name, peer string, serve bool) {
		rx := make([]byte, size)
		sys.Spawn("pingpong:"+name, func(p *madeleine.Proc) {
			ep := sys.At(name)
			for i := 0; i < trips; i++ {
				if serve {
					px := ep.BeginPacking(p, peer)
					px.Pack(p, tx, madeleine.SendCheaper, madeleine.ReceiveCheaper)
					px.EndPacking(p)
				}
				u := ep.BeginUnpacking(p)
				u.Unpack(p, rx, madeleine.SendCheaper, madeleine.ReceiveCheaper)
				u.EndUnpacking(p)
				if bytes.Equal(rx, tx) {
					echoed++
				}
				if !serve {
					px := ep.BeginPacking(p, peer)
					px.Pack(p, rx, madeleine.SendCheaper, madeleine.ReceiveCheaper)
					px.EndPacking(p)
				}
			}
		})
	}
	side("a", "b", true)
	side("b", "a", false)

	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&m1)
	const msgs = 2 * trips
	if echoed != msgs {
		t.Fatalf("%d of %d messages arrived byte-exact", echoed, msgs)
	}
	perMsg := float64(m1.Mallocs-m0.Mallocs) / msgs
	kib := float64(m1.TotalAlloc-m0.TotalAlloc) / msgs / 1024
	t.Logf("mice pingpong: %.2f allocations, %.2f KiB per message (budget %.1f)", perMsg, kib, micePingpongAllocBudget)
	if perMsg > micePingpongAllocBudget {
		t.Errorf("mice pingpong allocates %.2f objects per message, budget %.1f", perMsg, micePingpongAllocBudget)
	}
}

// incastAllocBudget and incastKiBBudget are the most heap allocations and KiB
// one message of the benchmark's incast64 shape may cost across System.Run: 64
// senders through one gateway, 8 of them elephants. They read 3.73 and 5.57 KiB
// when every node's first event allocated a ring of 4 096 72-byte events, and
// 1.41 and 0.83 while the stream's Packing record was one a message, and 0.45
// and 0.692, under the race detector too, since that record comes off its
// channel's free list (DESIGN.md §43), and 0.41 and 0.684 (0.685 under the race
// detector) once the run kept no credit accounts (DESIGN.md §13). They read
// 0.33 and 0.684, under the race detector too, since bringing a link up costs
// one string for its names and a wait list's first waiters only their records
// (DESIGN.md §42): a sender's ring (40–192 events) holds the first of its four
// 32 KiB chunks, the gateway's all four, the sink records nothing, and the rest
// is set-up the run amortizes. The budgets are the race detector's readings
// plus 15 %, rounded up: one more allocation a message does not fit, nor does a
// second chunk on every sender's ring.
const (
	incastAllocBudget = 0.38
	incastKiBBudget   = 0.79
)

// TestIncastAllocBudget drives the facade the way the benchmark's incast64
// workload does and fails when a message costs more allocations or more
// allocated bytes than the budgets (make allocs).
func TestIncastAllocBudget(t *testing.T) {
	const (
		senders       = 64
		elephantEvery = 8 // s00, s08, ...: 8 elephants
		elephantMsgs  = 4
		elephantSize  = 256 << 10
		mouseMsgs     = 64
		mouseSize     = 16 << 10
	)
	sys, err := madeleine.NewSystem(incastTopo(senders))
	if err != nil {
		t.Fatal(err)
	}
	pat := make([]byte, elephantSize)
	for i := range pat {
		pat[i] = byte(i * 7)
	}
	sizeOf := map[madeleine.Rank]int{}
	msgs := 0
	for i := 0; i < senders; i++ {
		src := fmt.Sprintf("s%02d", i)
		n, size := mouseMsgs, mouseSize
		if i%elephantEvery == 0 {
			n, size = elephantMsgs, elephantSize
		}
		sizeOf[sys.Rank(src)] = size
		msgs += n
		sys.Spawn("send:"+src, func(p *madeleine.Proc) {
			ep := sys.At(src)
			for j := 0; j < n; j++ {
				px := ep.BeginPacking(p, "sink")
				px.Pack(p, pat[:size], madeleine.SendCheaper, madeleine.ReceiveCheaper)
				px.EndPacking(p)
			}
		})
	}
	delivered := 0
	rx := make([]byte, elephantSize)
	sys.Spawn("recv:sink", func(p *madeleine.Proc) {
		ep := sys.At("sink")
		for j := 0; j < msgs; j++ {
			u := ep.BeginUnpacking(p)
			n := sizeOf[u.From()]
			u.Unpack(p, rx[:n], madeleine.SendCheaper, madeleine.ReceiveCheaper)
			u.EndUnpacking(p)
			if bytes.Equal(rx[:n], pat[:n]) {
				delivered++
			}
		}
	})

	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&m1)
	if delivered != msgs {
		t.Fatalf("delivered %d of %d messages byte-exact", delivered, msgs)
	}
	perMsg := float64(m1.Mallocs-m0.Mallocs) / float64(msgs)
	kib := float64(m1.TotalAlloc-m0.TotalAlloc) / float64(msgs) / 1024
	t.Logf("incast: %.2f allocations, %.3f KiB per message (budgets %.2f, %.2f)", perMsg, kib, incastAllocBudget, incastKiBBudget)
	if perMsg > incastAllocBudget {
		t.Errorf("incast allocates %.2f objects per message, budget %.2f", perMsg, incastAllocBudget)
	}
	if kib > incastKiBBudget {
		t.Errorf("incast allocates %.3f KiB per message, budget %.2f", kib, incastKiBBudget)
	}
}
