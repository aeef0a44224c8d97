package madeleine_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	madeleine "madgo"
)

// chainTopo is the Fig. 6 chain: a –sci– gw –myrinet– b.
const chainTopo = `network sci0 sci
network myri0 myrinet
node a sci0
node gw sci0 myri0
node b myri0
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

// newSystemAllocBudgets are the most heap allocations NewSystem may cost for
// the chain under WithPaperFidelity and for the incast64 shape under
// WithFlowControl: the readings before every streaming gateway relayed
// through a fair daemon (DESIGN.md §32) plus 2 %, taken under the race
// detector, which does not pack small allocations (307 and 9 380; 295 and
// 9 178 without it). They read 292 and 9 125–9 138 now (305 and 9 340 under
// the race detector), because a gateway's ring, its DRR and its fair daemon
// are made on its network's first announcement; making them at build reads
// 345 and about 9 193.
var newSystemAllocBudgets = []struct {
	name   string
	topo   string
	opt    madeleine.Option
	budget float64
}{
	{"chain", chainTopo, madeleine.WithPaperFidelity(), 313},
	{"incast64", incastTopo(64), madeleine.WithFlowControl(), 9568},
}

// TestNewSystemAllocBudget fails when building a system costs more
// allocations than its budget (make allocs): a subsystem that makes its
// daemons or tables eagerly shows up here before it shows as setup_s.
func TestNewSystemAllocBudget(t *testing.T) {
	for _, c := range newSystemAllocBudgets {
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := madeleine.NewSystem(c.topo, c.opt); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("NewSystem(%s): %.0f allocations (budget %.0f)", c.name, allocs, c.budget)
		if allocs > c.budget {
			t.Errorf("NewSystem(%s) allocates %.0f objects, budget %.0f", c.name, allocs, c.budget)
		}
	}
}

// bulkStreamAllocBudget is the most heap allocations one 1 MiB message of
// the Fig. 6 stream (a –sci– gw –myrinet– b, WithPaperFidelity, 32 KiB
// packets, 68 link transfers) may cost across System.Run. It read 2 567 when
// every event, wake-up, flow and link transfer allocated, 24 when the kernel
// stopped, 11.6 when the gateway's send process was one record on a recycled
// goroutine (DESIGN.md §20) and 10.7 when the send thread became a daemon of
// the egress link (DESIGN.md §23). It read 6.8 (3.1 at the benchmark's 1 000
// messages, where the start-up amortizes) now that buffers change hands
// (DESIGN.md §29). It read 7.3 (3.17 at 1 000 messages) once the gateway
// relayed through a fair daemon (DESIGN.md §32), whose ring and DRR it makes
// on the first announcement: about 20 allocations the run amortizes. It reads
// 6.3–6.4 (2.18 at 1 000 messages) since the header is a wire-pool buffer
// handed on hop by hop (DESIGN.md §36): per message the Packing and the
// Unpacking record, each holding its handle and its first block's
// descriptors, and nothing at the gateway, where the link used to copy the
// header re-emitted from a header cell. The budget is the reading plus 15 %,
// rounded up: one more allocation a message fits, two do not, nor does one
// per fragment.
const bulkStreamAllocBudget = 7.4

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
// and allocated a packet record per fragment, 191 before the kernel recycled
// goroutines, 142 while every branch spawned a send process and 134 while
// every relay partitioned its destination set into fresh maps, groups and
// rank lists, every branch header allocated its descriptor and every header
// was copied into driver memory. It reads 50.0 (58.6 under the race detector,
// which does not pack small allocations together; DESIGN.md §29): per branch
// its header (9), per receiver its Unpacking record (8) and its decoded
// destination set, at the root the message's Packing record, its plan lookup,
// header and descriptors, and the set-up the run amortizes over its 40
// messages. The relays decode and split destination sets in their rings'
// storage and share header descriptors by length. Since every gateway relays
// through a fair daemon (DESIGN.md §32) it reads 50.9 (60.0 under the race
// detector): each of the two gateways makes its ring's DRR and daemon on the
// first announcement, about 18 allocations the 40 messages amortize. Since a
// multicast header is a wire-pool buffer (DESIGN.md §37) it reads 30.0–30.4
// (31.2–31.5 under the race detector): no branch header, no decoded set at a
// sink, no plan key and no rank list at the root, whose destination list is
// sorted and compacted where a map deduplicated it. Since the root splits
// its destinations by next hop as every gateway does (DESIGN.md §38) it reads
// 28.4–28.6 (29.1–29.9 under the race detector): no tree plan, whose one-time
// build the 40 messages amortized, and a destination list of 4-byte ranks, not
// names. The budget is the race detector's reading plus 2 %, the reading plus
// 7 %: one more per branch, or per receiver, does not fit.
const bcastAllocBudget = 30.5

// TestBcastAllocBudget drives the facade the way the benchmark's
// bcast_fanout8 workload does and fails when a message costs more
// allocations than the budget (make allocs).
func TestBcastAllocBudget(t *testing.T) {
	const (
		msgs = 40
		size = 64 << 10
	)
	var topo strings.Builder
	topo.WriteString("network up sci\nnetwork core myrinet\nnetwork leaf sci\nnode root up\nnode gw1 up core\n")
	var dsts []string
	for i := 1; i <= 4; i++ {
		fmt.Fprintf(&topo, "node c%d core\n", i)
		dsts = append(dsts, fmt.Sprintf("c%d", i))
	}
	topo.WriteString("node gw2 core leaf\n")
	for i := 1; i <= 4; i++ {
		fmt.Fprintf(&topo, "node l%d leaf\n", i)
		dsts = append(dsts, fmt.Sprintf("l%d", i))
	}
	sys, err := madeleine.NewSystem(topo.String(), madeleine.WithPaperFidelity())
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

// prodLossyAllocBudget is the most heap allocations one message of the
// benchmark's prod_lossy_mix shape may cost across System.Run:
// WithProduction (reliable ARQ, aggregation, credits, two rails, health
// probes), sixteen flows of mixed sizes across two gateways, 1 % loss. It
// read 517 when every packet was encoded into fresh memory twice per hop,
// every relayed packet could rebuild an all-pairs route table and every
// await allocated its slot, waker and timeout closure (DESIGN.md §17); it
// read 31.3 when every striped message allocated its split, its rail runs and
// a process per extra rail and every message its packet list (DESIGN.md §28),
// and 28.5 while every message allocated its handles apart from its framing
// records, and a block list, and every sink reassembled a frame into fresh
// memory. It reads 25.1 (26.3 under the race detector; DESIGN.md §29): per
// message the Packing and the Unpacking record and, for one too large to
// coalesce, the decoded descriptor; a frame's buffers come from the wire pool
// at the coalescer and at the sink. The rest is what the run builds on first
// use and amortizes over its 960 messages: links, route rows, send daemons and
// the free lists' warm-up. The budget is the reading plus 15 %, rounded up.
const prodLossyAllocBudget = 29

// TestProdLossyAllocBudget drives the facade the way the benchmark's
// prod_lossy_mix workload does and fails when a message costs more
// allocations than the budget (make allocs).
func TestProdLossyAllocBudget(t *testing.T) {
	const (
		flows   = 16
		perFlow = 60
	)
	var topo strings.Builder
	topo.WriteString("network sci0 sci\nnetwork myri0 myrinet\n")
	for i := 0; i < flows; i++ {
		fmt.Fprintf(&topo, "node a%02d sci0\n", i)
	}
	for i := 0; i < flows; i++ {
		fmt.Fprintf(&topo, "node b%02d myri0\n", i)
	}
	topo.WriteString("node gw1 sci0 myri0\nnode gw2 sci0 myri0\nfault seed 7\nfault drop * 0.01\n")
	sys, err := madeleine.NewSystem(topo.String(), madeleine.WithProduction())
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
	t.Logf("prod lossy mix: %.1f allocations, %.1f KiB per message (budget %d)", perMsg, kib, prodLossyAllocBudget)
	if perMsg > prodLossyAllocBudget {
		t.Errorf("prod lossy mix allocates %.1f objects per message, budget %d", perMsg, prodLossyAllocBudget)
	}
}

// miceStream drives the facade the way the benchmark's mice_stream and
// mice_stream_observed workloads do — 64 B messages back to back over
// a –sci– gw –myrinet– b with eager framing, aggregation and credits — and
// returns the allocations a message cost across System.Run.
func miceStream(t *testing.T, msgs int, opts ...madeleine.Option) float64 {
	const size = 64
	opts = append(opts, madeleine.WithEagerSmallMessages(), madeleine.WithAggregation(), madeleine.WithFlowControl())
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
// frames, full ones of 32 KiB, amortizing); it reads 2.01 (DESIGN.md §29): the
// Packing and the Unpacking record, each holding its handle. The budget is the
// reading plus 15 %, rounded up: one more per message does not fit.
const miceStreamAllocBudget = 2.4

// TestMiceStreamAllocBudget fails when a message of the mice stream costs more
// allocations than the budget (make allocs).
func TestMiceStreamAllocBudget(t *testing.T) {
	perMsg := miceStream(t, 20000)
	t.Logf("mice stream: %.2f allocations per message (budget %.1f)", perMsg, miceStreamAllocBudget)
	if perMsg > miceStreamAllocBudget {
		t.Errorf("mice stream allocates %.2f objects per message, budget %.1f", perMsg, miceStreamAllocBudget)
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

// micePingpongAllocBudget is the most heap allocations one message of the
// benchmark's mice_pingpong shape may cost across System.Run: 64 B round
// trips a –sci– gw –myrinet– b with eager framing, aggregation and credits,
// one message outstanding, so every message is a frame of its own and what
// a frame costs shows undiluted. It read 9.0 when a message allocated its
// Packing and Unpacking pairs (4) and its block list, and a frame the
// builder's re-armed buffer, its descriptor array and the link's copy of it
// at the gateway and at the sink. It reads 2.03 (DESIGN.md §29): the Packing
// and the Unpacking record, each holding its handle, the first with its first
// block — and per frame nothing: the buffer and its descriptor pair come from
// the wire pool and go back there from the sink that ends its last
// sub-message, and the link hands them over at every hop (mad.TxMeta.Owned).
// Nothing either for the hand-over to the flush daemon (the sealed frame is a
// local of its flush), for the sink's queue of sub-messages (it reads them off
// the frame, DESIGN.md §24) nor, since DESIGN.md §27, for the frame's reader,
// a value the sink keeps in place. The budget is the reading plus 15 %,
// rounded up: one more per message does not fit.
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
`, madeleine.WithEagerSmallMessages(), madeleine.WithAggregation(), madeleine.WithFlowControl())
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

// incastAllocBudget and incastKiBBudget are the most heap allocations and
// KiB one message of the benchmark's incast64 shape may cost across
// System.Run: 64 senders through one gateway under WithFlowControl, 8 of
// them elephants. It read 3.73 allocations and 5.57 KiB when every node's
// first event allocated a ring of 4 096 72-byte events (65 rings, 18.3 MiB
// over the run's 3 616 messages), and 2.70 KiB with 32-byte entries in one
// piece. It read 3.73 allocations and 1.00 KiB (3.76 and 1.00 under the
// race detector; DESIGN.md §31) while the link copied the header the gateway
// re-emitted from its header cells, and reads 2.75 and 0.977 (2.79 and 0.980
// under the race detector) since the header is a wire-pool buffer handed on
// hop by hop (DESIGN.md §36): per message the Packing and the Unpacking
// record; a sender's ring (40–192 events) holds the first of its four 32 KiB
// chunks, the gateway's all four, and the sink records nothing; the rest is
// set-up the run amortizes. The budgets are the race detector's readings plus
// 15 %, rounded up: one more allocation a message does not fit, nor does a
// second chunk on every sender's ring.
const (
	incastAllocBudget = 3.3
	incastKiBBudget   = 1.13
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
	sys, err := madeleine.NewSystem(incastTopo(senders), madeleine.WithFlowControl())
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
	t.Logf("incast: %.2f allocations, %.3f KiB per message (budgets %.1f, %.2f)", perMsg, kib, incastAllocBudget, incastKiBBudget)
	if perMsg > incastAllocBudget {
		t.Errorf("incast allocates %.2f objects per message, budget %.1f", perMsg, incastAllocBudget)
	}
	if kib > incastKiBBudget {
		t.Errorf("incast allocates %.3f KiB per message, budget %.2f", kib, incastKiBBudget)
	}
}
