package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"

	madeleine "madgo"
)

// flowSpec is one closed-loop client: a simulated process on src that sends
// its messages one at a time, with no think time, to dsts.
type flowSpec struct {
	src   string
	dsts  []string // one destination; eight on the multicast workload
	sizes []int    // application bytes of each message, in send order
	pat   []byte   // seeded bytes; message i is a window of it, see window
	tx    []byte   // the sender's copy of pat, stamped in place while in flight
}

// variant is one generated input: the library receives only topo, the
// workload's options and the byte slices cut from each flow's pattern.
type variant struct {
	topo  string
	flows []flowSpec
}

// workload is a named load. It has one variant, except prod_lossy_mix: what
// random loss does to sixteen contending flows differs so much from one
// fault seed to the next that a single draw says little, so that workload is
// replicated, its trials cycle through the replications and its virtual-time
// results are pooled over them.
type workload struct {
	name     string
	opts     func() []madeleine.Option
	observed bool // timed trials run with the metrics registry and tracer armed
	pingpong bool // the receiver echoes every message; latency is the round trip
	variants []*variant

	rx map[string][]byte // receive buffers by node, see rxBuffer
}

// lossyReplications is how many independently seeded replications
// prod_lossy_mix has at full load; a divided load (a smoke run) has two.
const lossyReplications = 6

// workloadInfo names a workload and records why it exists; BENCHMARK.json
// carries the same text.
type workloadInfo struct {
	name string
	why  string
	// traceDiv divides the load of the traced run, so that the flight rings
	// can hold every event of it and the trace files stay loadable. The
	// per-layer metrics are per message, per packet or per byte, so the
	// divisor moves them only by how much of the run is start-up.
	traceDiv int
}

var workloadTable = []workloadInfo{
	{"bulk_stream", "Fig. 6 point, 1 MiB messages in 32 KiB packets: per-byte work in mad.Link.Send, memmove, fluid and the gateway ring; agg, credits and ARQ bypassed", 4},
	{"mice_stream", "64 B back-to-back on the eager+agg+credit path: per-message work in pack/unpack, the coalescer, the compact codec and vtime hand-offs; bytes are irrelevant", 8},
	{"mice_stream_observed", "mice_stream with WithMetrics and WithTracer armed: the only workload where obs and trace do most of the work; mice_stream shows what they cost disarmed", 4},
	{"mice_pingpong", "64 B round trips through the same eager+agg layer with one message outstanding: nothing to coalesce, so the idle-flush deadline and the per-flush buffer show", 2},
	{"incast64", "64 senders through one gateway under WithFlowControl: credit accounts, DRR relay, 130+ live vtime processes and 66-node route tables; fairness is a result here", 4},
	{"bcast_fanout8", "BeginMulticast of 64 KiB to 8 receivers across two gateways: the replication fork, refcounted pipeline and tree cache; one ingress, eight egress", 4},
	{"prod_lossy_mix", "WithProduction under 1% loss, 16 flows of mixed sizes over two gateways: ARQ, ack coalescing, K=2 striping, health probes; the only heavy set-up and a real tail", 2},
}

func workloadNames() []string {
	names := make([]string, len(workloadTable))
	for i, w := range workloadTable {
		names[i] = w.name
	}
	return names
}

func lookupWorkload(name string) (workloadInfo, bool) {
	for _, w := range workloadTable {
		if w.name == name {
			return w, true
		}
	}
	return workloadInfo{}, false
}

const (
	kib = 1024
	mib = 1024 * kib
	// patSlack is how far message windows wander inside a flow's pattern, so
	// that two messages of one flow never carry the same bytes at the same
	// offsets and a swapped fragment cannot verify.
	patSlack = 4096
)

const chainTopo = `network sci0 sci
network myri0 myrinet
node a sci0
node gw sci0 myri0
node b myri0
`

func paperFidelity() []madeleine.Option {
	return []madeleine.Option{madeleine.WithPaperFidelity()}
}

func miceOptions() []madeleine.Option {
	return []madeleine.Option{
		madeleine.WithEagerSmallMessages(), madeleine.WithAggregation(), madeleine.WithFlowControl(),
	}
}

// generate builds the named workload from the seed. div divides every
// message count (1 = the full load, 20 = -quick); counts never fall below
// the floor that keeps each flow meaningful.
func generate(name string, seed int64, div int) (*workload, error) {
	if div < 1 {
		div = 1
	}
	// mice_stream_observed draws what mice_stream draws, so that at equal
	// load their virtual-time results must be equal: observability costs no
	// virtual time.
	h := fnv.New64a()
	h.Write([]byte(strings.TrimSuffix(name, "_observed")))
	rng := rand.New(rand.NewSource(seed ^ int64(h.Sum64())))
	scaled := func(n, floor int) int {
		n /= div
		if n < floor {
			n = floor
		}
		return n
	}
	// jittered returns n sizes at most 1/512 (at least 4 bytes) below
	// nominal, never above it, so that no message grows a fragment: a
	// per-seed shift plus a per-message jitter. They are what makes the
	// virtual-time metrics of the fixed-size workloads depend on the seed at
	// all; without the jitter they read the same, to the nanosecond, on
	// every run of every seed, and without the shift the percentiles still
	// do, because every seed would draw from the same size distribution.
	jittered := func(n, nominal int) []int {
		half := nominal / 1024
		if half < 2 {
			half = 2
		}
		shift := rng.Intn(half + 1)
		sizes := make([]int, n)
		for i := range sizes {
			sizes[i] = nominal - shift - rng.Intn(half+1)
		}
		return sizes
	}
	w := &workload{name: name}
	v := &variant{}
	w.variants = []*variant{v}
	switch name {
	case "bulk_stream":
		v.topo, w.opts = chainTopo, paperFidelity
		v.flows = []flowSpec{{src: "a", dsts: []string{"b"}, sizes: jittered(scaled(1000, 20), mib)}}
	case "mice_stream", "mice_stream_observed":
		n := 200000
		if name == "mice_stream_observed" {
			n = 100000
			w.observed = true
		}
		v.topo, w.opts = chainTopo, miceOptions
		v.flows = []flowSpec{{src: "a", dsts: []string{"b"}, sizes: jittered(scaled(n, 1000), 64)}}
	case "mice_pingpong":
		v.topo, w.opts, w.pingpong = chainTopo, miceOptions, true
		v.flows = []flowSpec{{src: "a", dsts: []string{"b"}, sizes: jittered(scaled(10000, 500), 64)}}
	case "incast64":
		var b strings.Builder
		b.WriteString("network edge sci\nnetwork core myrinet\n")
		for i := 0; i < 64; i++ {
			fmt.Fprintf(&b, "node s%02d edge\n", i)
		}
		b.WriteString("node gw edge core\nnode sink core\n")
		v.topo = b.String()
		w.opts = func() []madeleine.Option { return []madeleine.Option{madeleine.WithFlowControl()} }
		elephant := make(map[int]bool)
		for _, i := range rng.Perm(64)[:8] {
			elephant[i] = true
		}
		for i := 0; i < 64; i++ {
			f := flowSpec{src: fmt.Sprintf("s%02d", i), dsts: []string{"sink"}}
			if elephant[i] {
				f.sizes = jittered(scaled(16, 2), 256*kib)
			} else {
				f.sizes = jittered(scaled(256, 16), 16*kib)
			}
			v.flows = append(v.flows, f)
		}
	case "bcast_fanout8":
		var b strings.Builder
		b.WriteString("network up sci\nnetwork core myrinet\nnetwork leaf sci\n")
		b.WriteString("node root up\nnode gw1 up core\n")
		var dsts []string
		for i := 1; i <= 4; i++ {
			fmt.Fprintf(&b, "node c%d core\n", i)
			dsts = append(dsts, fmt.Sprintf("c%d", i))
		}
		b.WriteString("node gw2 core leaf\n")
		for i := 1; i <= 4; i++ {
			fmt.Fprintf(&b, "node l%d leaf\n", i)
			dsts = append(dsts, fmt.Sprintf("l%d", i))
		}
		v.topo, w.opts = b.String(), paperFidelity
		v.flows = []flowSpec{{src: "root", dsts: dsts, sizes: jittered(scaled(2000, 125), 64*kib)}}
	case "prod_lossy_mix":
		w.opts = func() []madeleine.Option { return []madeleine.Option{madeleine.WithProduction()} }
		w.variants = nil
		n, reps := scaled(125, 8), lossyReplications
		if div > 1 {
			reps = 2
		}
		for r := 0; r < reps; r++ {
			var b strings.Builder
			b.WriteString("network sci0 sci\nnetwork myri0 myrinet\n")
			for i := 0; i < 16; i++ {
				fmt.Fprintf(&b, "node a%02d sci0\n", i)
			}
			for i := 0; i < 16; i++ {
				fmt.Fprintf(&b, "node b%02d myri0\n", i)
			}
			b.WriteString("node gw1 sci0 myri0\nnode gw2 sci0 myri0\n")
			fmt.Fprintf(&b, "fault seed %d\nfault drop * 0.01\n", seed*lossyReplications+int64(r))
			v := &variant{topo: b.String()}
			for i := 0; i < 16; i++ {
				v.flows = append(v.flows, flowSpec{
					src: fmt.Sprintf("a%02d", i), dsts: []string{fmt.Sprintf("b%02d", i)},
					sizes: mixedSizes(rng, n),
				})
			}
			w.variants = append(w.variants, v)
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames(), ", "))
	}
	for _, v := range w.variants {
		for i := range v.flows {
			f := &v.flows[i]
			max := 0
			for _, s := range f.sizes {
				if s > max {
					max = s
				}
			}
			f.pat = make([]byte, max+patSlack)
			rng.Read(f.pat)
			f.tx = append([]byte(nil), f.pat...)
		}
	}
	return w, nil
}

// mixedSizes draws n sizes, 50% 64-1023 B, 30% 4-16 KiB, 20% 128-256 KiB.
// The class counts are exact and each class is sampled on an even grid with
// seeded offsets before the whole sequence is shuffled, so the seed decides
// which message has which size and in what order, while a flow's total bytes
// and fragment count barely move with it; host cost per message then
// compares across seeds.
func mixedSizes(rng *rand.Rand, n int) []int {
	classes := []struct {
		share  float64
		lo, hi int
	}{{0.5, 64, 1023}, {0.3, 4 * kib, 16 * kib}, {0.2, 128 * kib, 256 * kib}}
	sizes := make([]int, 0, n)
	for ci, c := range classes {
		count := int(c.share*float64(n) + 0.5)
		if ci == len(classes)-1 {
			count = n - len(sizes)
		}
		step := float64(c.hi-c.lo+1) / float64(count)
		for k := 0; k < count; k++ {
			sizes = append(sizes, c.lo+int(step*(float64(k)+rng.Float64())))
		}
	}
	rng.Shuffle(len(sizes), func(i, j int) { sizes[i], sizes[j] = sizes[j], sizes[i] })
	return sizes
}

// window returns message i of the flow cut from b, which is f.pat for the
// receiver's comparison or f.tx for the bytes the sender hands to Pack. Its
// position depends on i.
func (f *flowSpec) window(b []byte, i int) []byte {
	off := (i * 67) % patSlack
	return b[off : off+f.sizes[i]]
}

// messages is how many deliveries the variant attempts: one per message and
// receiver, and the echo on the ping-pong workload.
func (w *workload) messages(v *variant) int {
	n := 0
	for _, f := range v.flows {
		n += len(f.sizes) * len(f.dsts)
	}
	if w.pingpong {
		n *= 2
	}
	return n
}
