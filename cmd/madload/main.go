// Command madload is a synthetic traffic generator for the forwarding
// layer's contention behaviour: it builds a cluster-of-clusters topology,
// drives one of three many-senders patterns through the gateway(s), and
// reports per-sender goodput, the Jain fairness index across senders, and
// the relay schedulers' counters. It is the command-line companion of the c1
// benchmark experiment: the incast pattern shows the gateways' DRR relay
// equalizing byte service across message sizes.
//
// Usage:
//
//	madload                                  # 16-sender incast
//	madload -senders 64 -elephants 8         # the c1 contention wall shape
//	madload -pattern alltoall -senders 8     # bidirectional cross-cluster load
//	madload -pattern hotspot -json           # machine-readable report
//	madload -small 64 -bytes 512 -eager      # mice rate: msgs/s + p50/p99 latency
//
// The -small N mode measures the eager small-message path: every sender
// streams N back-to-back messages of -bytes size, each delivery is timed
// into the madgo_message_latency_seconds histogram, and the report adds the
// aggregate message rate with the p50/p99 delivery latency read back from
// the histogram. Combine with -eager (the coalescer and the compact framing)
// to compare against the seed framing.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	madeleine "madgo"
	"madgo/internal/flow"
)

func main() {
	var (
		pattern  = flag.String("pattern", "incast", "traffic pattern: incast, alltoall, hotspot")
		senders  = flag.Int("senders", 16, "number of sending nodes")
		count    = flag.Int("count", 8, "messages per sender")
		msgBytes = flag.Int("bytes", 16*1024, "message size for ordinary senders (mice)")
		eleph    = flag.Int("elephants", 0, "how many senders send elephant-sized messages instead")
		elephB   = flag.Int("elephant-bytes", 256*1024, "message size for elephant senders")
		mtu      = flag.Int("mtu", 32*1024, "forwarding packet size")
		depth    = flag.Int("depth", 2, "gateway pipeline depth")
		small    = flag.Int("small", 0, "mice-rate mode: stream N messages of -bytes per sender, report msgs/s and p50/p99 latency")
		eager    = flag.Bool("eager", false, "eager small-message path for forwarded messages: cross-message aggregation, compact framing")
		jsonOut  = flag.Bool("json", false, "emit one JSON document instead of text")
	)
	flag.Parse()
	if *small > 0 {
		*count = *small
	}
	if *senders < 2 {
		fatal(fmt.Errorf("need at least 2 senders, got %d", *senders))
	}
	if *eleph > *senders {
		fatal(fmt.Errorf("-elephants %d exceeds -senders %d", *eleph, *senders))
	}

	opts := []madeleine.Option{madeleine.WithMTU(*mtu), madeleine.WithPipelineDepth(*depth),
		madeleine.WithMetrics(madeleine.NewMetrics())}
	if *eager {
		opts = append(opts, madeleine.WithEagerSmallMessages())
	}

	var ld load
	switch *pattern {
	case "incast":
		ld = incast(*senders, *count, *msgBytes, *eleph, *elephB)
	case "alltoall":
		ld = alltoall(*senders, *count, *msgBytes)
	case "hotspot":
		ld = hotspot(*senders, *count, *msgBytes, *eleph, *elephB)
	default:
		fatal(fmt.Errorf("unknown -pattern %q (want incast, alltoall, hotspot)", *pattern))
	}

	sys, err := madeleine.NewSystem(ld.topo, opts...)
	if err != nil {
		fatal(err)
	}
	rep := ld.run(sys)
	rep.Pattern = *pattern
	if *small > 0 {
		rep.Mice = miceStats(sys, ld, rep)
	}
	if *eager {
		st := sys.Stats().Agg
		rep.Agg = &st
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fatal(err)
		}
		return
	}
	rep.write(os.Stdout)
}

// senderReport is one sender's share of the run.
type senderReport struct {
	Name  string  `json:"name"`
	Bytes int64   `json:"bytes"`
	Msgs  int     `json:"messages"`
	MBps  float64 `json:"goodput_mbps"`
}

// miceReport is the -small mode summary: the aggregate message rate and the
// delivery-latency quantiles read back from the per-sink
// madgo_message_latency_seconds histograms (the worst sink is reported, so
// multi-sink patterns do not hide a slow one).
type miceReport struct {
	Msgs       int     `json:"messages"`
	MsgsPerSec float64 `json:"msgs_per_sec"`
	P50Seconds float64 `json:"latency_p50_seconds"`
	P99Seconds float64 `json:"latency_p99_seconds"`
}

// report is the run summary madload prints.
type report struct {
	Pattern    string              `json:"pattern"`
	Senders    []senderReport      `json:"senders"`
	Jain       float64             `json:"jain"`
	AggMBps    float64             `json:"aggregate_mbps"`
	MakespanNS int64               `json:"makespan_ns"`
	Flow       madeleine.FlowStats `json:"flow"`
	Mice       *miceReport         `json:"mice,omitempty"`
	Agg        *madeleine.AggStats `json:"agg,omitempty"`
}

// miceStats reads the message rate and latency quantiles of a -small run
// out of the metrics registry the sinks observed into.
func miceStats(sys *madeleine.System, ld load, rep *report) *miceReport {
	mr := &miceReport{}
	for _, s := range rep.Senders {
		mr.Msgs += s.Msgs
	}
	if rep.MakespanNS > 0 {
		mr.MsgsPerSec = float64(mr.Msgs) / madeleine.Duration(rep.MakespanNS).Seconds()
	}
	m := sys.Metrics()
	for sink := range ld.sinks {
		labels := madeleine.MetricLabels{"node": sink}
		if p50, ok := m.Quantile("madgo_message_latency_seconds", labels, 0.5); ok && p50 > mr.P50Seconds {
			mr.P50Seconds = p50
		}
		if p99, ok := m.Quantile("madgo_message_latency_seconds", labels, 0.99); ok && p99 > mr.P99Seconds {
			mr.P99Seconds = p99
		}
	}
	return mr
}

func (r *report) write(w *os.File) {
	fmt.Fprintf(w, "madload: %s, %d senders\n", r.Pattern, len(r.Senders))
	fmt.Fprintf(w, "%-8s %12s %6s %10s\n", "sender", "bytes", "msgs", "MB/s")
	for _, s := range r.Senders {
		fmt.Fprintf(w, "%-8s %12d %6d %10.2f\n", s.Name, s.Bytes, s.Msgs, s.MBps)
	}
	fmt.Fprintf(w, "Jain fairness %.3f, aggregate %.1f MB/s over %v\n",
		r.Jain, r.AggMBps, madeleine.Duration(r.MakespanNS))
	fmt.Fprintf(w, "relay schedulers: %d sched rounds, %d backpressure\n", r.Flow.SchedRounds, r.Flow.Backpressure)
	if r.Mice != nil {
		fmt.Fprintf(w, "mice: %d msgs, %.0f msgs/s, latency p50 %.1fµs p99 %.1fµs\n",
			r.Mice.Msgs, r.Mice.MsgsPerSec, r.Mice.P50Seconds*1e6, r.Mice.P99Seconds*1e6)
	}
	if r.Agg != nil {
		fmt.Fprintf(w, "agg: %d sub-messages in %d frames (%d bytes), flushes size/idle/ordering %d/%d/%d, %d bypassed\n",
			r.Agg.SubMessages, r.Agg.Frames, r.Agg.FrameBytes,
			r.Agg.SizeFlushes, r.Agg.IdleFlushes, r.Agg.OrderingFlushes, r.Agg.BypassMessages)
	}
}

// load couples a generated topology with the procs that drive it.
type load struct {
	topo string
	// sends maps sender name -> (destination, size) per message.
	sends map[string][]sendSpec
	// sinks maps receiver name -> number of messages to drain.
	sinks map[string]int
}

type sendSpec struct {
	to   string
	size int
}

func sname(i int) string { return fmt.Sprintf("s%d", i) }

// size of sender i under the elephant split.
func sizeOf(i, eleph, mouse, elephB int) int {
	if i < eleph {
		return elephB
	}
	return mouse
}

// incast funnels every sender through one gateway to a single sink.
func incast(n, count, mouse, eleph, elephB int) load {
	var b strings.Builder
	b.WriteString("network edge sci\nnetwork core myrinet\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "node %s edge\n", sname(i))
	}
	b.WriteString("node gw edge core\nnode sink core\n")
	ld := load{topo: b.String(), sends: map[string][]sendSpec{}, sinks: map[string]int{}}
	for i := 0; i < n; i++ {
		size := sizeOf(i, eleph, mouse, elephB)
		for m := 0; m < count; m++ {
			ld.sends[sname(i)] = append(ld.sends[sname(i)], sendSpec{to: "sink", size: size})
		}
		ld.sinks["sink"] += count
	}
	return ld
}

// alltoall splits the senders across the two clusters; every node sends to
// every node of the other cluster, loading the gateway in both directions.
func alltoall(n, count, size int) load {
	var b strings.Builder
	b.WriteString("network edge sci\nnetwork core myrinet\n")
	half := n / 2
	for i := 0; i < n; i++ {
		net := "edge"
		if i >= half {
			net = "core"
		}
		fmt.Fprintf(&b, "node %s %s\n", sname(i), net)
	}
	b.WriteString("node gw edge core\n")
	ld := load{topo: b.String(), sends: map[string][]sendSpec{}, sinks: map[string]int{}}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			sameSide := (i < half) == (j < half)
			if sameSide {
				continue
			}
			for m := 0; m < count; m++ {
				ld.sends[sname(i)] = append(ld.sends[sname(i)], sendSpec{to: sname(j), size: size})
			}
			ld.sinks[sname(j)] += count
		}
	}
	return ld
}

// hotspot sends most of the load at one hot sink while a few flows target a
// cold node, showing whether the hot flows starve the cold ones.
func hotspot(n, count, mouse, eleph, elephB int) load {
	var b strings.Builder
	b.WriteString("network edge sci\nnetwork core myrinet\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "node %s edge\n", sname(i))
	}
	b.WriteString("node gw edge core\nnode hot core\nnode cold core\n")
	ld := load{topo: b.String(), sends: map[string][]sendSpec{}, sinks: map[string]int{}}
	for i := 0; i < n; i++ {
		size := sizeOf(i, eleph, mouse, elephB)
		dst := "hot"
		if i%4 == 3 {
			dst = "cold"
		}
		for m := 0; m < count; m++ {
			ld.sends[sname(i)] = append(ld.sends[sname(i)], sendSpec{to: dst, size: size})
		}
		ld.sinks[dst] += count
	}
	return ld
}

// run drives the load to completion and measures per-sender goodput from
// each sender's last delivery time, observed at the receivers via the
// unpacking's provenance rank.
func (ld load) run(sys *madeleine.System) *report {
	// Map iteration order would vary the spawn order and with it the whole
	// simulated schedule; sorted keys keep identical invocations
	// byte-identical.
	// sentAt queues each lane's (sender, destination) send instants in send
	// order; deliveries on a lane arrive in that order, so the sink times
	// each message by popping its lane's queue. The simulation is
	// single-threaded and cooperative, so the shared map needs no lock.
	type lane struct{ from, to string }
	sentAt := map[lane][]madeleine.Time{}
	for _, name := range sortedKeys(ld.sends) {
		name, specs := name, ld.sends[name]
		sys.Spawn("load:"+name, func(p *madeleine.Proc) {
			for _, sp := range specs {
				k := lane{name, sp.to}
				sentAt[k] = append(sentAt[k], p.Now())
				px := sys.At(name).BeginPacking(p, sp.to)
				px.Pack(p, make([]byte, sp.size), madeleine.SendCheaper, madeleine.ReceiveCheaper)
				px.EndPacking(p)
			}
		})
	}
	type tally struct {
		bytes  int64
		msgs   int
		doneAt madeleine.Time
	}
	tallies := map[string]*tally{}
	for name := range ld.sends {
		tallies[name] = &tally{}
	}
	for _, sink := range sortedKeys(ld.sinks) {
		sink, msgs := sink, ld.sinks[sink]
		latency := sys.Metrics().BindHistogram("madgo_message_latency_seconds", madeleine.MetricLabels{"node": sink})
		sys.Spawn("drain:"+sink, func(p *madeleine.Proc) {
			for i := 0; i < msgs; i++ {
				u := sys.At(sink).BeginUnpacking(p)
				from := sys.NodeName(u.From())
				// The load shape fixes each sender's message size, so the
				// receiver knows how much to unpack without a header.
				var size int
				for _, sp := range ld.sends[from] {
					if sp.to == sink {
						size = sp.size
						break
					}
				}
				u.Unpack(p, make([]byte, size), madeleine.SendCheaper, madeleine.ReceiveCheaper)
				u.EndUnpacking(p)
				k := lane{from, sink}
				t0 := sentAt[k][0]
				sentAt[k] = sentAt[k][1:]
				latency.ObserveDuration(p.Now().Sub(t0))
				t := tallies[from]
				t.bytes += int64(size)
				t.msgs++
				t.doneAt = p.Now()
			}
		})
	}
	if err := sys.Run(); err != nil {
		fatal(err)
	}
	rep := &report{Flow: sys.Stats().Flow}
	var goodputs []float64
	var total int64
	for i := 0; ; i++ {
		t, ok := tallies[sname(i)]
		if !ok {
			break
		}
		secs := madeleine.Duration(t.doneAt).Seconds()
		mbps := 0.0
		if secs > 0 {
			mbps = float64(t.bytes) / secs / 1e6
		}
		rep.Senders = append(rep.Senders, senderReport{
			Name: sname(i), Bytes: t.bytes, Msgs: t.msgs, MBps: mbps,
		})
		goodputs = append(goodputs, mbps)
		total += t.bytes
		if int64(t.doneAt) > rep.MakespanNS {
			rep.MakespanNS = int64(t.doneAt)
		}
	}
	rep.Jain = flow.Jain(goodputs)
	if rep.MakespanNS > 0 {
		rep.AggMBps = float64(total) / madeleine.Duration(rep.MakespanNS).Seconds() / 1e6
	}
	return rep
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "madload:", err)
	os.Exit(1)
}
