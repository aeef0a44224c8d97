// Command madping runs a point-to-point ping over a cluster-of-clusters
// topology and reports per-size one-way latency and bandwidth, as the
// paper's §3.1 test programs do.
//
// Usage:
//
//	madping                                   # paper testbed, a1 -> b1
//	madping -from a0 -to b0 -sizes 4096,65536
//	madping -config cluster.topo -from n1 -to n9 -mtu 16384
//	madping -depth 4                          # deeper gateway pipeline ring
//	madping -netmtu sci0=65536,myri0=32768    # per-path MTU negotiation
//	madping -loss 0.05 -seed 42               # goodput under 5% packet loss
//	madping -rails 2                          # stripe across two disjoint routes
//	madping -reliable                         # reliable delivery (and its health line) without faults
//	madping -rails 2 -flap sci0@30ms+120ms    # kill one rail mid-run, watch it heal
//
// -flap takes network@start+duration entries (comma-separated): the named
// network drops every packet for the window, the health detector declares
// its links dead, publishes a new routing epoch around them, and re-admits
// them after probation once the window closes. It implies -reliable, as
// -loss and -corrupt do; every reliable run ends on the detector's summary.
//
// The topology file uses the format of cmd/madtopo; when -config is absent
// the paper's SCI+Myrinet testbed is used.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	madeleine "madgo"
	"madgo/cmd/internal/cli"
)

func main() {
	var (
		shared = cli.Register(flag.CommandLine, true, "")
		from   = flag.String("from", "a1", "source node")
		to     = flag.String("to", "b1", "destination node")
		sizes  = flag.String("sizes", "4096,16384,65536,262144,1048576,4194304", "comma-separated message sizes in bytes")
		mtu    = flag.Int("mtu", 32*1024, "forwarding packet size")
		depth  = flag.Int("depth", 2, "gateway pipeline depth (1 disables pipelining)")
		rails  = flag.Int("rails", 1, "stripe large messages across up to this many link-disjoint routes")
		netmtu = flag.String("netmtu", "", "per-network MTU caps as name=bytes[,name=bytes...]; switches on path-MTU negotiation")

		reliable = flag.Bool("reliable", false, "use reliable delivery even without faults")
		flap     = flag.String("flap", "", "flap networks: network@start+duration[,...] (switches on reliable delivery)")
	)
	flag.Parse()

	opts := []madeleine.Option{madeleine.WithPipelineDepth(*depth)}
	var flaps []flapSpec
	if *flap != "" {
		var err error
		if flaps, err = parseFlaps(*flap); err != nil {
			fatal(err)
		}
	}
	if *rails > 1 {
		opts = append(opts, madeleine.WithStriping(*rails))
	}
	if *netmtu != "" {
		for _, kv := range strings.Split(*netmtu, ",") {
			name, val, ok := strings.Cut(strings.TrimSpace(kv), "=")
			if !ok {
				fatal(fmt.Errorf("bad -netmtu entry %q (want name=bytes)", kv))
			}
			n, err := strconv.Atoi(val)
			if err != nil || n <= 0 {
				fatal(fmt.Errorf("bad -netmtu size %q", val))
			}
			opts = append(opts, madeleine.WithNetworkMTU(name, n))
		}
	}
	if plan := shared.FaultPlan(len(flaps) > 0); plan != nil {
		for _, f := range flaps {
			plan.Flap(f.net, f.at, f.dur)
		}
		opts = append(opts, madeleine.WithFaults(plan))
	} else if *reliable {
		opts = append(opts, madeleine.WithReliableDelivery())
	}

	sys, err := shared.NewSystem(append(opts, madeleine.WithMTU(*mtu))...)
	if err != nil {
		fatal(err)
	}

	var ns []int
	for _, s := range strings.Split(*sizes, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n <= 0 {
			fatal(fmt.Errorf("bad size %q", s))
		}
		ns = append(ns, n)
	}

	starts, ends, err := cli.Stream(sys, *from, *to, ns)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("%s -> %s (mtu %d)\n", *from, *to, *mtu)
	fmt.Printf("%10s  %14s  %10s\n", "bytes", "one-way", "MB/s")
	for i, n := range ns {
		d := ends[i] - starts[i]
		mbps := float64(n) / (float64(d) / 1e9) / 1e6
		fmt.Printf("%10d  %14v  %10.1f\n", n, madeleine.Duration(d), mbps)
	}
	for _, g := range sys.Gateways() {
		gs, _ := sys.GatewayStats(g)
		fmt.Printf("gateway %s relayed %d messages / %d packets / %d bytes\n", g, gs.Messages, gs.Packets, gs.Bytes)
	}
	if st := sys.StripeStats(); st.Messages > 0 {
		fmt.Printf("striping: %d messages across %d rails, %d rebalances, %d rail failovers\n",
			st.Messages, len(st.RailBytes), st.Rebalances, st.RailFailovers)
	}
	if ds := sys.DeliveryStats(); ds != (madeleine.DeliveryStats{}) {
		fmt.Printf("recovery: %d retransmits, %d message resends, %d failovers, %d checksum drops, %d duplicates\n",
			ds.Retransmits, ds.MessageResends, ds.Failovers, ds.ChecksumDrops, ds.Duplicates)
	}
	if h := sys.Health(); h != nil {
		snap := h.Snapshot()
		sort.Slice(snap, func(i, j int) bool {
			a, b := snap[i].Link, snap[j].Link
			if a.From != b.From {
				return a.From < b.From
			}
			if a.To != b.To {
				return a.To < b.To
			}
			return a.Network < b.Network
		})
		down := 0
		for _, lh := range snap {
			if lh.State != madeleine.LinkUp {
				down++
			}
		}
		fmt.Printf("health: epoch %d, %d links (%d not up), %d probes, %d readmissions\n",
			h.Epoch(), len(snap), down, h.Probes(), h.Readmissions())
		for _, lh := range snap {
			if lh.State != madeleine.LinkUp {
				fmt.Printf("  %s->%s via %s: %s (score %.2f)\n",
					lh.Link.From, lh.Link.To, lh.Link.Network, lh.State, lh.Score)
			}
		}
	}
}

// flapSpec is one parsed -flap entry.
type flapSpec struct {
	net string
	at  madeleine.Time
	dur madeleine.Duration
}

func parseFlaps(s string) ([]flapSpec, error) {
	var out []flapSpec
	for _, entry := range strings.Split(s, ",") {
		net, window, ok := strings.Cut(strings.TrimSpace(entry), "@")
		if !ok || net == "" {
			return nil, fmt.Errorf("bad -flap entry %q (want network@start+duration)", entry)
		}
		start, length, ok := strings.Cut(window, "+")
		if !ok {
			return nil, fmt.Errorf("bad -flap window %q (want start+duration, e.g. 30ms+120ms)", window)
		}
		at, err := time.ParseDuration(start)
		if err != nil {
			return nil, fmt.Errorf("bad -flap start %q: %v", start, err)
		}
		dur, err := time.ParseDuration(length)
		if err != nil || dur <= 0 {
			return nil, fmt.Errorf("bad -flap duration %q", length)
		}
		out = append(out, flapSpec{
			net: net,
			at:  madeleine.Time(at.Nanoseconds()),
			dur: madeleine.Duration(dur.Nanoseconds()),
		})
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "madping:", err)
	os.Exit(1)
}
