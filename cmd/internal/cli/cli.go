// Package cli holds what madping, madstat and madtrace do the same way: the
// fault-injection flags and the plan they add up to, the system the tool
// runs on (the paper testbed unless a topology file is named), and the
// point-to-point stream they all time.
package cli

import (
	"flag"
	"fmt"
	"os"
	"time"

	madeleine "madgo"
)

// Flags are the shared command-line flags of one tool.
type Flags struct {
	config        *string
	seed          *int64
	loss, corrupt *float64
	crash         *time.Duration
}

// Register adds -seed, -loss and -corrupt to fs, -config when the tool
// accepts a topology file, and -crash, under the given help text, when it
// can crash the gateway.
func Register(fs *flag.FlagSet, config bool, crashHelp string) *Flags {
	f := &Flags{
		seed:    fs.Int64("seed", 1, "fault-injection seed"),
		loss:    fs.Float64("loss", 0, "packet drop probability (switches on reliable delivery)"),
		corrupt: fs.Float64("corrupt", 0, "packet corruption probability (switches on reliable delivery)"),
	}
	if config {
		f.config = fs.String("config", "", "topology file (default: the paper testbed)")
	}
	if crashHelp != "" {
		f.crash = fs.Duration("crash", 0, crashHelp)
	}
	return f
}

// FaultPlan returns the seeded plan -loss, -corrupt and -crash ask for, or
// nil when none of them is set. A tool with fault flags of its own (-flap)
// passes more to get a plan to add them to regardless.
func (f *Flags) FaultPlan(more bool) *madeleine.FaultPlan {
	crash := f.crash != nil && *f.crash > 0
	if !(*f.loss > 0 || *f.corrupt > 0 || crash || more) {
		return nil
	}
	plan := madeleine.NewFaultPlan(*f.seed)
	if *f.loss > 0 {
		plan.Drop("*", *f.loss)
	}
	if *f.corrupt > 0 {
		plan.Corrupt("*", *f.corrupt)
	}
	if crash {
		plan.Crash("gw", madeleine.Time(f.crash.Nanoseconds()), 0)
	}
	return plan
}

// NewSystem builds the system the tool runs on: the topology file -config
// names or, without one, the paper testbed with its virtual channel
// restricted to the two high-speed networks.
func (f *Flags) NewSystem(opts ...madeleine.Option) (*madeleine.System, error) {
	if f.config == nil || *f.config == "" {
		return madeleine.NewSystemFromTopology(madeleine.PaperTestbed(),
			append(opts, madeleine.WithRouteNetworks("sci0", "myri0"))...)
	}
	text, err := os.ReadFile(*f.config)
	if err != nil {
		return nil, err
	}
	return madeleine.NewSystem(string(text), opts...)
}

// Stream sends one message of each of the given sizes from → to, back to
// back, runs the system, and returns when each message's packing began and
// when its unpacking ended. A node the topology does not have, or a stream
// from a node to itself, is an error.
func Stream(sys *madeleine.System, from, to string, sizes []int) (starts, ends []madeleine.Time, err error) {
	for _, name := range []string{from, to} {
		if _, ok := sys.Topology.Node(name); !ok {
			return nil, nil, fmt.Errorf("unknown node %q", name)
		}
	}
	if from == to {
		return nil, nil, fmt.Errorf("node %q cannot stream to itself", from)
	}
	starts, ends = make([]madeleine.Time, len(sizes)), make([]madeleine.Time, len(sizes))
	sys.Spawn("stream", func(p *madeleine.Proc) {
		for i, n := range sizes {
			starts[i] = p.Now()
			px := sys.At(from).BeginPacking(p, to)
			px.Pack(p, make([]byte, n), madeleine.SendCheaper, madeleine.ReceiveCheaper)
			px.EndPacking(p)
		}
	})
	sys.Spawn("drain", func(p *madeleine.Proc) {
		for i, n := range sizes {
			u := sys.At(to).BeginUnpacking(p)
			u.Unpack(p, make([]byte, n), madeleine.SendCheaper, madeleine.ReceiveCheaper)
			u.EndUnpacking(p)
			ends[i] = p.Now()
		}
	})
	return starts, ends, sys.Run()
}
