// Package topo describes cluster-of-clusters configurations: networks,
// nodes, which node carries which NICs, and therefore which nodes are
// gateways. The forwarding layer consumes a validated Topology to build its
// virtual channels; the cmd tools parse the same textual format the paper's
// static configuration files play the role of.
package topo

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"madgo/internal/fault"
	"madgo/internal/vtime"
)

// Network is one physical interconnect instance in the configuration.
type Network struct {
	Name     string
	Protocol string // "myrinet", "sci", "ethernet", "sbp", "loopback"
	Members  []string
}

// Node is one machine of the configuration.
type Node struct {
	Name     string
	Networks []string // attachment order is preserved
}

// IsGateway reports whether the node bridges at least two networks.
func (n *Node) IsGateway() bool { return len(n.Networks) >= 2 }

// Topology is a validated cluster-of-clusters description.
type Topology struct {
	networks map[string]*Network
	nodes    map[string]*Node
	netOrder []string
	nodeOrd  []string

	// ix is the topology's dense numbering and adj every node's neighbour
	// list, each built on first use (a validated topology never changes).
	ixOnce  sync.Once
	ix      *Index
	adjOnce sync.Once
	adj     map[string][]Neighbor

	// Faults is the fault schedule declared alongside the configuration
	// (the `fault ...` DSL directives), nil when none was given. It rides
	// on the topology so a single config file fully describes an
	// experiment; Restrict carries it over unchanged.
	Faults *fault.Plan
}

// Builder accumulates a topology declaratively.
type Builder struct {
	t    *Topology
	errs []string
}

// NewBuilder returns an empty topology builder.
func NewBuilder() *Builder {
	return &Builder{t: &Topology{
		networks: make(map[string]*Network),
		nodes:    make(map[string]*Node),
	}}
}

// Network declares an interconnect instance.
func (b *Builder) Network(name, protocol string) *Builder {
	if name == "" || protocol == "" {
		b.errs = append(b.errs, "network needs a name and a protocol")
		return b
	}
	if _, dup := b.t.networks[name]; dup {
		b.errs = append(b.errs, "duplicate network "+name)
		return b
	}
	b.t.networks[name] = &Network{Name: name, Protocol: protocol}
	b.t.netOrder = append(b.t.netOrder, name)
	return b
}

// Node declares a machine attached to the given networks.
func (b *Builder) Node(name string, networks ...string) *Builder {
	if name == "" {
		b.errs = append(b.errs, "node needs a name")
		return b
	}
	if _, dup := b.t.nodes[name]; dup {
		b.errs = append(b.errs, "duplicate node "+name)
		return b
	}
	if len(networks) == 0 {
		b.errs = append(b.errs, "node "+name+" is attached to no network")
		return b
	}
	seen := make(map[string]bool)
	for _, nw := range networks {
		net, ok := b.t.networks[nw]
		if !ok {
			b.errs = append(b.errs, fmt.Sprintf("node %s references unknown network %s", name, nw))
			continue
		}
		if seen[nw] {
			b.errs = append(b.errs, fmt.Sprintf("node %s attached to network %s twice", name, nw))
			continue
		}
		seen[nw] = true
		net.Members = append(net.Members, name)
	}
	b.t.nodes[name] = &Node{Name: name, Networks: networks}
	b.t.nodeOrd = append(b.t.nodeOrd, name)
	return b
}

// Build validates and returns the topology. Validation requires at least
// two nodes, every network to have at least two members, and the whole
// configuration to be connected (every node reachable from every other via
// shared networks and gateways).
func (b *Builder) Build() (*Topology, error) {
	t := b.t
	errs := append([]string(nil), b.errs...)
	if len(t.nodes) < 2 {
		errs = append(errs, "topology needs at least two nodes")
	}
	for _, name := range t.netOrder {
		if n := t.networks[name]; len(n.Members) < 2 {
			errs = append(errs, fmt.Sprintf("network %s has %d member(s), need at least 2", name, len(n.Members)))
		}
	}
	if len(errs) == 0 && !t.connected() {
		errs = append(errs, "topology is not connected: some nodes cannot reach each other through gateways")
	}
	if len(errs) > 0 {
		return nil, fmt.Errorf("topo: invalid configuration:\n  %s", strings.Join(errs, "\n  "))
	}
	return t, nil
}

// connected checks reachability over the node/network bipartite graph.
func (t *Topology) connected() bool {
	if len(t.nodeOrd) == 0 {
		return true
	}
	seen := map[string]bool{t.nodeOrd[0]: true}
	queue := []string{t.nodeOrd[0]}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, nw := range t.nodes[cur].Networks {
			for _, peer := range t.networks[nw].Members {
				if !seen[peer] {
					seen[peer] = true
					queue = append(queue, peer)
				}
			}
		}
	}
	return len(seen) == len(t.nodes)
}

// Networks returns the networks in declaration order.
func (t *Topology) Networks() []*Network {
	out := make([]*Network, 0, len(t.netOrder))
	for _, n := range t.netOrder {
		out = append(out, t.networks[n])
	}
	return out
}

// Nodes returns the nodes in declaration order.
func (t *Topology) Nodes() []*Node {
	out := make([]*Node, 0, len(t.nodeOrd))
	for _, n := range t.nodeOrd {
		out = append(out, t.nodes[n])
	}
	return out
}

// NodeNames returns the node names in declaration order.
func (t *Topology) NodeNames() []string { return append([]string(nil), t.nodeOrd...) }

// Neighbor is one way out of a node: cross Network to reach Node.
type Neighbor struct {
	Network string
	Node    string
}

// Index numbers a topology densely, for searches that keep their per-node
// state in slices: node i is NodeNames()[i] and network k is Networks()[k].
// It is shared and read-only.
type Index struct {
	Nodes   []string         // node names, in declaration order
	Nets    []string         // network names, in declaration order
	Node    map[string]int32 // a node's number by name
	OnNets  [][]int32        // by node: the networks it is attached to, ascending
	Members [][]int32        // by network: its members, ordered by name
}

// Index returns the topology's dense numbering, built once, on first use.
// A node's networks ascending, and each network's members by name, give the
// order Neighbors lists a node's legs in.
func (t *Topology) Index() *Index {
	t.ixOnce.Do(func() {
		ix := &Index{Nodes: t.nodeOrd, Nets: t.netOrder, Node: make(map[string]int32, len(t.nodeOrd)),
			OnNets: make([][]int32, len(t.nodeOrd)), Members: make([][]int32, len(t.netOrder))}
		netIdx := make(map[string]int32, len(t.netOrder))
		for k, nw := range t.netOrder {
			netIdx[nw] = int32(k)
		}
		for i, name := range t.nodeOrd {
			ix.Node[name] = int32(i)
			for _, nw := range t.nodes[name].Networks {
				ix.OnNets[i] = append(ix.OnNets[i], netIdx[nw])
			}
			slices.Sort(ix.OnNets[i])
		}
		for k, nw := range t.netOrder {
			for _, name := range t.networks[nw].Members {
				ix.Members[k] = append(ix.Members[k], ix.Node[name])
			}
			slices.SortFunc(ix.Members[k], func(a, b int32) int { return strings.Compare(t.nodeOrd[a], t.nodeOrd[b]) })
		}
		t.ix = ix
	})
	return t.ix
}

// Neighbors returns every leg leaving the named node, ordered by network
// declaration (declare fast networks before slow control networks, as the
// paper's static configuration does) and then by peer name — the order
// every route search explores in, which does not depend on where the search
// started. The lists are built once per topology, on first use, and shared:
// callers must not modify them. An unknown node has no neighbours.
func (t *Topology) Neighbors(name string) []Neighbor {
	t.adjOnce.Do(func() {
		ix := t.Index()
		t.adj = make(map[string][]Neighbor, len(ix.Nodes))
		for cur, nets := range ix.OnNets {
			var legs []Neighbor
			for _, k := range nets {
				for _, peer := range ix.Members[k] {
					if int(peer) != cur {
						legs = append(legs, Neighbor{Network: ix.Nets[k], Node: ix.Nodes[peer]})
					}
				}
			}
			t.adj[ix.Nodes[cur]] = legs
		}
	})
	return t.adj[name]
}

// Degree returns how many legs leave the named node, len(Neighbors(name)),
// without building the neighbour lists.
func (t *Topology) Degree(name string) int {
	n := 0
	if node, ok := t.nodes[name]; ok {
		for _, nw := range node.Networks {
			n += len(t.networks[nw].Members) - 1
		}
	}
	return n
}

// Network looks up a network by name.
func (t *Topology) Network(name string) (*Network, bool) {
	n, ok := t.networks[name]
	return n, ok
}

// Node looks up a node by name.
func (t *Topology) Node(name string) (*Node, bool) {
	n, ok := t.nodes[name]
	return n, ok
}

// Gateways returns the names of all gateway nodes, sorted.
func (t *Topology) Gateways() []string {
	var gws []string
	for _, name := range t.nodeOrd {
		if t.nodes[name].IsGateway() {
			gws = append(gws, name)
		}
	}
	sort.Strings(gws)
	return gws
}

// SharedNetworks returns the networks both nodes are attached to, in the
// first node's attachment order.
func (t *Topology) SharedNetworks(a, b string) []string {
	nb, ok := t.nodes[b]
	if !ok {
		return nil
	}
	onB := make(map[string]bool, len(nb.Networks))
	for _, nw := range nb.Networks {
		onB[nw] = true
	}
	var shared []string
	na, ok := t.nodes[a]
	if !ok {
		return nil
	}
	for _, nw := range na.Networks {
		if onB[nw] {
			shared = append(shared, nw)
		}
	}
	return shared
}

// String renders the topology in the textual configuration format Parse
// accepts. The fault schedule, if any, is not rendered.
func (t *Topology) String() string {
	var sb strings.Builder
	for _, name := range t.netOrder {
		n := t.networks[name]
		fmt.Fprintf(&sb, "network %s %s\n", n.Name, n.Protocol)
	}
	for _, name := range t.nodeOrd {
		n := t.nodes[name]
		fmt.Fprintf(&sb, "node %s %s\n", n.Name, strings.Join(n.Networks, " "))
	}
	return sb.String()
}

// Parse reads the textual configuration format:
//
//	# comment
//	network <name> <protocol>
//	node <name> <network> [<network>...]
//	fault seed <n>
//	fault drop <network|*> <probability>
//	fault corrupt <network|*> <probability>
//	fault flap <network> <at> <for>
//	fault stall <node> <at> <for> <delay>
//	fault crash <node> <at> [<for>]
//
// Times and durations use Go duration syntax ("10ms", "1.5s"). A crash
// without <for> is permanent. Any fault directive attaches a schedule to the
// returned Topology's Faults field; without one, Faults stays nil.
func Parse(text string) (*Topology, error) {
	b := NewBuilder()
	var plan *fault.Plan
	faults := func() *fault.Plan {
		if plan == nil {
			plan = fault.NewPlan(0)
		}
		return plan
	}
	for lineno, raw := range strings.Split(text, "\n") {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "network":
			if len(fields) != 3 {
				return nil, fmt.Errorf("topo: line %d: network wants <name> <protocol>", lineno+1)
			}
			b.Network(fields[1], fields[2])
		case "node":
			if len(fields) < 3 {
				return nil, fmt.Errorf("topo: line %d: node wants <name> <network>...", lineno+1)
			}
			b.Node(fields[1], fields[2:]...)
		case "fault":
			if err := parseFault(faults, fields[1:]); err != nil {
				return nil, fmt.Errorf("topo: line %d: %v", lineno+1, err)
			}
		default:
			return nil, fmt.Errorf("topo: line %d: unknown directive %q", lineno+1, fields[0])
		}
	}
	t, err := b.Build()
	if err != nil {
		return nil, err
	}
	if plan != nil {
		if err := plan.Validate(); err != nil {
			return nil, fmt.Errorf("topo: %v", err)
		}
		// The plan is well-formed; now pin its targets to the topology.
		for _, r := range plan.Rules {
			if r.Net != "" && r.Net != "*" {
				if _, ok := t.Network(r.Net); !ok {
					return nil, fmt.Errorf("topo: fault rule names unknown network %q", r.Net)
				}
			}
			if r.Node != "" {
				if _, ok := t.Node(r.Node); !ok {
					return nil, fmt.Errorf("topo: fault rule names unknown node %q", r.Node)
				}
			}
		}
		t.Faults = plan
	}
	return t, nil
}

// parseFault handles one `fault ...` directive (the leading keyword already
// stripped).
func parseFault(plan func() *fault.Plan, f []string) error {
	dur := func(s string) (vtime.Duration, error) {
		d, err := time.ParseDuration(s)
		if err != nil {
			return 0, fmt.Errorf("bad duration %q: %v", s, err)
		}
		return vtime.Duration(d.Nanoseconds()), nil
	}
	at := func(s string) (vtime.Time, error) {
		d, err := dur(s)
		return vtime.Time(d), err
	}
	prob := func(s string) (float64, error) {
		p, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return 0, fmt.Errorf("bad probability %q: %v", s, err)
		}
		return p, nil
	}
	if len(f) == 0 {
		return fmt.Errorf("fault wants a subdirective (seed, drop, corrupt, flap, stall, crash)")
	}
	switch f[0] {
	case "seed":
		if len(f) != 2 {
			return fmt.Errorf("fault seed wants <n>")
		}
		n, err := strconv.ParseInt(f[1], 10, 64)
		if err != nil {
			return fmt.Errorf("bad seed %q: %v", f[1], err)
		}
		plan().Seed = n
	case "drop", "corrupt":
		if len(f) != 3 {
			return fmt.Errorf("fault %s wants <network|*> <probability>", f[0])
		}
		p, err := prob(f[2])
		if err != nil {
			return err
		}
		if f[0] == "drop" {
			plan().Drop(f[1], p)
		} else {
			plan().Corrupt(f[1], p)
		}
	case "flap":
		if len(f) != 4 {
			return fmt.Errorf("fault flap wants <network> <at> <for>")
		}
		t0, err := at(f[2])
		if err != nil {
			return err
		}
		d, err := dur(f[3])
		if err != nil {
			return err
		}
		plan().Flap(f[1], t0, d)
	case "stall":
		if len(f) != 5 {
			return fmt.Errorf("fault stall wants <node> <at> <for> <delay>")
		}
		t0, err := at(f[2])
		if err != nil {
			return err
		}
		d, err := dur(f[3])
		if err != nil {
			return err
		}
		delay, err := dur(f[4])
		if err != nil {
			return err
		}
		plan().Stall(f[1], t0, d, delay)
	case "crash":
		if len(f) != 3 && len(f) != 4 {
			return fmt.Errorf("fault crash wants <node> <at> [<for>]")
		}
		t0, err := at(f[2])
		if err != nil {
			return err
		}
		var d vtime.Duration // zero = permanent
		if len(f) == 4 {
			if d, err = dur(f[3]); err != nil {
				return err
			}
		}
		plan().Crash(f[1], t0, d)
	default:
		return fmt.Errorf("unknown fault subdirective %q", f[0])
	}
	return nil
}

// Restrict returns a sub-topology containing only the named networks and
// the nodes attached to at least one of them — how a virtual channel is
// scoped to the high-speed networks while a control network (Ethernet)
// exists alongside. The result is re-validated.
func (t *Topology) Restrict(nets ...string) (*Topology, error) {
	keep := make(map[string]bool, len(nets))
	for _, n := range nets {
		if _, ok := t.networks[n]; !ok {
			return nil, fmt.Errorf("topo: restrict to unknown network %s", n)
		}
		keep[n] = true
	}
	b := NewBuilder()
	for _, name := range t.netOrder {
		if keep[name] {
			b.Network(name, t.networks[name].Protocol)
		}
	}
	for _, name := range t.nodeOrd {
		var attached []string
		for _, nw := range t.nodes[name].Networks {
			if keep[nw] {
				attached = append(attached, nw)
			}
		}
		if len(attached) > 0 {
			b.Node(name, attached...)
		}
	}
	sub, err := b.Build()
	if err != nil {
		return nil, err
	}
	sub.Faults = t.Faults
	return sub, nil
}

// PaperTestbed returns the evaluation configuration of §3: a four-node SCI
// cluster, a four-node Myrinet cluster, a gateway holding both NICs, and a
// Fast-Ethernet control network spanning everything (the ping ack path).
func PaperTestbed() *Topology {
	b := NewBuilder().
		Network("sci0", "sci").
		Network("myri0", "myrinet").
		Network("eth0", "ethernet")
	// SCI cluster.
	for _, n := range []string{"a0", "a1", "a2", "a3"} {
		b.Node(n, "sci0", "eth0")
	}
	// The gateway carries one SCI and one Myrinet card.
	b.Node("gw", "sci0", "myri0", "eth0")
	// Myrinet cluster.
	for _, n := range []string{"b0", "b1", "b2", "b3"} {
		b.Node(n, "myri0", "eth0")
	}
	t, err := b.Build()
	if err != nil {
		panic(err) // the embedded testbed is always valid
	}
	return t
}
