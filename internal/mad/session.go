package mad

import (
	"fmt"

	"madgo/internal/hw"
)

// Rank identifies a node within a session, as in the paper's configuration
// files. Ranks are global to the session, not per channel.
type Rank int

// Session is one Madeleine application session: a set of nodes and the
// channels connecting them on the simulated platform.
type Session struct {
	Platform *hw.Platform
	nodes    []*Node
	byName   map[string]*Node
	channels []*Channel
	pool     Pool // what its channels draw from unless made with one of their own
}

// NewSession creates an empty session on the platform.
func NewSession(pl *hw.Platform) *Session {
	return &Session{Platform: pl, byName: make(map[string]*Node)}
}

// Node is one process of the session, pinned to a simulated machine.
type Node struct {
	Session *Session
	Rank    Rank
	Name    string
	Host    *hw.Host
}

// AddNode registers a node on a new machine with the default hardware
// (dual PII-450, 33 MHz/32-bit PCI).
func (s *Session) AddNode(name string) *Node {
	return s.AddNodeWith(name, hw.DefaultCPU(), hw.DefaultPCI())
}

// AddNodeWith registers a node on a new machine with explicit hardware
// parameters.
func (s *Session) AddNodeWith(name string, cpu hw.CPUParams, pci hw.PCIParams) *Node {
	if _, dup := s.byName[name]; dup {
		panic("mad: duplicate node " + name)
	}
	n := &Node{
		Session: s,
		Rank:    Rank(len(s.nodes)),
		Name:    name,
		Host:    s.Platform.NewHost(name, cpu, pci),
	}
	s.nodes = append(s.nodes, n)
	s.byName[name] = n
	return n
}

// Node returns the node with the given rank.
func (s *Session) Node(r Rank) *Node {
	if int(r) < 0 || int(r) >= len(s.nodes) {
		panic(fmt.Sprintf("mad: rank %d out of range", r))
	}
	return s.nodes[r]
}

// NodeByName returns the node with the given name.
func (s *Session) NodeByName(name string) *Node {
	n, ok := s.byName[name]
	if !ok {
		panic("mad: unknown node " + name)
	}
	return n
}

// Nodes returns all nodes in rank order.
func (s *Session) Nodes() []*Node { return s.nodes }

// Channels returns all channels created so far.
func (s *Session) Channels() []*Channel { return s.channels }

// Copies returns the total CPU copies and bytes copied across all nodes —
// the session-wide zero-copy accounting used by tests and benchmarks.
func (s *Session) Copies() (count, bytes int64) {
	for _, n := range s.nodes {
		count += n.Host.Copies()
		bytes += n.Host.BytesCopied()
	}
	return count, bytes
}

func (n *Node) String() string {
	return fmt.Sprintf("%s(rank %d)", n.Name, n.Rank)
}
