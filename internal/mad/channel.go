package mad

import (
	"fmt"

	"madgo/internal/hw"
	"madgo/internal/vtime"
	"madgo/internal/vtime/vsync"
)

// Channel is the paper's channel object: a closed world for communication,
// bound to one network, one protocol driver and a set of member nodes.
// In-order delivery holds per point-to-point connection within the channel.
type Channel struct {
	Name string

	sess    *Session
	net     *hw.Network
	drv     Driver
	nic     hw.NICParams // the driver's, which its links share
	pool    *Pool        // where what lands in driver memory is taken from
	members map[Rank]*Endpoint
	order   []Rank
	links   map[[2]Rank]*Link
	byNum   []*Link      // the links in bring-up order; a wire event names its link by index
	spare   []Link       // the rest of the last batch of link records allocated
	onWire  func(uint64) // wireArrival, bound by the first link for every link's wire events
	arrival map[Rank]*vsync.Chan[Arrival]
}

// NewChannel creates a channel over the given network and driver connecting
// the member nodes, drawing buffers from the session's pool. Every member must
// be distinct.
func (s *Session) NewChannel(name string, net *hw.Network, drv Driver, members ...*Node) *Channel {
	return s.NewChannelIn(&s.pool, name, net, drv, members...)
}

// NewChannelIn is NewChannel drawing buffers from pool.
func (s *Session) NewChannelIn(pool *Pool, name string, net *hw.Network, drv Driver, members ...*Node) *Channel {
	if len(members) < 2 {
		panic("mad: channel needs at least two members: " + name)
	}
	ch := &Channel{
		Name:    name,
		sess:    s,
		net:     net,
		drv:     drv,
		nic:     drv.NIC(),
		pool:    pool,
		members: make(map[Rank]*Endpoint, len(members)),
		links:   make(map[[2]Rank]*Link),
		arrival: make(map[Rank]*vsync.Chan[Arrival], len(members)),
	}
	eps := make([]Endpoint, len(members)) // one allocation for every member's endpoint
	for i, n := range members {
		if n.Session != s {
			panic("mad: node from another session on channel " + name)
		}
		if _, dup := ch.members[n.Rank]; dup {
			panic(fmt.Sprintf("mad: node %v twice on channel %s", n, name))
		}
		eps[i] = Endpoint{ch: ch, node: n}
		ch.members[n.Rank] = &eps[i]
		ch.order = append(ch.order, n.Rank)
		ch.arrival[n.Rank] = vsync.NewChan[Arrival](fmt.Sprintf("arrivals:%s:%s", name, n.Name), 4096)
	}
	s.channels = append(s.channels, ch)
	return ch
}

// Session returns the owning session.
func (ch *Channel) Session() *Session { return ch.sess }

// Driver returns the channel's protocol driver.
func (ch *Channel) Driver() Driver { return ch.drv }

// Network returns the underlying network.
func (ch *Channel) Network() *hw.Network { return ch.net }

// Pool returns the pool the channel draws buffers from.
func (ch *Channel) Pool() *Pool { return ch.pool }

// Members returns the member ranks in declaration order.
func (ch *Channel) Members() []Rank { return append([]Rank(nil), ch.order...) }

// HasMember reports whether rank r belongs to the channel.
func (ch *Channel) HasMember(r Rank) bool {
	_, ok := ch.members[r]
	return ok
}

// Link returns the unidirectional connection src→dst, creating it lazily.
func (ch *Channel) Link(src, dst Rank) *Link {
	if src == dst {
		panic(fmt.Sprintf("mad: self-connection %d on channel %s", src, ch.Name))
	}
	if !ch.HasMember(src) || !ch.HasMember(dst) {
		panic(fmt.Sprintf("mad: ranks %d->%d not both on channel %s", src, dst, ch.Name))
	}
	key := [2]Rank{src, dst}
	if l, ok := ch.links[key]; ok {
		return l
	}
	if ch.onWire == nil {
		ch.onWire = ch.wireArrival
	}
	if len(ch.spare) == 0 { // a batch as large as the channel's links, up to 64, as hw.Network.Wire's
		ch.spare = make([]Link, min(max(1, len(ch.byNum)), 64))
	}
	l := &ch.spare[0]
	ch.spare = ch.spare[1:]
	l.init(ch, ch.members[src].node, ch.members[dst].node, uint64(len(ch.byNum)))
	ch.links[key] = l
	ch.byNum = append(ch.byNum, l)
	return l
}

// SendsFrom returns the transfers rank src has sent on the channel's links.
func (ch *Channel) SendsFrom(src Rank) int64 {
	var n int64
	for _, l := range ch.byNum {
		if l.Src.Rank == src {
			n += l.sends.Count()
		}
	}
	return n
}

// ChecksumDrops returns the corrupt transfers the channel's links discarded at
// delivery.
func (ch *Channel) ChecksumDrops() int64 {
	var n int64
	for _, l := range ch.byNum {
		n += l.drops.Count()
	}
	return n
}

// Arrival announces a message whose first transmission reached a node. The
// metadata is available before the body is unpacked — this carries the
// regular/forwarded note of §2.2.2. Notes queue by value; a consumer that
// keeps one (WaitArrival) gets its own copy, one that only dispatches on it
// (NextArrival) allocates nothing.
type Arrival struct {
	Link *Link
	Meta TxMeta
}

// From returns the sending rank.
func (a *Arrival) From() Rank { return a.Link.Src.Rank }

// Kind returns the announced message kind.
func (a *Arrival) Kind() Kind { return a.Meta.Kind }

func (ch *Channel) notifyArrival(l *Link, meta TxMeta) {
	q, ok := ch.arrival[l.Dst.Rank]
	if !ok {
		panic("mad: arrival for non-member " + l.Dst.Name)
	}
	if !q.TrySend(Arrival{Link: l, Meta: meta}) {
		panic("mad: arrival queue overflow on " + ch.Name)
	}
}

// Endpoint is a channel as seen from one member node; all communication
// calls go through endpoints.
type Endpoint struct {
	ch   *Channel
	node *Node
}

// At returns the endpoint of node n on the channel, made with the channel.
func (ch *Channel) At(n *Node) *Endpoint {
	e, ok := ch.members[n.Rank]
	if !ok {
		panic(fmt.Sprintf("mad: %v is not on channel %s", n, ch.Name))
	}
	return e
}

// Channel returns the endpoint's channel.
func (e *Endpoint) Channel() *Channel { return e.ch }

// Node returns the endpoint's node.
func (e *Endpoint) Node() *Node { return e.node }

// WaitArrival blocks until a message announcement reaches this node on this
// channel and returns it. One poll cost is charged per wakeup, as in the
// paper's polling threads.
func (e *Endpoint) WaitArrival(p *vtime.Proc) *Arrival {
	a := e.NextArrival(p)
	return &a
}

// NextArrival is WaitArrival for a poller that dispatches on the note and
// lets go of it: the note is returned by value.
func (e *Endpoint) NextArrival(p *vtime.Proc) Arrival {
	p.Sleep(e.node.Host.CPU.PollCost)
	a, ok := e.ch.arrival[e.node.Rank].Recv(p)
	if !ok {
		panic("mad: arrival queue closed on " + e.ch.Name)
	}
	return a
}

// TryArrival returns a pending announcement without blocking.
func (e *Endpoint) TryArrival() (*Arrival, bool) {
	a, ok := e.ch.arrival[e.node.Rank].TryRecv()
	if !ok {
		return nil, false
	}
	return &a, true
}
