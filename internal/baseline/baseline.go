// Package baseline implements the two comparison points the paper argues
// against, so the benchmarks can quantify the benefit of the integrated
// forwarding mechanism:
//
//   - Nexus-style application-level forwarding (§1, §2.2.1): gateways run
//     ordinary application code that receives a whole message into
//     temporary buffers with regular unpack operations and re-sends it with
//     regular pack operations. Routing is not transparent, messages are
//     fully stored before being forwarded (no pipelining), and the message
//     must carry an application-level addressing header.
//   - PACX-MPI-style relaying (§1): intra-cluster legs use the native
//     network, but everything inter-cluster crosses a TCP/Fast-Ethernet
//     channel — the design the paper dismisses as "obviously not
//     acceptable for fast clusters of clusters".
package baseline

import (
	"encoding/binary"
	"fmt"

	"madgo/internal/hw"
	"madgo/internal/mad"
	"madgo/internal/route"
	"madgo/internal/topo"
	"madgo/internal/vtime"
	"madgo/internal/vtime/vsync"
)

// Options selects the baseline flavour.
type Options struct {
	// InterClusterNet, when non-empty, makes relay daemons send every
	// non-local message over the named network directly to its final
	// destination (the PACX pattern, with the network typically
	// "eth..."). When empty, relays follow the routing table over the
	// high-speed networks (the Nexus pattern).
	InterClusterNet string
	// RouteNetworks restricts the routing topology to the named
	// networks (the high-speed ones), so an omnipresent control network
	// does not short-circuit the relays. Empty means all networks.
	RouteNetworks []string
}

// Binding ties a topology network to its simulated fabric and driver, as in
// package fwd.
type Binding struct {
	Net *hw.Network
	Drv mad.Driver
}

// Message is a fully received message: the original sender and one buffer
// per packed block.
type Message struct {
	From   mad.Rank
	Blocks [][]byte
}

// Relay is an application-level forwarding fabric over plain Madeleine
// channels.
type Relay struct {
	sess *mad.Session
	tp   *topo.Topology
	tbl  *route.Table
	opts Options

	channels map[string]*mad.Channel
	nodes    map[string]*mad.Node
	merged   map[mad.Rank]*vsync.Chan[incoming]
	local    map[mad.Rank]*vsync.Chan[*Message] // daemon-delivered messages
	daemons  map[string]bool
	relayed  map[string]*int64
}

type incoming struct {
	ep *mad.Endpoint
	a  *mad.Arrival
}

// header layout: final destination, origin, block count (int32 each).
const msgHeaderLen = 12

// per-block descriptor: size (int32), send mode, receive mode, padding.
const blockHeaderLen = 8

// Build creates nodes, one regular channel per network, the per-node
// pollers, and the relay daemons on every gateway the routing table uses.
// The session must be empty.
func Build(sess *mad.Session, tp *topo.Topology, bindings map[string]Binding, opts Options) (*Relay, error) {
	if len(sess.Nodes()) != 0 {
		return nil, fmt.Errorf("baseline: session already has nodes")
	}
	for _, nw := range tp.Networks() {
		if _, ok := bindings[nw.Name]; !ok {
			return nil, fmt.Errorf("baseline: no binding for network %s", nw.Name)
		}
	}
	if opts.InterClusterNet != "" {
		if _, ok := tp.Network(opts.InterClusterNet); !ok {
			return nil, fmt.Errorf("baseline: unknown inter-cluster network %s", opts.InterClusterNet)
		}
	}
	routeTp := tp
	if len(opts.RouteNetworks) > 0 {
		var err error
		routeTp, err = tp.Restrict(opts.RouteNetworks...)
		if err != nil {
			return nil, err
		}
	}
	r := &Relay{
		sess:     sess,
		tp:       tp,
		tbl:      route.Compute(routeTp),
		opts:     opts,
		channels: make(map[string]*mad.Channel),
		nodes:    make(map[string]*mad.Node),
		merged:   make(map[mad.Rank]*vsync.Chan[incoming]),
		local:    make(map[mad.Rank]*vsync.Chan[*Message]),
		daemons:  make(map[string]bool),
		relayed:  make(map[string]*int64),
	}
	for _, n := range tp.Nodes() {
		r.nodes[n.Name] = sess.AddNode(n.Name)
	}
	for _, nw := range tp.Networks() {
		b := bindings[nw.Name]
		members := make([]*mad.Node, len(nw.Members))
		for i, m := range nw.Members {
			members[i] = r.nodes[m]
		}
		r.channels[nw.Name] = sess.NewChannel("bl:"+nw.Name, b.Net, b.Drv, members...)
	}

	// Relay daemons on every node some route uses as an intermediate.
	names := routeTp.NodeNames()
	var buf [8]route.Hop
	for _, src := range names {
		for _, dst := range names {
			if src == dst {
				continue
			}
			rt, ok := r.tbl.Hops(src, dst, buf[:0])
			if !ok {
				return nil, fmt.Errorf("baseline: no route %s -> %s", src, dst)
			}
			for _, h := range rt[:len(rt)-1] {
				r.daemons[h.To] = true
			}
		}
	}

	sim := sess.Platform.Sim
	for _, n := range tp.Nodes() {
		node := r.nodes[n.Name]
		q := vsync.NewChan[incoming](fmt.Sprintf("bl-merged:%s", n.Name), 4096)
		r.merged[node.Rank] = q
		r.local[node.Rank] = vsync.NewChan[*Message](fmt.Sprintf("bl-local:%s", n.Name), 4096)
		for _, nwName := range n.Networks {
			ep := r.channels[nwName].At(node)
			sim.SpawnDaemon(fmt.Sprintf("bl-poll:%s:%s", n.Name, nwName), func(p *vtime.Proc) {
				for {
					a := ep.WaitArrival(p)
					q.Send(p, incoming{ep: ep, a: a})
				}
			})
		}
	}
	for name := range r.daemons {
		node := r.nodes[name]
		count := new(int64)
		r.relayed[name] = count
		sim.SpawnDaemon(fmt.Sprintf("bl-relay:%s", name), func(p *vtime.Proc) {
			for {
				msg, finalDst := r.receiveOne(p, node)
				if finalDst == node.Rank {
					r.local[node.Rank].Send(p, msg)
					continue
				}
				*count++
				r.sendFrom(p, node, finalDst, msg)
			}
		})
	}
	return r, nil
}

// Relayed returns the number of messages the named gateway forwarded.
func (r *Relay) Relayed(name string) int64 {
	c, ok := r.relayed[name]
	if !ok {
		panic("baseline: no relay daemon on " + name)
	}
	return *c
}

// NodeRank returns the session rank of a topology node.
func (r *Relay) NodeRank(name string) mad.Rank {
	n, ok := r.nodes[name]
	if !ok {
		panic("baseline: unknown node " + name)
	}
	return n.Rank
}

// Send transmits blocks from node src to node dst with application-level
// routing: the message goes to the first-hop target of the routing table,
// where a relay daemon stores and re-sends it.
func (r *Relay) Send(p *vtime.Proc, src, dst string, blocks [][]byte) {
	node, ok := r.nodes[src]
	if !ok {
		panic("baseline: unknown node " + src)
	}
	msg := &Message{From: node.Rank, Blocks: blocks}
	r.sendFrom(p, node, r.NodeRank(dst), msg)
}

// sendFrom transmits toward finalDst: directly when reachable, otherwise to
// the next relay.
func (r *Relay) sendFrom(p *vtime.Proc, node *mad.Node, finalDst mad.Rank, msg *Message) {
	dstName := r.sess.Node(finalDst).Name
	var nwName, hopTo string
	if r.opts.InterClusterNet != "" && r.daemons[node.Name] {
		// PACX pattern: a relay pushes everything over the
		// inter-cluster network, straight to the destination.
		nwName, hopTo = r.opts.InterClusterNet, dstName
	} else {
		hop, ok := r.tbl.NextHop(node.Name, dstName)
		if !ok {
			panic(fmt.Sprintf("baseline: no route %s -> %s", node.Name, dstName))
		}
		nwName, hopTo = hop.Network, hop.To
	}
	ep := r.channels[nwName].At(node)
	px := ep.BeginPacking(p, r.NodeRank(hopTo))

	hdr := make([]byte, msgHeaderLen)
	binary.LittleEndian.PutUint32(hdr[0:], uint32(finalDst))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(msg.From))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(len(msg.Blocks)))
	px.Pack(p, hdr, mad.SendCheaper, mad.ReceiveExpress)
	for _, b := range msg.Blocks {
		bh := make([]byte, blockHeaderLen)
		binary.LittleEndian.PutUint32(bh[0:], uint32(len(b)))
		px.Pack(p, bh, mad.SendCheaper, mad.ReceiveExpress)
		px.Pack(p, b, mad.SendCheaper, mad.ReceiveCheaper)
	}
	px.EndPacking(p)
}

// receiveOne fully receives the next message arriving at the node —
// store-and-forward, exactly what the paper's integrated pipeline avoids.
func (r *Relay) receiveOne(p *vtime.Proc, node *mad.Node) (*Message, mad.Rank) {
	p.Sleep(node.Host.CPU.PollCost)
	in, ok := r.merged[node.Rank].Recv(p)
	if !ok {
		panic("baseline: merged queue closed")
	}
	u := in.ep.Open(p, in.a)
	hdr := make([]byte, msgHeaderLen)
	u.Unpack(p, hdr, mad.SendCheaper, mad.ReceiveExpress)
	finalDst := mad.Rank(binary.LittleEndian.Uint32(hdr[0:]))
	origin := mad.Rank(binary.LittleEndian.Uint32(hdr[4:]))
	nblocks := int(binary.LittleEndian.Uint32(hdr[8:]))
	msg := &Message{From: origin, Blocks: make([][]byte, nblocks)}
	for i := 0; i < nblocks; i++ {
		bh := make([]byte, blockHeaderLen)
		u.Unpack(p, bh, mad.SendCheaper, mad.ReceiveExpress)
		n := int(binary.LittleEndian.Uint32(bh[0:]))
		msg.Blocks[i] = make([]byte, n)
		u.Unpack(p, msg.Blocks[i], mad.SendCheaper, mad.ReceiveCheaper)
	}
	u.EndUnpacking(p)
	return msg, finalDst
}

// Recv blocks until a message for the named node arrives and returns it.
// On relay nodes it reads the daemon's local-delivery queue; elsewhere it
// receives directly.
func (r *Relay) Recv(p *vtime.Proc, name string) *Message {
	node, ok := r.nodes[name]
	if !ok {
		panic("baseline: unknown node " + name)
	}
	if r.daemons[name] {
		msg, ok := r.local[node.Rank].Recv(p)
		if !ok {
			panic("baseline: local queue closed")
		}
		return msg
	}
	for {
		msg, finalDst := r.receiveOne(p, node)
		if finalDst != node.Rank {
			panic(fmt.Sprintf("baseline: %s received a message for rank %d but runs no relay", name, finalDst))
		}
		return msg
	}
}
