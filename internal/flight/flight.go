// Package flight is the always-on flight recorder of the reproduction: a
// set of bounded, allocation-free per-node ring buffers of structured
// events (sends, receives, gateway buffer swaps, relay stalls,
// retransmits, probes, route-epoch changes), each stamped with virtual
// time. The recorder answers the question the aggregate metrics of
// package obs cannot: "what exactly was node gw doing in the microseconds
// before this DeliveryError fired?".
//
// The design mirrors hardware event counters: recording is a fixed-cost
// store of a 32-byte entry into a per-node ring, so the recorder stays
// armed on every run rather than being a debug mode. A ring's storage is
// four quarter-capacity chunks, each allocated when the write cursor first
// reaches it: a node holds at most what it recorded, rounded up to a
// quarter, and once its ring has wrapped a record allocates nothing (both
// pinned by alloc_test.go). When something goes wrong — a
// DeliveryError, an ErrNoRoute, a health-epoch change — the forwarding
// layer calls Dump and the recorder snapshots every ring into a bounded
// dump list for post-mortem export.
//
// Three consumers sit on top of the raw rings: WriteJSON exports the
// state machine-readably, package trace derives the pipeline lanes, the
// timelines and the Chrome trace from the events, and package-level
// AnalyzeMessage / Diagnose (budget.go, diagnose.go) turn events into
// per-message latency budgets and named bottleneck verdicts.
//
// A nil *Recorder and a nil *Ring are both valid and record nothing, the
// same convention as obs.Registry, so instrumented code carries no
// conditionals.
package flight

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
	"sync"

	"madgo/internal/vtime"
)

// Kind tags what one recorded event is.
type Kind uint8

const (
	KindSend       Kind = iota // a payload transmission (link or gateway egress)
	KindRecv                   // a payload reception (gateway ingress)
	KindSwap                   // a gateway buffer swap (§3.4.1 fixed overhead)
	KindStall                  // a relay thread blocked waiting for a free buffer
	KindRexmit                 // an ack timeout expired; the wait that preceded a retransmit
	KindBackoff                // a backoff sleep before a message-level resend
	KindPack                   // host-side packing cost (header build, copy to staging)
	KindQueueWait              // time an item sat in a relay queue before service
	KindAckWait                // successful wait for an end-to-end acknowledgement
	KindReassembly             // stripe reassembly: spread between rail completions
	KindProbe                  // a health probe round trip
	KindEpoch                  // a routing-epoch change published by the health monitor
	KindWire                   // a link-level send as timed by the mad layer
	KindAggFlush               // an aggregate frame flushed by the coalescer
	KindAggWait                // time a sub-message waited in a coalescer before its flush
	KindReplicate              // a multicast branch send (root fan-out or gateway replication)
	// Lane-only kinds: recorded for the derived lanes (package trace), with
	// no message ID, and read by budgets and Diagnose as nothing.
	KindRail        // one rail's share of a striped message; Net is the destination node, Tag the rail
	KindDrop        // a packet the fault injector lost
	KindCorrupt     // a packet the fault injector corrupted
	KindCorruptDrop // a reliable datagram or probe dropped for failing its checks
	numKinds
)

var kindNames = [numKinds]string{
	"send", "recv", "swap", "stall", "rexmit", "backoff", "pack",
	"queue-wait", "ack-wait", "reassembly", "probe", "epoch", "wire",
	"agg-flush", "agg-wait", "replicate", "rail", "drop", "corrupt", "corrupt-drop",
}

// The threads of a gateway's relay pipeline, as Event.Tag names them: a
// buffer switch is recorded by both, on the network each serves, so a
// gateway relaying both ways between two networks tells them apart by Tag.
const (
	TagRecv uint8 = 1 // the receive thread of the ingress network Net
	TagSend uint8 = 2 // the send thread of the egress network Net
)

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", k)
}

// Event is one flight-recorder event in the form every reader gets it.
// Dur is the span the event accounts for, ending at At (instantaneous
// events carry Dur 0). Msg is the provenance message ID when the event is
// message-attributed, 0 otherwise. A ring stores an event as an entry and
// expands it back into an Event when it is read; the string fields alias
// names the ring holds (node and network names). Tag qualifies the kind: a
// gateway pipeline thread (TagRecv, TagSend), a rail's index; the JSON
// export leaves it out.
type Event struct {
	At    vtime.Time
	Dur   vtime.Duration
	Kind  Kind
	Msg   uint64
	Bytes int32
	Node  string
	Net   string
	Tag   uint8
}

// MarshalJSON renders the event with nanosecond timestamps and the kind
// spelled out, the shape the madstat -json document embeds.
func (e Event) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		At    int64  `json:"at_ns"`
		Dur   int64  `json:"dur_ns,omitempty"`
		Kind  string `json:"kind"`
		Msg   uint64 `json:"msg,omitempty"`
		Bytes int32  `json:"bytes,omitempty"`
		Node  string `json:"node"`
		Net   string `json:"net,omitempty"`
	}{int64(e.At), int64(e.Dur), e.Kind.String(), e.Msg, e.Bytes, e.Node, e.Net})
}

// UnmarshalJSON parses the wire shape MarshalJSON emits, so exported
// recordings round-trip through tooling.
func (e *Event) UnmarshalJSON(data []byte) error {
	var raw struct {
		At    int64  `json:"at_ns"`
		Dur   int64  `json:"dur_ns"`
		Kind  string `json:"kind"`
		Msg   uint64 `json:"msg"`
		Bytes int32  `json:"bytes"`
		Node  string `json:"node"`
		Net   string `json:"net"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	kind := numKinds
	for k := Kind(0); k < numKinds; k++ {
		if kindNames[k] == raw.Kind {
			kind = k
			break
		}
	}
	if kind == numKinds {
		return fmt.Errorf("flight: unknown event kind %q", raw.Kind)
	}
	*e = Event{
		At: vtime.Time(raw.At), Dur: vtime.Duration(raw.Dur), Kind: kind,
		Msg: raw.Msg, Bytes: raw.Bytes, Node: raw.Node, Net: raw.Net,
	}
	return nil
}

// entry is how a ring stores one event: 32 bytes and no pointers, so a
// chunk of them is memory the garbage collector never scans. The node is
// the ring's, and the network is an index into the ring's name table.
type entry struct {
	at    vtime.Time
	dur   vtime.Duration
	msg   uint64
	bytes int32
	net   uint16
	kind  Kind
	tag   uint8
}

const (
	// numChunks is how many pieces a ring's storage comes in; each holds a
	// quarter of the capacity, rounded up, and is allocated when the write
	// cursor first reaches it.
	numChunks = 4
	// inlineNets is how many network names a ring's table holds in the
	// ring's own struct; a further name moves the table to the heap. A node
	// meets its networks, "" and the coalescer's flush reasons, which Record
	// takes as networks too.
	inlineNets = 8
	// maxNets bounds the table by its uint16 index; an event on a network
	// past it is recorded with none.
	maxNets = 1 << 16
)

// Ring is one node's bounded event buffer. Writes overwrite the oldest
// entry once the ring is full; Dropped counts the overwrites. The mutex
// makes recording safe under the race detector (tools read while the
// simulation records); Lock/Unlock on an uncontended mutex allocates
// nothing, so a record into a chunk already allocated allocates nothing.
type Ring struct {
	mu      sync.Mutex
	node    string
	cap     int // events held at most
	quarter int // entries a chunk: ⌈cap/numChunks⌉
	chunks  [numChunks][]entry
	ci, off int      // write cursor: chunk and offset in it
	next    uint64   // total events ever recorded
	nets    []string // name table, indexed by entry.net; nets[0] is ""
	netBuf  [inlineNets]string
}

func newRing(node string, capacity int) *Ring {
	r := &Ring{node: node, cap: capacity, quarter: (capacity + numChunks - 1) / numChunks}
	r.nets = r.netBuf[:1]
	return r
}

// Record appends one event. Nil-safe; it allocates only the chunk the
// write cursor enters for the first time, at most numChunks times a ring.
func (r *Ring) Record(k Kind, at vtime.Time, dur vtime.Duration, msg uint64, bytes int, net string) {
	r.RecordTag(k, 0, at, dur, msg, bytes, net)
}

// RecordTag is Record of an event with a Tag.
func (r *Ring) RecordTag(k Kind, tag uint8, at vtime.Time, dur vtime.Duration, msg uint64, bytes int, net string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	c := r.chunks[r.ci]
	if c == nil {
		c = make([]entry, min(r.quarter, r.cap-r.ci*r.quarter))
		r.chunks[r.ci] = c
	}
	c[r.off] = entry{at: at, dur: dur, msg: msg, bytes: int32(bytes), net: r.netIndex(net), kind: k, tag: tag}
	r.next++
	if r.off++; r.off == len(c) {
		r.off = 0
		if r.ci++; r.ci*r.quarter >= r.cap {
			r.ci = 0
		}
	}
	r.mu.Unlock()
}

// netIndex returns net's index in the name table, adding it if it is new.
func (r *Ring) netIndex(net string) uint16 {
	for i, s := range r.nets {
		if s == net {
			return uint16(i)
		}
	}
	if len(r.nets) == maxNets {
		return 0
	}
	r.nets = append(r.nets, net)
	return uint16(len(r.nets) - 1)
}

// held is Len under the ring's lock.
func (r *Ring) held() int {
	if r.next < uint64(r.cap) {
		return int(r.next)
	}
	return r.cap
}

// appendTo expands the held entries, oldest first, onto dst. The caller
// holds the lock.
func (r *Ring) appendTo(dst []Event) []Event {
	n := r.held()
	s := int((r.next - uint64(n)) % uint64(r.cap))
	for range n {
		c := s / r.quarter
		e := &r.chunks[c][s-c*r.quarter]
		dst = append(dst, Event{At: e.at, Dur: e.dur, Kind: e.kind, Msg: e.msg, Bytes: e.bytes, Node: r.node, Net: r.nets[e.net], Tag: e.tag})
		if s++; s == r.cap {
			s = 0
		}
	}
	return dst
}

// Node returns the node name the ring records for.
func (r *Ring) Node() string {
	if r == nil {
		return ""
	}
	return r.node
}

// Len returns the number of events currently held (at most the capacity).
func (r *Ring) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.held()
}

// Dropped returns how many events were overwritten before being read.
func (r *Ring) Dropped() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.next - uint64(r.held())
}

// SnapshotInto copies the ring's events, oldest first, into dst (reusing
// its backing array) and returns the filled slice. With cap(dst) at least
// Len the snapshot allocates nothing.
func (r *Ring) SnapshotInto(dst []Event) []Event {
	dst = dst[:0]
	if r == nil {
		return dst
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.appendTo(dst)
}

// Snapshot returns a fresh copy of the ring's events, oldest first.
func (r *Ring) Snapshot() []Event {
	if r == nil {
		return nil
	}
	return r.snapshot().Events
}

// snapshot copies the ring's events and drop count under one lock, into a
// slice as long as the ring holds.
func (r *Ring) snapshot() RingSnapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.held()
	return RingSnapshot{Node: r.node, Dropped: r.next - uint64(n), Events: r.appendTo(make([]Event, 0, n))}
}

// DefaultRingCap is the per-node ring capacity when the caller passes 0.
const DefaultRingCap = 4096

// maxDumps bounds the post-mortem dump list so pathological runs (every
// message failing, a flapping link churning epochs) cannot grow memory
// without bound. Later triggers only bump a suppressed counter. Epoch dumps
// and error dumps share the one cap: a run that churns sixteen epochs before
// it fails keeps no dump of the failure, only its count.
const maxDumps = 16

// Dump is one post-mortem snapshot of every ring, taken when a trigger
// (DeliveryError, ErrNoRoute, health-epoch churn) fired.
type Dump struct {
	Reason string         `json:"reason"`
	At     vtime.Time     `json:"at_ns"`
	Rings  []RingSnapshot `json:"rings"`
}

// RingSnapshot is one ring's content inside a Dump or a JSON export.
type RingSnapshot struct {
	Node    string  `json:"node"`
	Dropped uint64  `json:"dropped,omitempty"`
	Events  []Event `json:"events"`
}

// Recorder owns the per-node rings. Rings are created on first use, so the
// recorder can be armed on a platform either before or after the
// forwarding layer is built — instrumentation looks its ring up lazily.
type Recorder struct {
	mu         sync.Mutex
	ringCap    int
	clock      func() vtime.Time
	rings      map[string]*Ring
	order      []*Ring // creation order
	dumps      []Dump
	suppressed int
}

// NewRecorder returns a recorder whose rings hold ringCap events each
// (DefaultRingCap when ringCap <= 0).
func NewRecorder(ringCap int) *Recorder {
	if ringCap <= 0 {
		ringCap = DefaultRingCap
	}
	return &Recorder{ringCap: ringCap, rings: make(map[string]*Ring)}
}

// SetClock installs the virtual-time source used to stamp dumps (typically
// vtime.Sim.Now).
func (rec *Recorder) SetClock(fn func() vtime.Time) {
	if rec == nil {
		return
	}
	rec.mu.Lock()
	rec.clock = fn
	rec.mu.Unlock()
}

func (rec *Recorder) now() vtime.Time {
	if rec.clock == nil {
		return 0
	}
	return rec.clock()
}

// Ring returns the named node's ring, creating it on first use. Nil-safe:
// a nil recorder returns a nil ring, which records nothing.
func (rec *Recorder) Ring(node string) *Ring {
	if rec == nil {
		return nil
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	r := rec.rings[node]
	if r == nil {
		r = newRing(node, rec.ringCap)
		rec.rings[node] = r
		rec.order = append(rec.order, r)
	}
	return r
}

// Nodes returns the ring names, sorted.
func (rec *Recorder) Nodes() []string {
	if rec == nil {
		return nil
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	out := make([]string, len(rec.order))
	for i, r := range rec.order {
		out[i] = r.node
	}
	sort.Strings(out)
	return out
}

// Dropped returns the total events overwritten across all rings.
func (rec *Recorder) Dropped() uint64 {
	if rec == nil {
		return 0
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	var total uint64
	for _, r := range rec.order {
		total += r.Dropped()
	}
	return total
}

// snapshotRings copies every ring's current content, node-sorted.
func (rec *Recorder) snapshotRings() []RingSnapshot {
	if rec == nil {
		return nil
	}
	rec.mu.Lock()
	rings := append([]*Ring(nil), rec.order...)
	rec.mu.Unlock()
	slices.SortFunc(rings, func(a, b *Ring) int { return strings.Compare(a.node, b.node) })
	out := make([]RingSnapshot, len(rings))
	for i, r := range rings {
		out[i] = r.snapshot()
	}
	return out
}

// Events returns every recorded event across all rings, ordered by virtual
// time (ties keep node order, then ring order), for the analyzers.
func (rec *Recorder) Events() []Event {
	var out []Event
	for _, r := range rec.snapshotRings() {
		out = append(out, r.Events...)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// Dump snapshots every ring under the given reason. This is the cold path —
// it allocates freely — and it is bounded: after maxDumps triggers further
// calls only count as suppressed.
func (rec *Recorder) Dump(reason string) {
	if rec == nil {
		return
	}
	rec.mu.Lock()
	if len(rec.dumps) >= maxDumps {
		rec.suppressed++
		rec.mu.Unlock()
		return
	}
	at := rec.now()
	rec.mu.Unlock()

	d := Dump{Reason: reason, At: at, Rings: rec.snapshotRings()}

	rec.mu.Lock()
	if len(rec.dumps) < maxDumps {
		rec.dumps = append(rec.dumps, d)
	} else {
		rec.suppressed++
	}
	rec.mu.Unlock()
}

// Dumps returns the post-mortem snapshots taken so far.
func (rec *Recorder) Dumps() []Dump {
	if rec == nil {
		return nil
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	return append([]Dump(nil), rec.dumps...)
}

// Suppressed returns how many dump triggers fired after the dump list was
// full.
func (rec *Recorder) Suppressed() int {
	if rec == nil {
		return 0
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	return rec.suppressed
}

// WriteJSON exports the recorder — live rings plus accumulated dumps — as
// one JSON document.
func (rec *Recorder) WriteJSON(w io.Writer) error {
	doc := struct {
		Rings      []RingSnapshot `json:"rings"`
		Dumps      []Dump         `json:"dumps,omitempty"`
		Suppressed int            `json:"dumps_suppressed,omitempty"`
	}{Rings: []RingSnapshot{}}
	if rec != nil {
		doc.Rings = rec.snapshotRings()
		doc.Dumps = rec.Dumps()
		doc.Suppressed = rec.Suppressed()
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
