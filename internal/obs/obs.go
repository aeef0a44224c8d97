// Package obs is the observability layer of the reproduction: a
// virtual-time-aware metrics registry (counters, gauges and log-bucketed
// latency histograms with quantile queries, keyed by free-form labels) plus
// causal per-message tracing — every message packed on a virtual channel
// gets an ID, and every layer it crosses appends hop events, so a single
// message's full provenance (fragmentation, gateway relays, retransmits,
// failovers, end-to-end acks) can be reconstructed after the run.
//
// The registry is the quantitative counterpart of package trace's span
// recorder: spans answer "what was this lane doing at t", the registry
// answers "how many, how big, how long" over the whole run, and the hop log
// answers "where did message 17 go". Exporters turn all three into
// machine-readable artifacts: a Prometheus-style text snapshot
// (WritePrometheus) and a Chrome trace_event JSON loadable in Perfetto
// (WriteChromeTrace).
//
// There is one write path and it allocates nothing (DESIGN.md §19, §21). A
// Counter is a field of the object that counts: it holds its own number, with
// or without a registry, and is what the owner's statistics read; BindCounter
// binds it under name{labels}, and a series reads as the sum of the counters
// bound under its key. Gauges and histograms live in the registry: BindGauge
// and BindHistogram find or create the series once and return a pointer into
// it. A write is an atomic update or an update under the histogram's own lock;
// the string-keyed Add/Set/Observe are the same writes with the lookup in
// front of each, for drivers and tests. A series shows in snapshots from its
// first write (a zero Add counts), so binding alone changes no output. Hop
// events are stored as fixed fields in fixed-size chunks; the readers render
// Detail and build the per-message index.
//
// A nil *Registry is valid: it attaches nothing, binds nil gauge and histogram
// handles, which ignore writes, and records no hops, so instrumented code needs
// no conditionals — the same convention as flight.Recorder. All methods are safe
// for concurrent use; the simulation itself is single-threaded, but tests and
// tools may read while goroutines record.
package obs

import (
	"fmt"
	"math"
	"os"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"madgo/internal/vtime"
)

// Labels is one metric's label set. Callers pass literals; the registry
// canonicalizes (sorted keys) so the same set always names the same series.
type Labels map[string]string

// Hop is one event in a message's life: packed, sent over a hop, relayed,
// retransmitted, failed over, delivered, acknowledged end to end.
type Hop struct {
	Msg    uint64     // message ID assigned at pack time
	At     vtime.Time // virtual time of the event
	Node   string     // where it happened
	Op     string     // "pack", "hop", "relay", "rexmit", "failover", "deliver", "e2e", ...
	Detail string     // human-readable specifics ("frag 3 -> gw via sci0")
	Bytes  int        // payload bytes involved (0 for control events)
}

func (h Hop) String() string {
	return fmt.Sprintf("%12v  %-8s %-10s %6dB  %s", h.At, h.Node, h.Op, h.Bytes, h.Detail)
}

// Detail is a hop's specifics as fixed fields: a constant sentence and the
// three strings and two numbers it may mention, put together only when a
// reader asks for Hop.Detail. Form refers to them as ${peer}, ${net}, ${note},
// ${a}, ${b}, and to the hop's own ${node} and ${bytes}; the values are data,
// never parsed. An empty Form means Note is the whole text.
type Detail struct {
	Form            string
	Peer, Net, Note string // the other node, the network, and whatever else (a reason, a list)
	A, B            int
}

// text renders the sentence for a hop at node carrying bytes.
func (d Detail) text(node string, bytes int) string {
	if d.Form == "" {
		return d.Note
	}
	return os.Expand(d.Form, func(field string) string {
		switch field {
		case "node":
			return node
		case "peer":
			return d.Peer
		case "net":
			return d.Net
		case "note":
			return d.Note
		case "a":
			return strconv.Itoa(d.A)
		case "b":
			return strconv.Itoa(d.B)
		case "bytes":
			return strconv.Itoa(bytes)
		}
		panic("obs: hop sentence mentions unknown field " + field)
	})
}

// hopRec is a Hop as recorded; hopChunk of them make one block of the log, so
// growing the log never copies what is already in it.
type hopRec struct {
	msg      uint64
	at       vtime.Time
	node, op string
	d        Detail
	bytes    int
}

const hopChunk = 256

func (h *hopRec) hop() Hop {
	return Hop{Msg: h.msg, At: h.at, Node: h.node, Op: h.op, Detail: h.d.text(h.node, h.bytes), Bytes: h.bytes}
}

// The three kinds of series, in snapshot order.
const (
	kindCounter = iota
	kindGauge
	kindHistogram
	numKinds
)

var kindNames = [numKinds]string{"counter", "gauge", "histogram"}

// Registry indexes labeled counters, gauges and histograms under their
// canonical keys and holds the per-message hop log. The zero value is not
// usable; call New.
type Registry struct {
	mu     sync.Mutex // clock, bound, the series maps and lists: binding and reading, never a write
	clock  func() vtime.Time
	series [numKinds]map[string]*series
	bound  []binding // counters bound and not written yet, as far as the last reader saw

	hopMu   sync.Mutex
	chunks  [][]hopRec // the nhops records of the log; all chunks full but the last
	nhops   int
	byMsg   map[uint64][]int // log positions per message, covering the first indexed hops
	indexed int
}

// Counter is one owner's count of one kind of event, a field of the object
// that counts: the zero value is ready and needs no registry (DESIGN.md §21).
// It counts whole numbers — events, bytes, packets — so an increment is one
// atomic add, and a series, the sum of its counters, is exact in any order.
type Counter struct {
	n atomic.Int64
	// written is set by any Add, a zero one included, which is how a series
	// is registered ahead of its first event.
	written atomic.Bool
}

// Add increments the counter by delta; a delta of zero only marks it written.
func (c *Counter) Add(delta int64) {
	if delta < 0 {
		panic("obs: counter decremented")
	}
	if !c.written.Load() { // loading first, only the first write stores
		c.written.Store(true)
	}
	c.n.Add(delta)
}

// Count returns the counter's own count, whatever else its series sums.
func (c *Counter) Count() int64 { return c.n.Load() }

// Gauge is a float64 written atomically that remembers whether it ever was. A
// series holds one — a gauge's value, and of a counter what was added by name —
// and a pointer to it is the gauge's handle. A nil handle (what a nil registry
// binds) ignores writes and reads as zero.
type Gauge struct {
	bits    atomic.Uint64 // math.Float64bits of the value
	written atomic.Bool
}

// Set sets the gauge to v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
		if !g.written.Load() {
			g.written.Store(true)
		}
	}
}

// Value returns the gauge's current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// series is one labeled counter, gauge or histogram. It exists once bound or
// written by name, and shows in snapshots once written.
type series struct {
	name   string
	labels Labels
	key    string // canonical identity: name{k1="v1",k2="v2"}, keys sorted
	// A gauge's value is own. A counter reads as the sum of own, what was
	// added by name, and of the attached counters, each its owner's count.
	own      Gauge
	attached []*Counter
	hist     *Histogram // nil unless a histogram
}

// read returns a counter's or gauge's value and whether anything ever wrote
// the series (an attached counter was written); the registry's mu must be held.
func (s *series) read() (v float64, written bool) {
	v = s.own.Value()
	for _, c := range s.attached {
		v += float64(c.Count())
	}
	return v, s.own.written.Load() || len(s.attached) > 0 || s.hist.Count() > 0
}

// gauge and histogram are the handles into a series; nil for a nil series
// (nil registry, or a lookup that found nothing).
func (s *series) gauge() *Gauge {
	if s == nil {
		return nil
	}
	return &s.own
}

func (s *series) histogram() *Histogram {
	if s == nil {
		return nil
	}
	return s.hist
}

// New returns an empty registry.
func New() *Registry {
	r := &Registry{}
	for k := range r.series {
		r.series[k] = make(map[string]*series)
	}
	return r
}

// SetClock installs the virtual-time source used to stamp snapshots
// (typically vtime.Sim.Now). A registry without a clock stamps time zero.
func (r *Registry) SetClock(fn func() vtime.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.clock = fn
	r.mu.Unlock()
}

// Now returns the registry's current virtual time.
func (r *Registry) Now() vtime.Time {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	fn := r.clock
	r.mu.Unlock()
	if fn == nil {
		return 0
	}
	return fn()
}

// labelKeys appends the label keys to dst (the caller's stack array), sorted.
func labelKeys(dst []string, labels Labels) []string {
	for k := range labels {
		dst = append(dst, k)
	}
	slices.Sort(dst)
	return dst
}

// appendPairs appends k1="v1",k2="v2" for the given keys.
func appendPairs(dst []byte, keys []string, labels Labels) []byte {
	for i, k := range keys {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(append(dst, k...), '=')
		dst = strconv.AppendQuote(dst, labels[k])
	}
	return dst
}

// appendKey appends the canonical series identity: name{k1="v1",k2="v2"} with
// keys sorted, or the bare name without labels.
func appendKey(dst []byte, name string, labels Labels) []byte {
	dst = append(dst, name...)
	if len(labels) == 0 {
		return dst
	}
	var ks [8]string
	dst = appendPairs(append(dst, '{'), labelKeys(ks[:0], labels), labels)
	return append(dst, '}')
}

// copyLabels snapshots a label map so later caller mutation cannot corrupt
// the series identity.
func copyLabels(l Labels) Labels {
	if len(l) == 0 {
		return nil
	}
	out := make(Labels, len(l))
	for k, v := range l {
		out[k] = v
	}
	return out
}

// lookup returns the series of a key, creating it — unwritten, so in no
// snapshot yet — when create is set. The key is built in a stack buffer, so a
// hit allocates nothing. mu must be held.
func (r *Registry) lookup(kind int, name string, labels Labels, create bool) *series {
	var buf [128]byte
	k := appendKey(buf[:0], name, labels)
	s := r.series[kind][string(k)]
	if s == nil && create {
		s = &series{name: name, labels: copyLabels(labels), key: string(k)}
		if kind == kindHistogram {
			s.hist = new(Histogram)
		}
		r.series[kind][s.key] = s
	}
	return s
}

// find is lookup under the lock; nil from a nil registry.
func (r *Registry) find(kind int, name string, labels Labels, create bool) *series {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lookup(kind, name, labels, create)
}

// binding is a counter bound under a series it is not attached to yet.
type binding struct {
	c      *Counter
	name   string
	labels Labels
}

// BindCounter binds c, a counter its owner holds and goes on writing, under
// the named series: once c has been written, the series includes whatever it
// has counted and will count. Binding is a note, so that the many counters
// that never count cost no series; the readers attach the written ones.
// Binding c under the same key again changes nothing, a nil registry notes
// nothing — c counts all the same — and labels must not change afterwards.
func (r *Registry) BindCounter(c *Counter, name string, labels Labels) {
	if r != nil {
		r.mu.Lock()
		r.bound = append(r.bound, binding{c, name, labels})
		r.mu.Unlock()
	}
}

// attach moves every bound counter written since the last reader asked under
// its series; mu must be held.
func (r *Registry) attach() {
	waiting := r.bound[:0]
	for _, b := range r.bound {
		if !b.c.written.Load() {
			waiting = append(waiting, b)
		} else if s := r.lookup(kindCounter, b.name, b.labels, true); !slices.Contains(s.attached, b.c) {
			s.attached = append(s.attached, b.c)
		}
	}
	clear(r.bound[len(waiting):])
	r.bound = waiting
}

// BindGauge returns the handle of the named gauge series; nil from a nil
// registry. Bind once and keep the handle: a write through it is one atomic
// store, where Set by name builds the key and looks the series up every time.
func (r *Registry) BindGauge(name string, labels Labels) *Gauge {
	return r.find(kindGauge, name, labels, true).gauge()
}

// BindHistogram returns the handle of the named histogram series; nil from a
// nil registry.
func (r *Registry) BindHistogram(name string, labels Labels) *Histogram {
	return r.find(kindHistogram, name, labels, true).histogram()
}

// Add increments the named counter series by delta: a count the series keeps
// itself, beside whatever counters are attached to it, and adds to under the
// registry's lock.
func (r *Registry) Add(name string, labels Labels, delta float64) {
	if r == nil {
		return
	}
	if delta < 0 {
		panic("obs: counter " + name + " decremented")
	}
	r.mu.Lock()
	s := r.lookup(kindCounter, name, labels, true)
	s.own.Set(s.own.Value() + delta)
	r.mu.Unlock()
}

// Set sets the named gauge series to v.
func (r *Registry) Set(name string, labels Labels, v float64) {
	r.find(kindGauge, name, labels, true).gauge().Set(v)
}

// Observe records v into the named histogram series.
func (r *Registry) Observe(name string, labels Labels, v float64) {
	r.find(kindHistogram, name, labels, true).histogram().Observe(v)
}

// Counter returns the current value of a counter series (0 when absent).
func (r *Registry) Counter(name string, labels Labels) float64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attach()
	if s := r.lookup(kindCounter, name, labels, false); s != nil {
		v, _ := s.read()
		return v
	}
	return 0
}

// Gauge returns the current value of a gauge series (0 when absent).
func (r *Registry) Gauge(name string, labels Labels) float64 {
	return r.find(kindGauge, name, labels, false).gauge().Value()
}

// Quantile returns the q-quantile estimate of a histogram series, with
// ok=false when the series is absent or empty.
func (r *Registry) Quantile(name string, labels Labels, q float64) (float64, bool) {
	h := r.find(kindHistogram, name, labels, false).histogram()
	if h == nil {
		return 0, false
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.quantile(q), h.count > 0
}

// HistogramCount returns the observation count of a histogram series.
func (r *Registry) HistogramCount(name string, labels Labels) int64 {
	return r.find(kindHistogram, name, labels, false).histogram().Count()
}

// RecordHop appends one event with ready-made detail text to a message's
// provenance log.
func (r *Registry) RecordHop(msg uint64, at vtime.Time, node, op, detail string, bytes int) {
	r.RecordHopDetail(msg, at, node, op, Detail{Note: detail}, bytes)
}

// RecordHopDetail appends one event to a message's provenance log: a copy
// into the current chunk, nothing formatted or indexed.
func (r *Registry) RecordHopDetail(msg uint64, at vtime.Time, node, op string, d Detail, bytes int) {
	if r == nil {
		return
	}
	r.hopMu.Lock()
	if r.nhops%hopChunk == 0 {
		r.chunks = append(r.chunks, make([]hopRec, 0, hopChunk))
	}
	last := &r.chunks[r.nhops/hopChunk]
	*last = append(*last, hopRec{msg: msg, at: at, node: node, op: op, d: d, bytes: bytes})
	r.nhops++
	r.hopMu.Unlock()
}

// index extends the per-message index over the hops recorded since the last
// reader asked for it; hopMu must be held.
func (r *Registry) index() map[uint64][]int {
	if r.byMsg == nil {
		r.byMsg = make(map[uint64][]int)
	}
	for ; r.indexed < r.nhops; r.indexed++ {
		msg := r.chunks[r.indexed/hopChunk][r.indexed%hopChunk].msg
		r.byMsg[msg] = append(r.byMsg[msg], r.indexed)
	}
	return r.byMsg
}

// MessageTrace returns the full hop sequence of one message, ordered by
// virtual time (ties keep recording order). Nil when the message is unknown.
func (r *Registry) MessageTrace(msg uint64) []Hop {
	if r == nil {
		return nil
	}
	r.hopMu.Lock()
	defer r.hopMu.Unlock()
	idx := r.index()[msg]
	if len(idx) == 0 {
		return nil
	}
	out := make([]Hop, len(idx))
	for i, j := range idx {
		out[i] = r.chunks[j/hopChunk][j%hopChunk].hop()
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// Messages returns the IDs of every traced message, ascending.
func (r *Registry) Messages() []uint64 {
	if r == nil {
		return nil
	}
	r.hopMu.Lock()
	defer r.hopMu.Unlock()
	byMsg := r.index()
	out := make([]uint64, 0, len(byMsg))
	for id := range byMsg {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Hops returns every recorded hop event in recording order.
func (r *Registry) Hops() []Hop {
	if r == nil {
		return nil
	}
	r.hopMu.Lock()
	defer r.hopMu.Unlock()
	if r.nhops == 0 {
		return nil
	}
	out := make([]Hop, 0, r.nhops)
	for _, c := range r.chunks {
		for i := range c {
			out = append(out, c[i].hop())
		}
	}
	return out
}
