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
// There is one write path and it allocates nothing (DESIGN.md §19):
// instrumented code binds a series handle once (BindCounter, BindGauge,
// BindHistogram), keeps it on the object that owns the labels, and writes
// through it. The handle's first write builds the canonical key and finds or
// creates the series; every later one is an atomic update or an update under
// the histogram's own lock. The string-keyed Add/Set/Observe are the same
// writes with the lookup in front of each, for drivers and tests. A series
// exists from its first write, so a handle bound and never used changes no
// output. Hop events are stored as fixed fields in fixed-size chunks; the
// readers render Detail and build the per-message index.
//
// A nil *Registry is valid, binds nil handles and records nothing, and a nil
// handle is a no-op, so instrumented code needs no conditionals — the same
// convention as trace.Tracer. All methods are safe for concurrent use; the
// simulation itself is single-threaded, but tests and tools may read while
// goroutines record.
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

// Registry collects labeled counters, gauges and histograms plus the
// per-message hop log. The zero value is not usable; call New.
type Registry struct {
	mu     sync.Mutex // clock and the series maps: binding and reading, never a handle's write
	clock  func() vtime.Time
	series [numKinds]map[string]*series

	hopMu   sync.Mutex
	chunks  [][]hopRec // the nhops records of the log; all chunks full but the last
	nhops   int
	byMsg   map[uint64][]int // log positions per message, covering the first indexed hops
	indexed int
}

// series is one labeled counter, gauge or histogram, created by its first write.
type series struct {
	name   string
	labels Labels
	key    string        // canonical identity: name{k1="v1",k2="v2"}, keys sorted
	bits   atomic.Uint64 // a counter's or gauge's value, as math.Float64bits
	hist   *histogram    // nil unless a histogram
}

// value reads a counter or gauge; a nil series (absent, never written) is zero.
func (s *series) value() float64 {
	if s == nil {
		return 0
	}
	return math.Float64frombits(s.bits.Load())
}

// handle names one series of one registry and remembers it once found. The
// lookup is left to the first write, so binding is one small allocation
// whenever it happens, and a handle never written leaves nothing in snapshots.
type handle struct {
	reg    *Registry
	kind   int
	name   string
	labels Labels
	s      atomic.Pointer[series]
}

// resolve returns the handle's series, looking it up (creating it, when create
// is set) unless an earlier call already has; nil for a nil handle.
func (h *handle) resolve(create bool) *series {
	if h == nil {
		return nil
	}
	s := h.s.Load()
	if s == nil {
		if s = h.reg.find(h.kind, h.name, h.labels, create); s != nil {
			h.s.Store(s)
		}
	}
	return s
}

// Counter, Gauge and Histogram are the handles of one series each. A nil
// handle (what a nil registry binds) ignores writes and reads as zero.
type (
	Counter   handle
	Gauge     handle
	Histogram handle
)

// add, set and observe are the writes, behind both doors: a handle's series
// is remembered, the string-keyed methods find theirs every time. A nil series
// (nil registry, nil handle) ignores them.
func (s *series) add(delta float64) {
	if s == nil {
		return
	}
	if delta < 0 {
		panic("obs: counter " + s.name + " decremented")
	}
	for {
		old := s.bits.Load()
		if s.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+delta)) {
			return
		}
	}
}

func (s *series) set(v float64) {
	if s != nil {
		s.bits.Store(math.Float64bits(v))
	}
}

func (s *series) observe(v float64) {
	if s == nil {
		return
	}
	if v < 0 {
		panic("obs: negative histogram observation on " + s.name)
	}
	s.hist.observe(v)
}

// Add increments the counter by delta. A delta of zero registers the series so
// it appears in snapshots before the first event.
func (c *Counter) Add(delta float64) { (*handle)(c).resolve(true).add(delta) }

// Value returns the counter's current value.
func (c *Counter) Value() float64 { return (*handle)(c).resolve(false).value() }

// Set sets the gauge to v.
func (g *Gauge) Set(v float64) { (*handle)(g).resolve(true).set(v) }

// Value returns the gauge's current value.
func (g *Gauge) Value() float64 { return (*handle)(g).resolve(false).value() }

// Observe records v into the histogram.
func (h *Histogram) Observe(v float64) { (*handle)(h).resolve(true).observe(v) }

// ObserveDuration records a virtual duration, in seconds.
func (h *Histogram) ObserveDuration(d vtime.Duration) { h.Observe(d.Seconds()) }

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

// find looks a series up, creating it when create is set. The key is built in
// a stack buffer, so a hit allocates nothing.
func (r *Registry) find(kind int, name string, labels Labels, create bool) *series {
	if r == nil {
		return nil
	}
	var buf [128]byte
	k := appendKey(buf[:0], name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.series[kind][string(k)]
	if s == nil && create {
		s = &series{name: name, labels: copyLabels(labels), key: string(k)}
		if kind == kindHistogram {
			s.hist = new(histogram)
		}
		r.series[kind][s.key] = s
	}
	return s
}

// bind returns a handle of the named series; nil from a nil registry.
func (r *Registry) bind(kind int, name string, labels Labels) *handle {
	if r == nil {
		return nil
	}
	return &handle{reg: r, kind: kind, name: name, labels: labels}
}

// BindCounter returns a handle of the named counter series. Bind once and keep
// the handle: its first write is the slow step, every later one a pointer
// bump. The handle keeps labels until then, so they must not change.
func (r *Registry) BindCounter(name string, labels Labels) *Counter {
	return (*Counter)(r.bind(kindCounter, name, labels))
}

// BindGauge returns a handle of the named gauge series.
func (r *Registry) BindGauge(name string, labels Labels) *Gauge {
	return (*Gauge)(r.bind(kindGauge, name, labels))
}

// BindHistogram returns a handle of the named histogram series.
func (r *Registry) BindHistogram(name string, labels Labels) *Histogram {
	return (*Histogram)(r.bind(kindHistogram, name, labels))
}

// Add increments the named counter series by delta: what a handle does, with
// the lookup on every call.
func (r *Registry) Add(name string, labels Labels, delta float64) {
	r.find(kindCounter, name, labels, true).add(delta)
}

// Set sets the named gauge series to v.
func (r *Registry) Set(name string, labels Labels, v float64) {
	r.find(kindGauge, name, labels, true).set(v)
}

// Observe records v into the named histogram series.
func (r *Registry) Observe(name string, labels Labels, v float64) {
	r.find(kindHistogram, name, labels, true).observe(v)
}

// ObserveDuration records a virtual duration, in seconds, into the named
// histogram series.
func (r *Registry) ObserveDuration(name string, labels Labels, d vtime.Duration) {
	r.Observe(name, labels, d.Seconds())
}

// Counter returns the current value of a counter series (0 when absent).
func (r *Registry) Counter(name string, labels Labels) float64 {
	return r.find(kindCounter, name, labels, false).value()
}

// Gauge returns the current value of a gauge series (0 when absent).
func (r *Registry) Gauge(name string, labels Labels) float64 {
	return r.find(kindGauge, name, labels, false).value()
}

// Quantile returns the q-quantile estimate of a histogram series, with
// ok=false when the series is absent or empty.
func (r *Registry) Quantile(name string, labels Labels, q float64) (float64, bool) {
	s := r.find(kindHistogram, name, labels, false)
	if s == nil {
		return 0, false
	}
	s.hist.mu.Lock()
	defer s.hist.mu.Unlock()
	return s.hist.quantile(q), s.hist.count > 0
}

// HistogramCount returns the observation count of a histogram series.
func (r *Registry) HistogramCount(name string, labels Labels) int64 {
	return r.find(kindHistogram, name, labels, false).count()
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
