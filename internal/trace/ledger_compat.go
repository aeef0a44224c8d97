package trace

import (
	"madgo/internal/hw"
	"madgo/internal/vtime"
)

// Tracer is what the ledger arms and times: Record keeps a span, and Spans
// returns the lanes of the platform Bind tied it to, or else what Record kept
// (benchmark/ only: ROADMAP 8).
type Tracer struct {
	spans Log
	pl    *hw.Platform
}

// New returns an empty tracer.
func New() *Tracer { return &Tracer{} }

// Record adds a completed span.
func (t *Tracer) Record(actor, op string, bytes int, t0, t1 vtime.Time) {
	t.spans = append(t.spans, Span{Actor: actor, Op: op, Bytes: bytes, T0: t0, T1: t1})
}

// Spans returns the bound lanes (a traced ledger run's rings hold every event).
func (t *Tracer) Spans() []Span {
	if t.pl == nil {
		return t.spans
	}
	l, _ := Of(t.pl)
	return l
}

// Bind ties Spans to a platform's lanes; binding a nil *Tracer does nothing.
func (t *Tracer) Bind(pl *hw.Platform) {
	if t != nil {
		t.pl = pl
	}
}
