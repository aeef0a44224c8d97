package madeleine

import "madgo/internal/trace"

// WithFlowControl arms nothing. A gateway is bounded by its staging ring and
// its links' own windows, and every gateway relays deficit-round-robin
// (DESIGN.md §13).
//
// benchmark/ only: ROADMAP 8
func WithFlowControl() Option { return func(*Options) {} }

// WithAggregation arms nothing. The cross-message coalescer is part of the
// eager small-message path, which WithEagerSmallMessages arms.
//
// benchmark/ only: ROADMAP 8
func WithAggregation() Option { return func(*Options) {} }

// Tracer is the ledger's handle on a system's lanes (benchmark/ only: ROADMAP 8).
type Tracer = trace.Tracer

// NewTracer returns a tracer for WithTracer (benchmark/ only: ROADMAP 8).
func NewTracer() *Tracer { return trace.New() }

// WithTracer binds tr to the system's lanes, which its Spans then return
// (benchmark/ only: ROADMAP 8).
func WithTracer(tr *Tracer) Option { return func(o *Options) { o.Tracer = tr } }
