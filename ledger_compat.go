package madeleine

// WithFlowControl arms nothing. A gateway is bounded by its staging ring and
// its links' own windows, and every gateway relays deficit-round-robin
// (DESIGN.md §13).
//
// benchmark/ only: ROADMAP 8
func WithFlowControl() Option { return func(*Options) {} }
