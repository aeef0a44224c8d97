package fault

// NewInjector is New; the ledger passes a nil tracer as its second argument.
//
// benchmark/ only: ROADMAP 8
func NewInjector(p *Plan, _ any) *Injector { return New(p) }
