package fwd

// Buffer pooling: every byte buffer the forwarding layer recycles is a
// buffer of the virtual channel's mad.Pool (vc.bufs), which its channels land
// transfers in too; DESIGN.md §33 has who takes and who returns each.
//
// Framing records are reused too (records, below; DESIGN.md §43). End zeroes
// one and puts it back, for nothing refers to it once End returns —
// sendMessage holds the blocks until then, the coalescer copies a message into
// its frame in add, a stream's transfers carry nothing of it (streamTx) — and
// its generation stops a stale handle (Packing); a GTM record keeps its lists'
// storage (gtmPacking.retire, streamUnpacking.retire). The lists belong to one
// virtual channel.

// records are the free lists of framing records — plain and GTM at each end,
// and a coalesced sub-message's — zero on a list but for their generation and
// their lists' storage, and of held messages, which keep their storage too.
type records struct {
	gtmPacking      freeList[gtmPacking, *gtmPacking]
	plainPacking    freeList[plainPacking, *plainPacking]
	streamUnpacking freeList[streamUnpacking, *streamUnpacking]
	aggUnpacking    freeList[aggUnpacking, *aggUnpacking]
	plainUnpacking  freeList[plainUnpacking, *plainUnpacking]
	held            freeList[heldMsg, *heldMsg]
}

// freeList is a LIFO of spare objects of one kind, the one free list of the
// forwarding layer's records: framing records, a sink's frame records and a
// reliable engine's bookkeeping, chained through the spare each one embeds.
type freeList[T any, P interface {
	*T
	spareLink() **T
}] struct{ head *T }

// spare links a record to the one behind it on its freeList.
type spare[T any] struct{ nextSpare *T }

func (s *spare[T]) spareLink() **T { return &s.nextSpare }

// framingRec is a framing record's spare and generation, which outlives each
// of its messages (retire) to stop a stale handle.
type framingRec[T any] struct {
	spare[T]
	gen uint32
}

// get returns the object put last, as it was put, or a new one.
func (l *freeList[T, P]) get() *T {
	x := l.head
	if x == nil {
		return new(T)
	}
	l.head, *P(x).spareLink() = *P(x).spareLink(), nil
	return x
}

// put keeps an object nothing refers to any more.
func (l *freeList[T, P]) put(x *T) { *P(x).spareLink(), l.head = l.head, x }

// retire puts a framing record whose message has ended, zeroed but for its
// generation gen, on l.
func (l *freeList[T, P]) retire(x *T, gen *uint32) {
	g := *gen
	*x = *new(T)
	*gen = g
	l.put(x)
}
