package vtime

import (
	"container/heap"
	"math/rand"
	"testing"
)

// refHeap is the event queue the kernel used before eventHeap: pointers
// behind container/heap's interface{}. It stays here as the oracle the
// value-typed heap is compared against.
type refHeap []*event

func (h refHeap) Len() int            { return len(h) }
func (h refHeap) Less(i, j int) bool  { return h[i].before(h[j]) }
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(*event)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// TestEventHeapMatchesContainerHeap drives both queues with the same random
// interleaving of pushes and pops — times drawn from a small range so that
// ties on at, broken by seq, are common — and requires identical pop order.
func TestEventHeapMatchesContainerHeap(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var got eventHeap
		var want refHeap
		var seq uint64
		pop := func() {
			g := got.pop()
			w := heap.Pop(&want).(*event)
			if g.at != w.at || g.seq != w.seq {
				t.Fatalf("seed %d: popped (at=%d seq=%d), container/heap popped (at=%d seq=%d)",
					seed, g.at, g.seq, w.at, w.seq)
			}
		}
		for op := 0; op < 5000; op++ {
			if len(got) != want.Len() {
				t.Fatalf("seed %d: %d events queued, reference holds %d", seed, len(got), want.Len())
			}
			if len(got) > 0 && rng.Intn(3) == 0 {
				pop()
				continue
			}
			seq++
			e := event{at: Time(rng.Intn(64)), seq: seq}
			got.push(e)
			ref := e
			heap.Push(&want, &ref)
		}
		for len(got) > 0 {
			pop()
		}
		if want.Len() != 0 {
			t.Fatalf("seed %d: reference still holds %d events", seed, want.Len())
		}
	}
}

// TestEventHeapDropsReferences checks that a popped slot no longer pins the
// callback or process it carried: the backing array outlives the event.
func TestEventHeapDropsReferences(t *testing.T) {
	var h eventHeap
	for i := 0; i < 8; i++ {
		h.push(event{at: Time(i), seq: uint64(i), fn: func() {}, p: &proc{}})
	}
	for len(h) > 0 {
		h.pop()
	}
	for i, e := range h[:cap(h)] {
		if e.fn != nil || e.p != nil {
			t.Fatalf("slot %d still references its event's callback or process after pop", i)
		}
	}
}
