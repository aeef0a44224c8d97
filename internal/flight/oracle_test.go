package flight

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"madgo/internal/vtime"
)

// refRing is the ring as it was first written: one []Event of the full
// capacity, allocated when the ring is made, every event stored with its
// node and network strings. It is the reference the chunked ring of 32-byte
// entries is held to.
type refRing struct {
	node    string
	buf     []Event
	next    uint64
	dropped uint64
}

func (r *refRing) Record(k Kind, at vtime.Time, dur vtime.Duration, msg uint64, bytes int, net string) {
	i := r.next % uint64(len(r.buf))
	if r.next >= uint64(len(r.buf)) {
		r.dropped++
	}
	r.buf[i] = Event{At: at, Dur: dur, Kind: k, Msg: msg, Bytes: int32(bytes), Node: r.node, Net: net}
	r.next++
}

func (r *refRing) Len() int {
	if r.next < uint64(len(r.buf)) {
		return int(r.next)
	}
	return len(r.buf)
}

func (r *refRing) SnapshotInto(dst []Event) []Event {
	dst = dst[:0]
	count := uint64(r.Len())
	start := r.next - count
	for i := uint64(0); i < count; i++ {
		dst = append(dst, r.buf[(start+i)%uint64(len(r.buf))])
	}
	return dst
}

// TestRingMatchesReference drives the ring and the reference with one seeded
// random stream for each capacity — batches that stop inside a chunk, cross
// its seams and wrap around, on more networks than a ring names inline — and
// after every batch holds Len, Dropped, SnapshotInto, Dump and WriteJSON to
// what the reference gives.
func TestRingMatchesReference(t *testing.T) {
	nets := []string{""}
	for i := 0; i < inlineNets+4; i++ {
		nets = append(nets, fmt.Sprintf("net%d", i))
	}
	nodes := []string{"a", "gw", "idle"} // "idle" is looked up and never written
	for _, capacity := range []int{1, 3, 4, 5, 7, 1000, 4096, 4097} {
		rng := rand.New(rand.NewSource(int64(capacity)))
		rec := NewRecorder(capacity)
		rings := map[string]*Ring{}
		refs := map[string]*refRing{}
		for _, n := range nodes {
			rings[n] = rec.Ring(n)
			refs[n] = &refRing{node: n, buf: make([]Event, capacity)}
		}
		quarter := (capacity + 3) / 4
		var wantDumps []Dump
		var snap []Event
		for batch := 0; batch < 8; batch++ {
			var n int
			switch rng.Intn(3) {
			case 0: // stop just short of, on or just past a chunk seam
				n = max(quarter+rng.Intn(3)-1, 0)
			case 1:
				n = rng.Intn(quarter + 1)
			default: // up to twice round the ring
				n = rng.Intn(2*capacity + 2)
			}
			for i := 0; i < n; i++ {
				node := nodes[rng.Intn(2)]
				k := Kind(rng.Intn(int(numKinds)))
				at := vtime.Time(rng.Int63n(1e12))
				dur := vtime.Duration(rng.Int63n(1e6))
				msg := rng.Uint64() >> uint(rng.Intn(64))
				bytes := rng.Intn(1 << 20)
				net := nets[rng.Intn(len(nets))]
				rings[node].Record(k, at, dur, msg, bytes, net)
				refs[node].Record(k, at, dur, msg, bytes, net)
			}

			var dropped uint64
			var want []RingSnapshot
			for _, node := range nodes {
				r, ref := rings[node], refs[node]
				if r.Len() != ref.Len() || r.Dropped() != ref.dropped {
					t.Fatalf("cap %d batch %d ring %s: len %d dropped %d, reference %d and %d",
						capacity, batch, node, r.Len(), r.Dropped(), ref.Len(), ref.dropped)
				}
				snap = r.SnapshotInto(snap)
				wantEvents := ref.SnapshotInto(nil)
				if !slices.Equal(snap, wantEvents) {
					t.Fatalf("cap %d batch %d ring %s: snapshot differs from the reference\n got %v\nwant %v",
						capacity, batch, node, snap, wantEvents)
				}
				dropped += ref.dropped
				want = append(want, RingSnapshot{Node: node, Dropped: ref.dropped, Events: append([]Event{}, wantEvents...)})
			}
			if rec.Dropped() != dropped {
				t.Fatalf("cap %d batch %d: recorder dropped %d, reference %d", capacity, batch, rec.Dropped(), dropped)
			}

			reason := fmt.Sprintf("batch %d", batch)
			rec.Dump(reason)
			wantDumps = append(wantDumps, Dump{Reason: reason, Rings: want})
			if got := rec.Dumps(); len(got) != len(wantDumps) || !reflect.DeepEqual(got[len(got)-1], wantDumps[len(wantDumps)-1]) {
				t.Fatalf("cap %d batch %d: dump differs from the reference", capacity, batch)
			}

			var got, ref bytes.Buffer
			if err := rec.WriteJSON(&got); err != nil {
				t.Fatal(err)
			}
			enc := json.NewEncoder(&ref)
			enc.SetIndent("", "  ")
			if err := enc.Encode(struct {
				Rings []RingSnapshot `json:"rings"`
				Dumps []Dump         `json:"dumps,omitempty"`
			}{want, wantDumps}); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), ref.Bytes()) {
				t.Fatalf("cap %d batch %d: WriteJSON differs from the reference", capacity, batch)
			}
		}
	}
}
