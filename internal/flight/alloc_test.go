package flight

import (
	"runtime"
	"testing"
	"unsafe"

	"madgo/internal/vtime"
)

// The recorder is always on, so its hot path must keep the kernel's pool
// discipline: recording an event into a ring that has wrapped and
// snapshotting a ring are 0 allocs/op, and filling a ring allocates one
// chunk a quarter of its capacity and nothing else. Ring lookup
// (Recorder.Ring) is excluded — instrumentation caches its ring after the
// first call.

// TestRecordZeroAllocs measures the steady state on a wrapped ring, where
// testing.AllocsPerRun's integer truncation hides nothing because there is
// nothing left to allocate, and counts the fill phase exactly: one
// allocation a chunk the write cursor reaches.
func TestRecordZeroAllocs(t *testing.T) {
	const capacity = 256 // chunks of 64
	rec := NewRecorder(capacity)
	r := rec.Ring("gw")
	var at vtime.Time
	record := func(n int) {
		for i := 0; i < n; i++ {
			at += vtime.Time(vtime.Microsecond)
			r.Record(KindSend, at, 5*vtime.Microsecond, 17, 32*1024, "sci0")
		}
	}
	record(1) // name the network: the table is inline, so this is chunk 0's allocation only

	for _, step := range []struct{ n, chunks int }{
		{63, 0},  // the rest of chunk 0
		{1, 1},   // the first entry of chunk 1
		{64, 1},  // the rest of chunk 1 and the first of chunk 2
		{127, 1}, // to the last entry of chunk 3
		{1, 0},   // wraps into chunk 0
	} {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		record(step.n)
		runtime.ReadMemStats(&m1)
		if got := m1.Mallocs - m0.Mallocs; got != uint64(step.chunks) {
			t.Fatalf("recording %d events up to event %d allocated %d objects, want %d (one a chunk reached)",
				step.n, r.Len()+int(r.Dropped()), got, step.chunks)
		}
	}
	if r.Dropped() != 1 {
		t.Fatalf("dropped = %d after one event past the capacity, want 1", r.Dropped())
	}

	allocs := testing.AllocsPerRun(1000, func() { record(1) })
	if allocs != 0 {
		t.Fatalf("Record on a wrapped ring allocates %.3f allocs/op, want 0", allocs)
	}
}

func TestSnapshotIntoZeroAllocs(t *testing.T) {
	rec := NewRecorder(256)
	r := rec.Ring("gw")
	for i := 0; i < 512; i++ { // wrapped, so the copy spans the seam
		r.Record(KindRecv, vtime.Time(i), 0, uint64(i), 64, "myri0")
	}
	buf := make([]Event, 0, 256)
	var got int
	allocs := testing.AllocsPerRun(1000, func() {
		buf = r.SnapshotInto(buf)
		got = len(buf)
	})
	if allocs != 0 {
		t.Fatalf("SnapshotInto allocates %.1f allocs/op, want 0", allocs)
	}
	if got != 256 {
		t.Fatalf("snapshot len = %d, want 256", got)
	}
}

// TestRingFootprint pins what a ring holds in memory: 32 bytes an entry, no
// entry before the first record, and ⌈n / ⌈cap/4⌉⌉ chunks for n events,
// never more entries than the capacity.
func TestRingFootprint(t *testing.T) {
	if s := unsafe.Sizeof(entry{}); s != 32 {
		t.Fatalf("an entry is %d bytes, want 32", s)
	}
	chunksOf := func(r *Ring) (chunks, entries int) {
		for _, c := range r.chunks {
			if c != nil {
				chunks++
				entries += len(c)
			}
		}
		return chunks, entries
	}
	for _, capacity := range []int{1, 3, 4, 5, 7, 1000, DefaultRingCap, DefaultRingCap + 1} {
		r := NewRecorder(capacity).Ring("n")
		if c, e := chunksOf(r); c != 0 || e != 0 {
			t.Fatalf("cap %d: a ring never written holds %d chunks, %d entries", capacity, c, e)
		}
		quarter := (capacity + 3) / 4
		for n := 1; n <= capacity+quarter; n++ {
			r.Record(KindSend, vtime.Time(n), 0, uint64(n), 0, "")
			held := min(n, capacity)
			want := (held + quarter - 1) / quarter
			if c, e := chunksOf(r); c != want || e > capacity || (held == capacity && e != capacity) {
				t.Fatalf("cap %d, %d events: %d chunks of %d entries, want %d chunks of at most %d",
					capacity, n, c, e, want, capacity)
			}
		}
	}
	r := NewRecorder(0).Ring("full")
	for i := 0; i < DefaultRingCap; i++ {
		r.Record(KindWire, vtime.Time(i), 0, 0, 0, "sci0")
	}
	if _, e := chunksOf(r); e*int(unsafe.Sizeof(entry{})) != 128<<10 {
		t.Fatalf("a full default ring holds %d bytes of entries, want 128 KiB", e*int(unsafe.Sizeof(entry{})))
	}
}
