package flight

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"

	"madgo/internal/vtime"
)

const us = vtime.Microsecond

func TestRingRecordAndSnapshot(t *testing.T) {
	rec := NewRecorder(4)
	r := rec.Ring("gw")
	if r.Node() != "gw" {
		t.Fatalf("node = %q", r.Node())
	}
	for i := 0; i < 3; i++ {
		r.Record(KindSend, vtime.Time(i)*vtime.Time(us), us, uint64(i+1), 100, "sci0")
	}
	if r.Len() != 3 || r.Dropped() != 0 {
		t.Fatalf("len %d dropped %d", r.Len(), r.Dropped())
	}
	evs := r.Snapshot()
	if len(evs) != 3 || evs[0].Msg != 1 || evs[2].Msg != 3 {
		t.Fatalf("snapshot order wrong: %+v", evs)
	}
	if evs[0].Node != "gw" || evs[0].Net != "sci0" || evs[0].Bytes != 100 {
		t.Fatalf("event fields wrong: %+v", evs[0])
	}
}

func TestRingWraparound(t *testing.T) {
	rec := NewRecorder(4)
	r := rec.Ring("a")
	for i := 1; i <= 10; i++ {
		r.Record(KindRecv, vtime.Time(i), 0, uint64(i), 0, "")
	}
	if r.Len() != 4 {
		t.Fatalf("len = %d, want 4", r.Len())
	}
	if r.Dropped() != 6 {
		t.Fatalf("dropped = %d, want 6", r.Dropped())
	}
	evs := r.Snapshot()
	want := []uint64{7, 8, 9, 10}
	for i, w := range want {
		if evs[i].Msg != w {
			t.Fatalf("slot %d = msg %d, want %d (oldest-first after wrap)", i, evs[i].Msg, w)
		}
	}
	if rec.Dropped() != 6 {
		t.Fatalf("recorder dropped = %d", rec.Dropped())
	}
}

// TestRingConcurrentRecordAndRead records into two rings from four
// goroutines, growing their chunks and name tables, while a fifth reads them
// the ways tools do; under -race it checks the locking of both, and at the
// end every event is accounted for as held or dropped.
func TestRingConcurrentRecordAndRead(t *testing.T) {
	const writers, perWriter = 4, 3000
	rec := NewRecorder(1000)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := rec.Ring([]string{"a", "gw"}[w%2])
			for i := 0; i < perWriter; i++ {
				r.Record(KindSend, vtime.Time(i), 0, uint64(i), i, fmt.Sprintf("net%d", i%(inlineNets+3)))
			}
		}()
	}
	go func() {
		defer close(done)
		for i := 0; i < 5; i++ {
			_ = rec.Dropped()
			_ = rec.Events()
			rec.Dump("read")
			if err := rec.WriteJSON(io.Discard); err != nil {
				t.Error(err)
			}
		}
	}()
	wg.Wait()
	<-done
	var total uint64
	for _, n := range rec.Nodes() {
		r := rec.Ring(n)
		total += uint64(r.Len()) + r.Dropped()
	}
	if total != writers*perWriter || rec.Dropped() != total-2*1000 {
		t.Fatalf("%d events held or dropped, %d dropped; want %d and %d", total, rec.Dropped(), writers*perWriter, writers*perWriter-2000)
	}
}

func TestNilSafety(t *testing.T) {
	var rec *Recorder
	var r *Ring
	r.Record(KindSend, 0, 0, 1, 1, "x") // must not panic
	if r.Len() != 0 || r.Dropped() != 0 || r.Node() != "" || r.Snapshot() != nil {
		t.Fatal("nil ring not inert")
	}
	if got := r.SnapshotInto(make([]Event, 0, 4)); len(got) != 0 {
		t.Fatal("nil ring SnapshotInto not empty")
	}
	if rec.Ring("a") != nil {
		t.Fatal("nil recorder returned a ring")
	}
	rec.Dump("x")
	rec.SetClock(func() vtime.Time { return 1 })
	if rec.Events() != nil || rec.Dumps() != nil || rec.Nodes() != nil ||
		rec.Suppressed() != 0 || len(rec.Spans()) != 0 {
		t.Fatal("nil recorder not inert")
	}
	var buf bytes.Buffer
	if err := rec.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"rings": []`) {
		t.Fatalf("nil recorder JSON = %s", buf.String())
	}
}

func TestRecorderEventsMergedSorted(t *testing.T) {
	rec := NewRecorder(8)
	rec.Ring("b").Record(KindRecv, 20, 0, 2, 0, "")
	rec.Ring("a").Record(KindSend, 10, 0, 1, 0, "")
	rec.Ring("a").Record(KindSend, 30, 0, 3, 0, "")
	evs := rec.Events()
	if len(evs) != 3 {
		t.Fatalf("got %d events", len(evs))
	}
	if evs[0].Msg != 1 || evs[1].Msg != 2 || evs[2].Msg != 3 {
		t.Fatalf("merge not At-ordered: %+v", evs)
	}
	nodes := rec.Nodes()
	if len(nodes) != 2 || nodes[0] != "a" || nodes[1] != "b" {
		t.Fatalf("nodes = %v", nodes)
	}
}

func TestDumpBoundedAndStamped(t *testing.T) {
	rec := NewRecorder(4)
	now := vtime.Time(7 * us)
	rec.SetClock(func() vtime.Time { return now })
	rec.Ring("gw").Record(KindSwap, 5, 40*us, 9, 0, "")
	for i := 0; i < maxDumps+5; i++ {
		rec.Dump("delivery-error")
	}
	dumps := rec.Dumps()
	if len(dumps) != maxDumps {
		t.Fatalf("dumps = %d, want capped at %d", len(dumps), maxDumps)
	}
	if rec.Suppressed() != 5 {
		t.Fatalf("suppressed = %d, want 5", rec.Suppressed())
	}
	d := dumps[0]
	if d.Reason != "delivery-error" || d.At != now {
		t.Fatalf("dump header wrong: %+v", d)
	}
	if len(d.Rings) != 1 || d.Rings[0].Node != "gw" || len(d.Rings[0].Events) != 1 {
		t.Fatalf("dump rings wrong: %+v", d.Rings)
	}
	if d.Rings[0].Events[0].Kind != KindSwap {
		t.Fatalf("dumped event = %+v", d.Rings[0].Events[0])
	}
}

func TestWriteJSONRoundTrips(t *testing.T) {
	rec := NewRecorder(4)
	rec.Ring("gw").Record(KindStall, 100*vtime.Time(us), 30*us, 4, 2048, "myri0")
	rec.Dump("epoch-churn")
	var buf bytes.Buffer
	if err := rec.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Rings []struct {
			Node   string `json:"node"`
			Events []struct {
				At    int64  `json:"at_ns"`
				Dur   int64  `json:"dur_ns"`
				Kind  string `json:"kind"`
				Msg   uint64 `json:"msg"`
				Bytes int32  `json:"bytes"`
				Net   string `json:"net"`
			} `json:"events"`
		} `json:"rings"`
		Dumps []Dump `json:"dumps"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(doc.Rings) != 1 || doc.Rings[0].Node != "gw" {
		t.Fatalf("rings = %+v", doc.Rings)
	}
	e := doc.Rings[0].Events[0]
	if e.Kind != "stall" || e.Msg != 4 || e.Bytes != 2048 || e.Net != "myri0" || e.Dur != int64(30*us) {
		t.Fatalf("event = %+v", e)
	}
	if len(doc.Dumps) != 1 || doc.Dumps[0].Reason != "epoch-churn" {
		t.Fatalf("dumps = %+v", doc.Dumps)
	}
}

func TestSpansReplay(t *testing.T) {
	rec := NewRecorder(4)
	rec.Ring("gw").Record(KindSwap, 100*vtime.Time(us), 40*us, 1, 0, "")
	rec.Ring("gw").Record(KindEpoch, 200*vtime.Time(us), 0, 0, 0, "")
	spans := rec.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans", len(spans))
	}
	s := spans[0]
	if s.Actor != "flight:gw" || s.Op != "swap" {
		t.Fatalf("span identity = %+v", s)
	}
	if s.T0 != 60*vtime.Time(us) || s.T1 != 100*vtime.Time(us) {
		t.Fatalf("span window = [%v, %v]", s.T0, s.T1)
	}
	if spans[1].T0 != spans[1].T1 {
		t.Fatalf("instant event should be zero-width: %+v", spans[1])
	}
}

func TestKindAndStageNames(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		if strings.Contains(k.String(), "kind(") {
			t.Fatalf("kind %d has no name", k)
		}
	}
	if Kind(200).String() != "kind(200)" {
		t.Fatal("out-of-range kind string")
	}
	for s := Stage(0); s < NumStages; s++ {
		if strings.Contains(s.String(), "stage(") {
			t.Fatalf("stage %d has no name", s)
		}
	}
	if Stage(99).String() != "stage(99)" {
		t.Fatal("out-of-range stage string")
	}
}
