package flight_test

import (
	"testing"

	"madgo/internal/flight"
	"madgo/internal/trace"
	"madgo/internal/vtime"
)

const us = vtime.Microsecond

// TestSpansReplay: the Chrome exporter draws every recorded event as a span
// of its node's "flight:<node>" lane (trace.Replay), ending at the event.
func TestSpansReplay(t *testing.T) {
	rec := flight.NewRecorder(4)
	rec.Ring("gw").Record(flight.KindSwap, 100*vtime.Time(us), 40*us, 1, 0, "")
	rec.Ring("gw").Record(flight.KindEpoch, 200*vtime.Time(us), 0, 0, 0, "")
	spans := trace.Replay(rec.Events())
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
