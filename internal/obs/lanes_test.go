package obs_test

import (
	"math"
	"strings"
	"testing"

	"madgo/internal/obs"
	"madgo/internal/trace"
	"madgo/internal/vtime"
)

// TestAnalyzeLanes decomposes spans into obs.Lane rows (trace.Log.Lanes) and
// renders them (obs.WriteLaneReport).
func TestAnalyzeLanes(t *testing.T) {
	us := func(n int64) vtime.Time { return vtime.Time(n) * vtime.Time(vtime.Microsecond) }
	var tr trace.Log
	record := func(actor, op string, bytes int, t0, t1 vtime.Time) {
		tr = append(tr, trace.Span{Actor: actor, Op: op, Bytes: bytes, T0: t0, T1: t1})
	}
	// Lane with periodic recvs (period 100µs), one swap, and idle tail.
	for i := int64(0); i < 5; i++ {
		record("gw:recv:sci0", "recv", 1024, us(i*100), us(i*100+40))
	}
	record("gw:recv:sci0", "swap", 0, us(440), us(480))
	// Overlapping spans must not double-count.
	record("gw:send:myri0", "send", 512, us(0), us(50))
	record("gw:send:myri0", "send", 512, us(25), us(75))

	lanes := tr.Lanes(0, us(1000))
	if len(lanes) != 2 {
		t.Fatalf("lanes = %d, want 2", len(lanes))
	}
	recv := lanes[0]
	if recv.Actor != "gw:recv:sci0" {
		t.Fatalf("lane order: %v", recv.Actor)
	}
	if recv.Busy != 200*vtime.Microsecond {
		t.Fatalf("busy = %v, want 200µs", recv.Busy)
	}
	if recv.Stall != 40*vtime.Microsecond {
		t.Fatalf("stall = %v, want 40µs", recv.Stall)
	}
	if recv.Idle != 760*vtime.Microsecond {
		t.Fatalf("idle = %v, want 760µs", recv.Idle)
	}
	if math.Abs(recv.Utilization-0.2) > 1e-9 {
		t.Fatalf("utilization = %v, want 0.2", recv.Utilization)
	}
	if recv.SteadyPeriod != 100*vtime.Microsecond {
		t.Fatalf("steady period = %v, want 100µs", recv.SteadyPeriod)
	}
	send := lanes[1]
	if send.Busy != 75*vtime.Microsecond {
		t.Fatalf("overlap busy = %v, want 75µs", send.Busy)
	}

	// Window clipping: only the first recv is inside [0, 50µs).
	clipped := tr.Lanes(0, us(50))
	if clipped[0].Busy != 40*vtime.Microsecond {
		t.Fatalf("clipped busy = %v, want 40µs", clipped[0].Busy)
	}

	if tr.Lanes(us(10), us(10)) != nil {
		t.Fatal("empty window returned lanes")
	}
	if trace.Log(nil).Lanes(0, us(10)) != nil {
		t.Fatal("no spans returned lanes")
	}

	var sb strings.Builder
	obs.WriteLaneReport(&sb, lanes)
	if !strings.Contains(sb.String(), "gw:recv:sci0") || !strings.Contains(sb.String(), "util") {
		t.Fatalf("lane report:\n%s", sb.String())
	}
	sb.Reset()
	obs.WriteLaneReport(&sb, nil)
	if !strings.Contains(sb.String(), "no lanes") {
		t.Fatalf("empty report: %q", sb.String())
	}
}
