package trace

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"madgo/internal/fault"
	"madgo/internal/flight"
	"madgo/internal/hw"
	"madgo/internal/obs"
	"madgo/internal/vtime"
)

func us(n int64) vtime.Time { return vtime.Time(n * int64(vtime.Microsecond)) }

// rec appends a span to l, the way a run records one.
func (l *Log) rec(actor, op string, bytes int, t0, t1 vtime.Time) {
	*l = append(*l, Span{Actor: actor, Op: op, Bytes: bytes, T0: t0, T1: t1})
}

func sample() Log {
	var tr Log
	tr.rec("gw:recv:sci0", "recv", 8192, us(0), us(190))
	tr.rec("gw:recv:sci0", "swap", 0, us(190), us(230))
	tr.rec("gw:send:myri0", "send", 8192, us(230), us(410))
	tr.rec("gw:recv:sci0", "recv", 8192, us(230), us(420))
	tr.rec("gw:recv:sci0", "swap", 0, us(420), us(460))
	tr.rec("gw:send:myri0", "send", 8192, us(460), us(640))
	return tr
}

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	tr.Bind(hw.NewPlatform(vtime.New()))
	var l Log
	if l.Actors() != nil || l.ByActor("a") != nil {
		t.Error("empty log returned data")
	}
	if tl := l.Timeline(0, us(10), 10); tl != "" {
		t.Error("empty log rendered a timeline")
	}
	// A bound tracer's spans are the lanes it is bound to, not its own.
	bound := New()
	bound.Record("a", "recv", 1, 0, 1)
	if len(bound.Spans()) != 1 {
		t.Error("an unbound tracer lost its recorded span")
	}
	bound.Bind(hw.NewPlatform(vtime.New()))
	if len(bound.Spans()) != 0 {
		t.Error("a tracer bound to a platform that recorded nothing returned spans")
	}
}

func TestActorsAndByActor(t *testing.T) {
	tr := sample()
	actors := tr.Actors()
	if len(actors) != 2 || actors[0] != "gw:recv:sci0" || actors[1] != "gw:send:myri0" {
		t.Fatalf("actors = %v", actors)
	}
	recvs := tr.ByActor("gw:recv:sci0")
	if len(recvs) != 4 {
		t.Fatalf("recv spans = %d", len(recvs))
	}
	for i := 1; i < len(recvs); i++ {
		if recvs[i].T0 < recvs[i-1].T0 {
			t.Fatal("ByActor not time-ordered")
		}
	}
}

func TestPeriods(t *testing.T) {
	tr := sample()
	periods := tr.Periods("gw:recv:sci0", "recv")
	if len(periods) != 1 || periods[0] != 230*vtime.Microsecond {
		t.Fatalf("periods = %v", periods)
	}
	if p := tr.Periods("gw:recv:sci0", "nope"); p != nil {
		t.Fatalf("periods for unknown op = %v", p)
	}
}

func TestSteadyMean(t *testing.T) {
	var tr Log
	// First and last spans are ramp artifacts.
	tr.rec("a", "recv", 1, us(0), us(1000))
	for i := int64(1); i <= 5; i++ {
		tr.rec("a", "recv", 1, us(i*1000), us(i*1000+100))
	}
	tr.rec("a", "recv", 1, us(7000), us(9000))
	mean, n := tr.SteadyMean("a", "recv", 1, 1)
	if n != 5 || mean != 100*vtime.Microsecond {
		t.Fatalf("steady mean = %v over %d", mean, n)
	}
	if _, n := tr.SteadyMean("a", "recv", 4, 4); n != 0 {
		t.Fatal("over-trimmed window returned samples")
	}
}

func TestTimelineRendering(t *testing.T) {
	tr := sample()
	tl := tr.Timeline(0, us(640), 64)
	if !strings.Contains(tl, "gw:recv:sci0") || !strings.Contains(tl, "gw:send:myri0") {
		t.Fatalf("timeline missing lanes:\n%s", tl)
	}
	if !strings.Contains(tl, "r") || !strings.Contains(tl, "s") || !strings.Contains(tl, "x") {
		t.Fatalf("timeline missing op marks:\n%s", tl)
	}
	// Degenerate windows are rejected, not crashed on.
	if tr.Timeline(us(10), us(10), 64) != "" || tr.Timeline(0, us(10), 0) != "" {
		t.Fatal("degenerate timeline not empty")
	}
}

func TestSpanStringAndDuration(t *testing.T) {
	s := Span{Actor: "a", Op: "recv", Bytes: 42, T0: us(1), T1: us(3)}
	if s.Duration() != 2*vtime.Microsecond {
		t.Fatal("duration wrong")
	}
	if str := s.String(); !strings.Contains(str, "recv") || !strings.Contains(str, "42") {
		t.Fatalf("String() = %q", str)
	}
}

func TestTimelineLegend(t *testing.T) {
	tr := sample()
	tl := tr.Timeline(0, us(640), 64)
	if !strings.Contains(tl, "legend:") {
		t.Fatalf("timeline has no legend:\n%s", tl)
	}
	for _, want := range []string{"r = recv", "s = send", "x = swap"} {
		if !strings.Contains(tl, want) {
			t.Fatalf("legend missing %q:\n%s", want, tl)
		}
	}
	// Ops outside the window must not appear in the legend.
	tr.rec("gw:recv:sci0", "rexmit", 0, us(900), us(950))
	if tl := tr.Timeline(0, us(640), 64); strings.Contains(tl, "R = rexmit") {
		t.Fatalf("legend lists op outside window:\n%s", tl)
	}
	if tl := tr.Timeline(0, us(1000), 64); !strings.Contains(tl, "R = rexmit") {
		t.Fatalf("legend misses op inside window:\n%s", tl)
	}
	// Novel ops get their first letter, not '?'.
	var tr2 Log
	tr2.rec("a", "poll", 0, us(0), us(10))
	if tl := tr2.Timeline(0, us(10), 10); !strings.Contains(tl, "p = poll") {
		t.Fatalf("derived legend missing novel op:\n%s", tl)
	}
}

func TestOpMarkFallbacks(t *testing.T) {
	if opMark("recv") != 'r' || opMark("swap") != 'x' || opMark("corrupt-drop") != 'c' {
		t.Fatal("known op marks changed")
	}
	if opMark("zing") != 'z' {
		t.Fatal("unknown op should use its first letter")
	}
	if opMark("") != '?' {
		t.Fatal("empty op should render '?'")
	}
}

func TestTimelineBoundarySpans(t *testing.T) {
	var tr Log
	tr.rec("a", "recv", 1, us(0), us(10))    // starts exactly at t0
	tr.rec("a", "send", 1, us(90), us(100))  // ends exactly at t1
	tr.rec("a", "swap", 1, us(100), us(110)) // starts exactly at t1: excluded
	tr.rec("a", "drop", 1, us(-10), us(0))   // ends exactly at t0: excluded
	tl := tr.Timeline(0, us(100), 10)
	if !strings.Contains(tl, "r") || !strings.Contains(tl, "s") {
		t.Fatalf("boundary spans not rendered:\n%s", tl)
	}
	if strings.Contains(tl, "x = swap") || strings.Contains(tl, "d = drop") {
		t.Fatalf("spans outside [t0,t1) rendered:\n%s", tl)
	}
	// A span wider than the window is clipped, not crashed on.
	tr.rec("a", "recv", 1, us(-50), us(500))
	if tl := tr.Timeline(0, us(100), 10); tl == "" {
		t.Fatal("clipped span produced empty timeline")
	}
}

func TestSteadyMeanDegenerate(t *testing.T) {
	var tr Log
	for i := int64(0); i < 4; i++ {
		tr.rec("a", "recv", 1, us(i*100), us(i*100+10))
	}
	// warmup+cooldown == len(spans): nothing left.
	if mean, n := tr.SteadyMean("a", "recv", 2, 2); n != 0 || mean != 0 {
		t.Fatalf("exact trim returned %v over %d", mean, n)
	}
	// warmup+cooldown > len(spans): negative slice bounds must not panic.
	if mean, n := tr.SteadyMean("a", "recv", 10, 10); n != 0 || mean != 0 {
		t.Fatalf("over-trim returned %v over %d", mean, n)
	}
	var empty Log
	if mean, n := empty.SteadyMean("a", "recv", 0, 0); n != 0 || mean != 0 {
		t.Fatal("empty log SteadyMean returned samples")
	}
}

func TestEmptyLogAnalysis(t *testing.T) {
	var l Log
	if p := l.Periods("a", "recv"); p != nil {
		t.Fatal("empty log Periods returned data")
	}
}

// TestOfDerivesEveryLane records one event of each kind the lanes are built
// from, on a bare platform, and checks each lands on its lane as its span,
// in recording order, and that what no lane reads stays out.
func TestOfDerivesEveryLane(t *testing.T) {
	sim := vtime.New()
	pl := hw.NewPlatform(sim)
	pl.SetFlight(flight.NewRecorder(0))
	reg := obs.New()
	pl.SetMetrics(reg)
	pl.ArmFaults(fault.New(fault.NewPlan(1).Flap("n1", us(5), 10*vtime.Microsecond).
		Crash("g", us(5), 0).Flap("n2", us(500), vtime.Microsecond)))
	if err := sim.RunUntil(us(100)); err != nil {
		t.Fatal(err)
	}
	g, a := pl.FlightRing("g"), pl.FlightRing("a")
	g.RecordTag(flight.KindRecv, flight.TagRecv, us(20), 10*vtime.Microsecond, 1, 512, "n1")
	g.RecordTag(flight.KindSwap, flight.TagRecv, us(24), 4*vtime.Microsecond, 1, 0, "n1")
	g.RecordTag(flight.KindReplicate, flight.TagSend, us(30), 6*vtime.Microsecond, 1, 512, "n2")
	g.RecordTag(flight.KindSwap, flight.TagSend, us(34), 4*vtime.Microsecond, 1, 0, "n1")
	g.RecordTag(flight.KindStall, flight.TagRecv, us(40), 6*vtime.Microsecond, 1, 0, "n2")
	g.Record(flight.KindSend, us(41), vtime.Microsecond, 1, 64, "n2") // no thread: the reliable engine's
	a.RecordTag(flight.KindRail, 1, us(42), 2*vtime.Microsecond, 0, 300, "b")
	a.Record(flight.KindDrop, us(43), 0, 0, 64, "n1")
	a.Record(flight.KindCorrupt, us(44), 0, 0, 64, "n1")
	g.Record(flight.KindCorruptDrop, us(45), 0, 0, 64, "n1")
	reg.RecordHop(1, us(46), "a", "rexmit", "", 64)
	reg.RecordHop(1, us(47), "a", "deliver", "", 64) // not a recovery mark
	reg.RecordHop(1, us(48), "b", "dup", "", 32)

	lanes, err := Of(pl)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, s := range lanes {
		got = append(got, fmt.Sprintf("%s %s %d %v..%v", s.Actor, s.Op, s.Bytes, s.T0, s.T1))
	}
	want := []string{
		"fault:n1 flap 0 5µs..15µs",
		"fault:g crash 0 5µs..5µs",
		"g:recv:n1 recv 512 10µs..20µs",
		"g:recv:n1 swap 0 20µs..24µs",
		"g:send:n2 send 512 24µs..30µs",
		"g:send:n1 swap 0 30µs..34µs",
		"g:recv:n2 stall 0 34µs..40µs",
		"stripe:a>b rail1 300 40µs..42µs",
		"fault:n1 drop 64 43µs..43µs",
		"fault:n1 corrupt 64 44µs..44µs",
		"rel:g corrupt-drop 64 45µs..45µs",
		"rel:a rexmit 64 46µs..46µs",
		"rel:b dup 32 48µs..48µs",
	}
	if !slices.Equal(got, want) {
		t.Errorf("lanes:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	if n := len(Replay(pl.Flight.Events())); n != 10 {
		t.Errorf("Replay rendered %d flight spans, want all 10 events", n)
	}
}

// TestOfFlagsAnOverwrittenRing: once a ring overwrites events, Of says so,
// with how many and the instant from which every ring holds all it recorded
// (one past the oldest event the wrapped ring still holds).
func TestOfFlagsAnOverwrittenRing(t *testing.T) {
	pl := hw.NewPlatform(vtime.New())
	pl.SetFlight(flight.NewRecorder(2))
	g, a := pl.FlightRing("g"), pl.FlightRing("a")
	a.RecordTag(flight.KindRecv, flight.TagRecv, us(5), vtime.Microsecond, 1, 64, "n1")
	if _, err := Of(pl); err != nil {
		t.Fatalf("Of of rings that overwrote nothing: %v", err)
	}
	for i := range int64(5) {
		g.RecordTag(flight.KindRecv, flight.TagRecv, us(10+i), vtime.Microsecond, 1, 64, "n1")
	}
	lanes, err := Of(pl)
	tr, ok := err.(*Truncated)
	if !ok || tr.Dropped != 3 || tr.Since != us(13)+1 {
		t.Fatalf("Of = %v, want a *Truncated of 3 events since %v", err, us(13)+1)
	}
	if len(lanes) != 3 {
		t.Errorf("Of kept %d spans, want the 3 the rings hold", len(lanes))
	}
}
