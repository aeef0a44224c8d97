// Package vtime implements a deterministic, process-oriented discrete-event
// simulation kernel.
//
// Simulated threads ("processes") run on ordinary goroutines, but exactly one
// goroutine holds control at a time and passes it on explicitly: whoever
// blocks or finishes runs the event loop itself, up to the next process that
// is due, and wakes that process's goroutine — or simply carries on when the
// process is its own. There is no scheduler goroutine in between. A
// simulation is therefore deterministic and free of data races by
// construction. Time is virtual: it advances only when every runnable
// process has blocked and the next event is popped.
//
// The kernel is the substrate for the Madeleine reproduction: communication
// library threads (polling loops, gateway forwarding pipelines, application
// code) are vtime processes, and hardware models charge transfer durations
// to the virtual clock.
package vtime

import "fmt"

// Time is an absolute virtual timestamp in nanoseconds since the start of
// the simulation.
type Time int64

// Duration is a span of virtual time in nanoseconds. It mirrors
// time.Duration but is a distinct type so real and virtual time cannot be
// mixed accidentally.
type Duration int64

// Common durations.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Add returns the time t+d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds returns the duration as a floating-point number of seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Microseconds returns the duration as a floating-point number of
// microseconds.
func (d Duration) Microseconds() float64 { return float64(d) / float64(Microsecond) }

// String formats the duration with an adaptive unit, e.g. "42µs" or
// "1.536ms".
func (d Duration) String() string {
	switch {
	case d < 0:
		return "-" + (-d).String()
	case d < Microsecond:
		return fmt.Sprintf("%dns", int64(d))
	case d < Millisecond:
		return trimUnit(float64(d)/float64(Microsecond), "µs")
	case d < Second:
		return trimUnit(float64(d)/float64(Millisecond), "ms")
	default:
		return trimUnit(float64(d)/float64(Second), "s")
	}
}

// String formats the absolute time like a duration since t=0.
func (t Time) String() string { return Duration(t).String() }

// Since returns the nonnegative span between two times; it panics when the
// clock would run backwards, which always indicates a kernel bug.
func Since(later, earlier Time) Duration {
	if later < earlier {
		panic(fmt.Sprintf("vtime: negative span %v .. %v", earlier, later))
	}
	return later.Sub(earlier)
}

func trimUnit(v float64, unit string) string {
	s := fmt.Sprintf("%.3f", v)
	for len(s) > 0 && s[len(s)-1] == '0' {
		s = s[:len(s)-1]
	}
	if len(s) > 0 && s[len(s)-1] == '.' {
		s = s[:len(s)-1]
	}
	return s + unit
}

// DurationOfBytes returns the time needed to move n bytes at rate bytes/s.
// A nonpositive rate panics: callers must never divide by an idle flow.
func DurationOfBytes(n int64, rate float64) Duration {
	if rate <= 0 {
		panic("vtime: DurationOfBytes with nonpositive rate")
	}
	return Duration(float64(n) / rate * float64(Second))
}
