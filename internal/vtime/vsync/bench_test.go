package vsync

import (
	"testing"

	"madgo/internal/vtime"
)

// BenchmarkChanHandoff is one value handed from one process to another
// through a one-slot channel: the shape of every staged fragment passing
// from a gateway's receive thread to its send thread.
func BenchmarkChanHandoff(b *testing.B) {
	b.ReportAllocs()
	sim := vtime.New()
	ch := NewChan[int]("handoff", 1)
	sim.Spawn("tx", func(p *vtime.Proc) {
		for i := 0; i < b.N; i++ {
			ch.Send(p, i)
		}
	})
	sim.Spawn("rx", func(p *vtime.Proc) {
		for i := 0; i < b.N; i++ {
			ch.Recv(p)
		}
	})
	b.ResetTimer()
	if err := sim.Run(); err != nil {
		b.Fatal(err)
	}
}
