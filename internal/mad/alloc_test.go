package mad_test

import (
	"bytes"
	"testing"

	"madgo/internal/drivers/bip"
	"madgo/internal/drivers/sisci"
	"madgo/internal/mad"
	"madgo/internal/vtime"
	"madgo/internal/vtime/vsync"
)

// TestDirectMessageAllocBudget pins what one whole message — BeginPacking
// to EndUnpacking on a direct link — may allocate once the link is warm.
// The link itself contributes nothing any more: its transmissions, wakers,
// wire events, flow spec and route are per-link state. What is left is the
// message's own bookkeeping (Packing, Unpacking, their BMM halves, block
// descriptors, the aggregate's fresh storage; the Arrival note travels by
// value): 6 and 7 allocations where the same messages cost 45 and 41 when
// every send built those afresh. The aggregate is handed over (TxMeta.Owned),
// so an eager delivery that finds no receive posted no longer snapshots it
// into driver memory: the 64-byte message read 8 while it did.
func TestDirectMessageAllocBudget(t *testing.T) {
	cases := []struct {
		name   string
		drv    netDriver
		size   int
		budget float64
	}{
		{"myrinet 32 KiB", bip.New(), 32 << 10, 6},
		{"sci 64 B", sisci.New(), 64, 7},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pr := newPair(tc.drv)
			out, in := pattern(tc.size, 3), make([]byte, tc.size)
			next := vsync.NewSem(0) // one permit per message to send
			delivered := 0
			pr.sim.SpawnDaemon("tx", func(p *vtime.Proc) {
				ep := pr.ch.At(pr.a)
				for {
					next.Acquire(p, 1)
					px := ep.BeginPacking(p, pr.b.Rank)
					px.Pack(p, out, mad.SendCheaper, mad.ReceiveCheaper)
					px.EndPacking(p)
				}
			})
			pr.sim.SpawnDaemon("rx", func(p *vtime.Proc) {
				ep := pr.ch.At(pr.b)
				for {
					u := ep.BeginUnpacking(p)
					u.Unpack(p, in, mad.SendCheaper, mad.ReceiveCheaper)
					u.EndUnpacking(p)
					delivered++
				}
			})
			message := func() {
				next.Release(1)
				pr.run(t)
			}
			for i := 0; i < 4; i++ {
				message()
			}
			allocs := testing.AllocsPerRun(100, message)
			if delivered != 4+101 || !bytes.Equal(in, out) {
				t.Fatalf("delivered %d of %d messages, payload intact: %v", delivered, 4+101, bytes.Equal(in, out))
			}
			t.Logf("%s: %.1f allocations per message (budget %.0f)", tc.name, allocs, tc.budget)
			if allocs > tc.budget {
				t.Errorf("%s: one message allocates %.1f times, budget %.0f", tc.name, allocs, tc.budget)
			}
		})
	}
}
