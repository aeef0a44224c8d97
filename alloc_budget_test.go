package madeleine_test

import (
	"runtime"
	"testing"

	madeleine "madgo"
)

// bulkStreamAllocBudget is the most heap allocations one 1 MiB message of
// the Fig. 6 stream (a –sci– gw –myrinet– b, WithPaperFidelity, 32 KiB
// packets, 68 link transfers) may cost across System.Run. It read 2 567 when
// every event, wake-up, flow and link transfer allocated; 24 are left: the
// Packing/Unpacking pair and their GTM halves, the header buffers, one
// descriptor array, the Arrival notes, and the gateway's send process with
// its closure. The budget leaves room for a handful more per message and
// none per fragment.
const bulkStreamAllocBudget = 30

// TestBulkStreamAllocBudget drives the facade the way the benchmark's
// bulk_stream workload does and fails when a message costs more allocations
// than the budget (make allocs).
func TestBulkStreamAllocBudget(t *testing.T) {
	const (
		msgs = 40
		size = 1 << 20
	)
	sys, err := madeleine.NewSystem(`network sci0 sci
network myri0 myrinet
node a sci0
node gw sci0 myri0
node b myri0
`, madeleine.WithPaperFidelity())
	if err != nil {
		t.Fatal(err)
	}
	tx, rx := make([]byte, size), make([]byte, size)
	for i := range tx {
		tx[i] = byte(i * 7)
	}
	sys.Spawn("send:a", func(p *madeleine.Proc) {
		ep := sys.At("a")
		for i := 0; i < msgs; i++ {
			px := ep.BeginPacking(p, "b")
			px.Pack(p, tx, madeleine.SendCheaper, madeleine.ReceiveCheaper)
			px.EndPacking(p)
		}
	})
	delivered := 0
	sys.Spawn("recv:b", func(p *madeleine.Proc) {
		ep := sys.At("b")
		for i := 0; i < msgs; i++ {
			u := ep.BeginUnpacking(p)
			u.Unpack(p, rx, madeleine.SendCheaper, madeleine.ReceiveCheaper)
			u.EndUnpacking(p)
			if rx[size-1] == tx[size-1] {
				delivered++
			}
		}
	})

	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&m1)
	if delivered != msgs {
		t.Fatalf("delivered %d of %d messages", delivered, msgs)
	}
	perMsg := float64(m1.Mallocs-m0.Mallocs) / msgs
	t.Logf("bulk stream: %.1f allocations per 1 MiB message (budget %d)", perMsg, bulkStreamAllocBudget)
	if perMsg > bulkStreamAllocBudget {
		t.Errorf("bulk stream allocates %.1f objects per message, budget %d", perMsg, bulkStreamAllocBudget)
	}
}
