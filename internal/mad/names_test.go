package mad

import (
	"testing"

	"madgo/internal/hw"
	"madgo/internal/vtime"
)

// nameDriver is the least Driver a channel needs to bring its links up.
type nameDriver struct{ BaseDriver }

func (nameDriver) Protocol() string  { return "sci" }
func (nameDriver) Caps() Caps        { return Caps{} }
func (nameDriver) NIC() hw.NICParams { return hw.SCI() }

// TestLinkNamesAreByteIdentical pins the names a link cuts out of its one
// string — its wire's, its mailbox's and its transfers' — which deadlock
// reports, panics and flow records print, on two channels of one network,
// whose links share the network's wires.
func TestLinkNamesAreByteIdentical(t *testing.T) {
	pl := hw.NewPlatform(vtime.New())
	sess := NewSession(pl)
	a, b := sess.AddNode("a"), sess.AddNode("b")
	net := pl.NewNetwork("sci0", hw.SCI())
	reg := sess.NewChannel("reg:sci0", net, nameDriver{}, a, b)
	spc := sess.NewChannel("spc:sci0", net, nameDriver{}, a, b)
	ab, ba, spcAB := reg.Link(a.Rank, b.Rank), reg.Link(b.Rank, a.Rank), spc.Link(a.Rank, b.Rank)
	for _, c := range []struct{ got, want string }{
		{ab.wire.Name(), "wire:sci0:a->b"},
		{ab.mailbox.Name(), "mbox:reg:sci0:a->b"},
		{ab.flowName, "reg:sci0:a->b"},
		{ba.wire.Name(), "wire:sci0:b->a"},
		{spcAB.mailbox.Name(), "mbox:spc:sci0:a->b"},
		{spcAB.flowName, "spc:sci0:a->b"},
	} {
		if c.got != c.want {
			t.Errorf("name %q, want %q", c.got, c.want)
		}
	}
	if spcAB.wire != ab.wire {
		t.Error("two channels of one network bring up two wires for a->b")
	}
}
