package sbp_test

import (
	"testing"

	"madgo/internal/drivers/sbp"
	"madgo/internal/hw"
	"madgo/internal/mad"
	"madgo/internal/vtime"
)

func TestDriverIdentity(t *testing.T) {
	d := sbp.New()
	if d.Protocol() != "sbp" {
		t.Fatalf("protocol = %s", d.Protocol())
	}
	caps := d.Caps()
	if !caps.StaticBuffers {
		t.Fatal("SBP is the static-buffer protocol")
	}
	if caps.MaxTransmission != d.NIC().StaticBufSize {
		t.Error("slot size must be the TM MTU")
	}
}

func TestAllocStatic(t *testing.T) {
	d := sbp.New()
	pl := hw.NewPlatform(vtime.New())
	h := pl.NewHost("x", hw.DefaultCPU(), hw.DefaultPCI())
	if buf := d.AllocStatic(h, 1024); len(buf) != 1024 {
		t.Fatalf("buffer of %d bytes, want 1024", len(buf))
	}
	if d.Allocated() != 1 {
		t.Errorf("allocated = %d", d.Allocated())
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic for nonpositive size")
		}
	}()
	d.AllocStatic(h, 0)
}

func TestStagingThroughSlots(t *testing.T) {
	// A block larger than the slot size spans multiple slots; both sides
	// copy exactly the payload.
	sim := vtime.New()
	pl := hw.NewPlatform(sim)
	sess := mad.NewSession(pl)
	a := sess.AddNode("a")
	b := sess.AddNode("b")
	d := sbp.New()
	ch := sess.NewChannel("c", d.NewNetwork(pl, "s"), d, a, b)
	n := d.NIC().StaticBufSize*2 + 100
	payload := make([]byte, n)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	var got []byte
	sim.Spawn("s", func(p *vtime.Proc) {
		px := ch.At(a).BeginPacking(p, b.Rank)
		px.Pack(p, payload, mad.SendCheaper, mad.ReceiveCheaper)
		px.EndPacking(p)
	})
	sim.Spawn("r", func(p *vtime.Proc) {
		u := ch.At(b).BeginUnpacking(p)
		got = make([]byte, n)
		u.Unpack(p, got, mad.SendCheaper, mad.ReceiveCheaper)
		u.EndUnpacking(p)
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	for i := range payload {
		if got[i] != payload[i] {
			t.Fatalf("corrupted at %d", i)
		}
	}
	if d.Allocated() < 3 {
		t.Errorf("allocated %d slots, want >= 3", d.Allocated())
	}
	if a.Host.BytesCopied() != int64(n) || b.Host.BytesCopied() != int64(n) {
		t.Errorf("copies = %d/%d bytes, want %d each", a.Host.BytesCopied(), b.Host.BytesCopied(), n)
	}
}
