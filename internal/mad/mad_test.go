package mad_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"madgo/internal/drivers/bip"
	"madgo/internal/drivers/loopback"
	"madgo/internal/drivers/sbp"
	"madgo/internal/drivers/sisci"
	"madgo/internal/drivers/tcpnet"
	"madgo/internal/hw"
	"madgo/internal/mad"
	"madgo/internal/vtime"
)

// pair is a two-node test fixture over a single channel.
type pair struct {
	sim  *vtime.Sim
	sess *mad.Session
	ch   *mad.Channel
	a, b *mad.Node
}

type netDriver interface {
	mad.Driver
	NewNetwork(pl *hw.Platform, name string) *hw.Network
}

func newPair(drv netDriver) *pair {
	sim := vtime.New()
	pl := hw.NewPlatform(sim)
	sess := mad.NewSession(pl)
	a := sess.AddNode("a")
	b := sess.AddNode("b")
	net := drv.NewNetwork(pl, drv.Protocol()+"0")
	ch := sess.NewChannel("ch0", net, drv, a, b)
	// A buffer given back to the pool is overwritten, so a read through an
	// alias its holder should have dropped fails the byte-exact checks.
	ch.Pool().OnPut = func(buf []byte) {
		for i := range buf {
			buf[i] = 0xDB
		}
	}
	return &pair{sim: sim, sess: sess, ch: ch, a: a, b: b}
}

func (pr *pair) run(t *testing.T) {
	t.Helper()
	if err := pr.sim.Run(); err != nil {
		t.Fatal(err)
	}
}

// pattern fills a deterministic byte pattern.
func pattern(n int, seed byte) []byte {
	d := make([]byte, n)
	for i := range d {
		d[i] = byte(i)*7 + seed
	}
	return d
}

// block is one pack/unpack step of a scripted exchange.
type block struct {
	data []byte
	s    mad.SendMode
	r    mad.RecvMode
}

// exchange sends the blocks a→b as one message and checks byte-exact
// delivery, and that every buffer taken from the channel's pool — landing
// slots and aggregates — came back.
func exchange(t *testing.T, pr *pair, blocks []block) {
	t.Helper()
	pr.sim.Spawn("sender", func(p *vtime.Proc) {
		px := pr.ch.At(pr.a).BeginPacking(p, pr.b.Rank)
		for _, bl := range blocks {
			px.Pack(p, bl.data, bl.s, bl.r)
		}
		px.EndPacking(p)
	})
	got := make([][]byte, len(blocks))
	pr.sim.Spawn("receiver", func(p *vtime.Proc) {
		u := pr.ch.At(pr.b).BeginUnpacking(p)
		if u.From() != pr.a.Rank {
			t.Errorf("From() = %d, want %d", u.From(), pr.a.Rank)
		}
		for i, bl := range blocks {
			got[i] = make([]byte, len(bl.data))
			u.Unpack(p, got[i], bl.s, bl.r)
		}
		u.EndUnpacking(p)
	})
	pr.run(t)
	for i, bl := range blocks {
		if !bytes.Equal(got[i], bl.data) {
			t.Errorf("block %d corrupted (len %d, %v/%v)", i, len(bl.data), bl.s, bl.r)
		}
	}
	if l := pr.ch.Pool().Ledger(); l.BufsTaken != l.BufsReturned {
		t.Errorf("pool ledger: %d buffers taken, %d returned", l.BufsTaken, l.BufsReturned)
	}
}

func allDrivers() map[string]netDriver {
	return map[string]netDriver{
		"loopback": loopback.New(),
		"bip":      bip.New(),
		"sisci":    sisci.New(),
		"tcpnet":   tcpnet.New(),
		"sbp":      sbp.New(),
	}
}

func TestSingleBlockRoundTripAllDrivers(t *testing.T) {
	for name, drv := range allDrivers() {
		t.Run(name, func(t *testing.T) {
			exchange(t, newPair(drv), []block{
				{pattern(1000, 1), mad.SendCheaper, mad.ReceiveCheaper},
			})
		})
	}
}

func TestLargeBlockRoundTripAllDrivers(t *testing.T) {
	for name, drv := range allDrivers() {
		t.Run(name, func(t *testing.T) {
			exchange(t, newPair(drv), []block{
				{pattern(300_000, 3), mad.SendCheaper, mad.ReceiveCheaper},
			})
		})
	}
}

func TestAllFlagCombos(t *testing.T) {
	for _, s := range []mad.SendMode{mad.SendCheaper, mad.SendSafer, mad.SendLater} {
		for _, r := range []mad.RecvMode{mad.ReceiveCheaper, mad.ReceiveExpress} {
			for _, size := range []int{0, 1, 100, 5000, 100_000} {
				name := fmt.Sprintf("%v/%v/%d", s, r, size)
				t.Run(name, func(t *testing.T) {
					exchange(t, newPair(loopback.New()), []block{
						{pattern(size, byte(size)), s, r},
					})
				})
			}
		}
	}
}

func TestMixedMultiBlockMessage(t *testing.T) {
	for name, drv := range allDrivers() {
		t.Run(name, func(t *testing.T) {
			exchange(t, newPair(drv), []block{
				{pattern(4, 0), mad.SendCheaper, mad.ReceiveExpress}, // header-ish
				{pattern(64_000, 1), mad.SendCheaper, mad.ReceiveCheaper},
				{pattern(17, 2), mad.SendSafer, mad.ReceiveExpress},
				{pattern(0, 3), mad.SendCheaper, mad.ReceiveCheaper},
				{pattern(9_000, 4), mad.SendLater, mad.ReceiveCheaper},
				{pattern(333, 5), mad.SendCheaper, mad.ReceiveCheaper},
			})
		})
	}
}

func TestEmptyMessage(t *testing.T) {
	for name, drv := range allDrivers() {
		t.Run(name, func(t *testing.T) {
			exchange(t, newPair(drv), nil)
		})
	}
}

func TestSaferAllowsImmediateReuse(t *testing.T) {
	pr := newPair(loopback.New())
	data := pattern(500, 9)
	want := append([]byte(nil), data...)
	pr.sim.Spawn("sender", func(p *vtime.Proc) {
		px := pr.ch.At(pr.a).BeginPacking(p, pr.b.Rank)
		px.Pack(p, data, mad.SendSafer, mad.ReceiveCheaper)
		for i := range data {
			data[i] = 0xFF // clobber right after Pack: SendSafer must tolerate it
		}
		px.EndPacking(p)
	})
	var got []byte
	pr.sim.Spawn("receiver", func(p *vtime.Proc) {
		u := pr.ch.At(pr.b).BeginUnpacking(p)
		got = make([]byte, len(want))
		u.Unpack(p, got, mad.SendSafer, mad.ReceiveCheaper)
		u.EndUnpacking(p)
	})
	pr.run(t)
	if !bytes.Equal(got, want) {
		t.Fatal("SendSafer block corrupted by post-Pack modification")
	}
}

func TestConsecutiveMessagesInOrder(t *testing.T) {
	pr := newPair(bip.New())
	const msgs = 8
	pr.sim.Spawn("sender", func(p *vtime.Proc) {
		for i := 0; i < msgs; i++ {
			px := pr.ch.At(pr.a).BeginPacking(p, pr.b.Rank)
			px.Pack(p, []byte{byte(i)}, mad.SendCheaper, mad.ReceiveExpress)
			px.Pack(p, pattern(10_000+i, byte(i)), mad.SendCheaper, mad.ReceiveCheaper)
			px.EndPacking(p)
		}
	})
	pr.sim.Spawn("receiver", func(p *vtime.Proc) {
		for i := 0; i < msgs; i++ {
			u := pr.ch.At(pr.b).BeginUnpacking(p)
			id := make([]byte, 1)
			u.Unpack(p, id, mad.SendCheaper, mad.ReceiveExpress)
			if int(id[0]) != i {
				t.Errorf("message %d arrived out of order (tag %d)", i, id[0])
			}
			body := make([]byte, 10_000+i)
			u.Unpack(p, body, mad.SendCheaper, mad.ReceiveCheaper)
			u.EndUnpacking(p)
			if !bytes.Equal(body, pattern(10_000+i, byte(i))) {
				t.Errorf("message %d body corrupted", i)
			}
		}
	})
	pr.run(t)
}

func TestExpressSizeThenBody(t *testing.T) {
	// The canonical Madeleine idiom: unpack an express length, allocate,
	// then unpack the body.
	pr := newPair(sisci.New())
	body := pattern(77_777, 6)
	pr.sim.Spawn("sender", func(p *vtime.Proc) {
		px := pr.ch.At(pr.a).BeginPacking(p, pr.b.Rank)
		lenb := []byte{byte(len(body)), byte(len(body) >> 8), byte(len(body) >> 16), 0}
		px.Pack(p, lenb, mad.SendCheaper, mad.ReceiveExpress)
		px.Pack(p, body, mad.SendCheaper, mad.ReceiveCheaper)
		px.EndPacking(p)
	})
	var got []byte
	pr.sim.Spawn("receiver", func(p *vtime.Proc) {
		u := pr.ch.At(pr.b).BeginUnpacking(p)
		lenb := make([]byte, 4)
		u.Unpack(p, lenb, mad.SendCheaper, mad.ReceiveExpress)
		n := int(lenb[0]) | int(lenb[1])<<8 | int(lenb[2])<<16
		got = make([]byte, n)
		u.Unpack(p, got, mad.SendCheaper, mad.ReceiveCheaper)
		u.EndUnpacking(p)
	})
	pr.run(t)
	if !bytes.Equal(got, body) {
		t.Fatal("body corrupted")
	}
}

func TestFlagMismatchPanics(t *testing.T) {
	pr := newPair(loopback.New())
	pr.sim.Spawn("sender", func(p *vtime.Proc) {
		px := pr.ch.At(pr.a).BeginPacking(p, pr.b.Rank)
		px.Pack(p, pattern(100, 0), mad.SendCheaper, mad.ReceiveExpress)
		px.EndPacking(p)
	})
	pr.sim.Spawn("receiver", func(p *vtime.Proc) {
		u := pr.ch.At(pr.b).BeginUnpacking(p)
		defer func() {
			if recover() == nil {
				t.Error("expected protocol-error panic on flag mismatch")
			}
		}()
		u.Unpack(p, make([]byte, 100), mad.SendCheaper, mad.ReceiveCheaper)
	})
	_ = pr.sim.Run() // receiver panics internally; deadlock afterwards is fine
}

func TestBidirectionalTraffic(t *testing.T) {
	pr := newPair(bip.New())
	mk := func(from, to *mad.Node, seed byte) {
		pr.sim.Spawn(fmt.Sprintf("s%d", seed), func(p *vtime.Proc) {
			px := pr.ch.At(from).BeginPacking(p, to.Rank)
			px.Pack(p, pattern(50_000, seed), mad.SendCheaper, mad.ReceiveCheaper)
			px.EndPacking(p)
		})
		pr.sim.Spawn(fmt.Sprintf("r%d", seed), func(p *vtime.Proc) {
			u := pr.ch.At(to).BeginUnpacking(p)
			got := make([]byte, 50_000)
			u.Unpack(p, got, mad.SendCheaper, mad.ReceiveCheaper)
			u.EndUnpacking(p)
			if !bytes.Equal(got, pattern(50_000, seed)) {
				t.Errorf("direction %d corrupted", seed)
			}
		})
	}
	mk(pr.a, pr.b, 1)
	mk(pr.b, pr.a, 2)
	pr.run(t)
}

func TestZeroCopyLargeCheaperBlock(t *testing.T) {
	// A large SendCheaper block over a dynamic-buffer driver must cross
	// with no CPU copy anywhere (beyond the small express/aggregate
	// traffic, of which this message has none).
	for _, name := range []string{"bip", "sisci"} {
		t.Run(name, func(t *testing.T) {
			pr := newPair(allDrivers()[name])
			pr.sim.Spawn("sender", func(p *vtime.Proc) {
				px := pr.ch.At(pr.a).BeginPacking(p, pr.b.Rank)
				px.Pack(p, pattern(256*1024, 1), mad.SendCheaper, mad.ReceiveCheaper)
				px.EndPacking(p)
			})
			pr.sim.Spawn("receiver", func(p *vtime.Proc) {
				u := pr.ch.At(pr.b).BeginUnpacking(p)
				u.Unpack(p, make([]byte, 256*1024), mad.SendCheaper, mad.ReceiveCheaper)
				u.EndUnpacking(p)
			})
			pr.run(t)
			if n, b := pr.sess.Copies(); n != 0 {
				t.Errorf("dynamic zero-copy path made %d CPU copies (%d bytes)", n, b)
			}
		})
	}
}

func TestStaticDriverCopiesBothSides(t *testing.T) {
	// SBP stages through static buffers: one copy in on the sender, one
	// copy out on the receiver — and no more.
	pr := newPair(sbp.New())
	const n = 100_000
	pr.sim.Spawn("sender", func(p *vtime.Proc) {
		px := pr.ch.At(pr.a).BeginPacking(p, pr.b.Rank)
		px.Pack(p, pattern(n, 1), mad.SendCheaper, mad.ReceiveCheaper)
		px.EndPacking(p)
	})
	pr.sim.Spawn("receiver", func(p *vtime.Proc) {
		u := pr.ch.At(pr.b).BeginUnpacking(p)
		u.Unpack(p, make([]byte, n), mad.SendCheaper, mad.ReceiveCheaper)
		u.EndUnpacking(p)
	})
	pr.run(t)
	if aBytes := pr.a.Host.BytesCopied(); aBytes != n {
		t.Errorf("sender copied %d bytes, want %d (copy into static slots)", aBytes, n)
	}
	if bBytes := pr.b.Host.BytesCopied(); bBytes != n {
		t.Errorf("receiver copied %d bytes, want %d (copy out of slots)", bBytes, n)
	}
}

func TestTCPKernelCopiesCharged(t *testing.T) {
	pr := newPair(tcpnet.New())
	const n = 50_000
	pr.sim.Spawn("sender", func(p *vtime.Proc) {
		px := pr.ch.At(pr.a).BeginPacking(p, pr.b.Rank)
		px.Pack(p, pattern(n, 1), mad.SendCheaper, mad.ReceiveCheaper)
		px.EndPacking(p)
	})
	pr.sim.Spawn("receiver", func(p *vtime.Proc) {
		u := pr.ch.At(pr.b).BeginUnpacking(p)
		u.Unpack(p, make([]byte, n), mad.SendCheaper, mad.ReceiveCheaper)
		u.EndUnpacking(p)
	})
	pr.run(t)
	if aBytes := pr.a.Host.BytesCopied(); aBytes < n {
		t.Errorf("sender kernel copies = %d bytes, want >= %d", aBytes, n)
	}
	if bBytes := pr.b.Host.BytesCopied(); bBytes < n {
		t.Errorf("receiver kernel copies = %d bytes, want >= %d", bBytes, n)
	}
}

func TestLatencyAnchors(t *testing.T) {
	// Small-message one-way latency of the calibrated models: SCI ≈4 µs,
	// Myrinet ≈13 µs (EXPERIMENTS.md anchors; generous ±50% brackets so
	// incidental cost tweaks don't break the build, while order-of-
	// magnitude regressions do).
	cases := []struct {
		drv      netDriver
		min, max float64 // µs
	}{
		{sisci.New(), 2, 9},
		{bip.New(), 7, 25},
	}
	for _, c := range cases {
		t.Run(c.drv.Protocol(), func(t *testing.T) {
			pr := newPair(c.drv)
			var oneway vtime.Duration
			pr.sim.Spawn("sender", func(p *vtime.Proc) {
				px := pr.ch.At(pr.a).BeginPacking(p, pr.b.Rank)
				px.Pack(p, []byte{42}, mad.SendCheaper, mad.ReceiveExpress)
				px.EndPacking(p)
			})
			pr.sim.Spawn("receiver", func(p *vtime.Proc) {
				u := pr.ch.At(pr.b).BeginUnpacking(p)
				u.Unpack(p, make([]byte, 1), mad.SendCheaper, mad.ReceiveExpress)
				u.EndUnpacking(p)
				oneway = vtime.Duration(p.Now())
			})
			pr.run(t)
			us := oneway.Microseconds()
			if us < c.min || us > c.max {
				t.Errorf("%s one-way latency = %.2fµs, want in [%v, %v]", c.drv.Protocol(), us, c.min, c.max)
			}
		})
	}
}

func TestBandwidthAnchors(t *testing.T) {
	// Asymptotic one-way bandwidth of a 1 MB cheaper block: Myrinet
	// ≈47 MB/s, SCI ≈44 MB/s (EXPERIMENTS.md anchors, ±10%).
	cases := []struct {
		drv  netDriver
		want float64 // MB/s
	}{
		{bip.New(), 47},
		{sisci.New(), 44},
	}
	const n = 1 << 20
	for _, c := range cases {
		t.Run(c.drv.Protocol(), func(t *testing.T) {
			pr := newPair(c.drv)
			var done vtime.Time
			pr.sim.Spawn("sender", func(p *vtime.Proc) {
				px := pr.ch.At(pr.a).BeginPacking(p, pr.b.Rank)
				px.Pack(p, pattern(n, 0), mad.SendCheaper, mad.ReceiveCheaper)
				px.EndPacking(p)
			})
			pr.sim.Spawn("receiver", func(p *vtime.Proc) {
				u := pr.ch.At(pr.b).BeginUnpacking(p)
				u.Unpack(p, make([]byte, n), mad.SendCheaper, mad.ReceiveCheaper)
				u.EndUnpacking(p)
				done = p.Now()
			})
			pr.run(t)
			mbps := float64(n) / vtime.Duration(done).Seconds() / 1e6
			if mbps < c.want*0.9 || mbps > c.want*1.1 {
				t.Errorf("%s bandwidth = %.1f MB/s, want ≈%.0f", c.drv.Protocol(), mbps, c.want)
			}
		})
	}
}

func TestCrossoverNearSixteenKB(t *testing.T) {
	// §3.2.2: SCI wins small messages, Myrinet large, with the crossover
	// around 16 KB where both deliver ≈40 MB/s.
	oneway := func(drv netDriver, n int) vtime.Duration {
		pr := newPair(drv)
		var done vtime.Time
		pr.sim.Spawn("sender", func(p *vtime.Proc) {
			px := pr.ch.At(pr.a).BeginPacking(p, pr.b.Rank)
			px.Pack(p, pattern(n, 0), mad.SendCheaper, mad.ReceiveCheaper)
			px.EndPacking(p)
		})
		pr.sim.Spawn("receiver", func(p *vtime.Proc) {
			u := pr.ch.At(pr.b).BeginUnpacking(p)
			u.Unpack(p, make([]byte, n), mad.SendCheaper, mad.ReceiveCheaper)
			u.EndUnpacking(p)
			done = p.Now()
		})
		if err := pr.sim.Run(); err != nil {
			panic(err)
		}
		return vtime.Duration(done)
	}
	if sci, myri := oneway(sisci.New(), 2048), oneway(bip.New(), 2048); sci >= myri {
		t.Errorf("2 KB: SCI %v should beat Myrinet %v", sci, myri)
	}
	if sci, myri := oneway(sisci.New(), 128*1024), oneway(bip.New(), 128*1024); myri >= sci {
		t.Errorf("128 KB: Myrinet %v should beat SCI %v", myri, sci)
	}
	// At 16 KB both land near 40 MB/s.
	for _, c := range []struct {
		name string
		drv  netDriver
	}{{"sci", sisci.New()}, {"myrinet", bip.New()}} {
		d := oneway(c.drv, 16*1024)
		mbps := 16384 / d.Seconds() / 1e6
		if mbps < 36 || mbps > 46 {
			t.Errorf("%s @16KB = %.1f MB/s, want ≈40", c.name, mbps)
		}
	}
}

// Property: any random script of blocks round-trips byte-exactly on every
// driver.
func TestRoundTripProperty(t *testing.T) {
	drivers := allDrivers()
	names := []string{"loopback", "bip", "sisci", "tcpnet", "sbp"}
	f := func(seed int64, nblocks uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		name := names[rng.Intn(len(names))]
		count := int(nblocks%6) + 1
		blocks := make([]block, count)
		for i := range blocks {
			size := rng.Intn(40_000)
			if rng.Intn(4) == 0 {
				size = rng.Intn(40)
			}
			blocks[i] = block{
				data: pattern(size, byte(rng.Int())),
				s:    []mad.SendMode{mad.SendCheaper, mad.SendSafer, mad.SendLater}[rng.Intn(3)],
				r:    []mad.RecvMode{mad.ReceiveCheaper, mad.ReceiveExpress}[rng.Intn(2)],
			}
		}
		pr := newPair(drivers[name])
		okc := make(chan bool, 1)
		pr.sim.Spawn("sender", func(p *vtime.Proc) {
			px := pr.ch.At(pr.a).BeginPacking(p, pr.b.Rank)
			for _, bl := range blocks {
				px.Pack(p, bl.data, bl.s, bl.r)
			}
			px.EndPacking(p)
		})
		pr.sim.Spawn("receiver", func(p *vtime.Proc) {
			u := pr.ch.At(pr.b).BeginUnpacking(p)
			ok := true
			for _, bl := range blocks {
				got := make([]byte, len(bl.data))
				u.Unpack(p, got, bl.s, bl.r)
				ok = ok && bytes.Equal(got, bl.data)
			}
			u.EndUnpacking(p)
			okc <- ok
		})
		if err := pr.sim.Run(); err != nil {
			return false
		}
		return <-okc
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestChannelValidation(t *testing.T) {
	sim := vtime.New()
	pl := hw.NewPlatform(sim)
	sess := mad.NewSession(pl)
	a := sess.AddNode("a")
	b := sess.AddNode("b")
	c := sess.AddNode("c")
	drv := loopback.New()
	net := drv.NewNetwork(pl, "loop0")
	ch := sess.NewChannel("ch", net, drv, a, b)

	if !ch.HasMember(a.Rank) || ch.HasMember(c.Rank) {
		t.Error("membership wrong")
	}
	if got := ch.Members(); len(got) != 2 || got[0] != a.Rank || got[1] != b.Rank {
		t.Errorf("Members() = %v", got)
	}
	for name, fn := range map[string]func(){
		"one member":      func() { sess.NewChannel("bad", net, drv, a) },
		"duplicate":       func() { sess.NewChannel("bad", net, drv, a, a) },
		"self link":       func() { ch.Link(a.Rank, a.Rank) },
		"non-member link": func() { ch.Link(a.Rank, c.Rank) },
		"non-member at":   func() { ch.At(c) },
		"dup node":        func() { sess.AddNode("a") },
		"bad rank":        func() { sess.Node(99) },
		"bad name":        func() { sess.NodeByName("zz") },
	} {
		name, fn := name, fn
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
	if sess.Node(0) != a || sess.NodeByName("b") != b || len(sess.Nodes()) != 3 {
		t.Error("session lookups wrong")
	}
	if len(sess.Channels()) != 1 {
		t.Error("channel registry wrong")
	}
}

func TestModeStrings(t *testing.T) {
	if mad.SendCheaper.String() != "send_CHEAPER" || mad.SendSafer.String() != "send_SAFER" ||
		mad.SendLater.String() != "send_LATER" || mad.ReceiveExpress.String() != "receive_EXPRESS" ||
		mad.ReceiveCheaper.String() != "receive_CHEAPER" {
		t.Error("mode strings wrong")
	}
	if mad.KindPlain.String() != "plain" || mad.KindGTM.String() != "gtm" {
		t.Error("kind strings wrong")
	}
}
