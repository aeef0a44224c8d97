package madeleine_test

import (
	"bytes"
	"encoding/binary"
	"os"
	"regexp"
	"slices"
	"testing"

	madeleine "madgo"
)

// latticeTopo has two networks bridged by two gateways. g1 and g2 are both
// dual-homed, so the pair g1 → g2 has two direct rails, while a0 → b0 is
// forwarded through a gateway (or both, striped).
const latticeTopo = `
network m myrinet
network s sci
node a0 m
node g1 m s
node g2 m s
node b0 s
`

// latticeArgs gives every With… option of the facade the argument the
// lattice runs it with. An option api.txt lists and this map lacks fails
// TestOptionLatticePairwise until it is given one.
var latticeArgs = map[string]func() madeleine.Option{
	"WithAggregation":        madeleine.WithAggregation,
	"WithAutoMTU":            madeleine.WithAutoMTU,
	"WithEagerSmallMessages": madeleine.WithEagerSmallMessages,
	"WithFaults": func() madeleine.Option {
		return madeleine.WithFaults(madeleine.NewFaultPlan(7).Drop("*", 0.01))
	},
	"WithFlightRingCap":    func() madeleine.Option { return madeleine.WithFlightRingCap(256) },
	"WithFlowControl":      madeleine.WithFlowControl,
	"WithMTU":              func() madeleine.Option { return madeleine.WithMTU(16 * 1024) },
	"WithMetrics":          func() madeleine.Option { return madeleine.WithMetrics(madeleine.NewMetrics()) },
	"WithNetworkMTU":       func() madeleine.Option { return madeleine.WithNetworkMTU("s", 8*1024) },
	"WithPaperFidelity":    madeleine.WithPaperFidelity,
	"WithPipelineDepth":    func() madeleine.Option { return madeleine.WithPipelineDepth(1) },
	"WithProduction":       madeleine.WithProduction,
	"WithReliableDelivery": madeleine.WithReliableDelivery,
	"WithRouteNetworks":    func() madeleine.Option { return madeleine.WithRouteNetworks("m", "s") },
	"WithStriping":         func() madeleine.Option { return madeleine.WithStriping(2) },
	"WithTracer":           func() madeleine.Option { return madeleine.WithTracer(madeleine.NewTracer()) },
	"WithoutZeroCopy":      madeleine.WithoutZeroCopy,
}

// TestOptionLatticePairwise runs NewSystem with every option alone and every
// ordered pair of distinct options (later options see what earlier ones set,
// so order matters: WithPaperFidelity resets what came before it). Every case
// builds and delivers byte-exact a 64 KiB and a 64 B
// message to a forwarded destination and to a dual-homed one, and a
// three-destination multicast when the channel can multicast.
func TestOptionLatticePairwise(t *testing.T) {
	api, err := os.ReadFile("api.txt")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, m := range regexp.MustCompile(`(?m)^func (With\w+)\(.*\) Option$`).FindAllSubmatch(api, -1) {
		name := string(m[1])
		if latticeArgs[name] == nil {
			t.Fatalf("api.txt lists %s, which latticeArgs gives no argument", name)
		}
		names = append(names, name)
	}
	if len(names) != len(latticeArgs) {
		t.Fatalf("latticeArgs has %d options, api.txt %d", len(latticeArgs), len(names))
	}
	var delivered int
	run := func(combo ...string) {
		opts := make([]madeleine.Option, len(combo))
		for i, name := range combo {
			opts[i] = latticeArgs[name]()
		}
		sys, err := madeleine.NewSystem(latticeTopo, opts...)
		if err != nil {
			t.Errorf("%v: NewSystem: %v", combo, err)
			return
		}
		if latticeDeliver(t, sys, combo) {
			delivered++
		}
	}
	for _, a := range names {
		run(a)
		for _, b := range names {
			if a != b {
				run(a, b)
			}
		}
	}
	if n := len(names) * len(names); delivered != n {
		t.Errorf("%d of %d cases delivered", delivered, n)
	}
	t.Logf("%d cases: %d delivered", len(names)*len(names), delivered)
}

// latticeDeliver sends a0 → b0 (forwarded) and g1 → g2 (two rails) a 64 KiB
// and a 64 B message each, then multicasts 64 KiB from a0 to b0, g1 and g2
// when the channel can, and reports whether every message arrived once and
// byte-exact. A message opens with an express header naming it, so receivers
// need not know the order in which messages from different senders arrive.
func latticeDeliver(t *testing.T, sys *madeleine.System, combo []string) bool {
	t.Helper()
	type msg struct {
		tag       byte
		src       string
		dsts      []string
		size      int
		multicast bool
	}
	msgs := []msg{
		{1, "a0", []string{"b0"}, 64 << 10, false},
		{2, "a0", []string{"b0"}, 64, false},
		{3, "g1", []string{"g2"}, 64 << 10, false},
		{4, "g1", []string{"g2"}, 64, false},
	}
	if sys.Channel.CanMulticast() {
		msgs = append(msgs, msg{5, "a0", []string{"b0", "g1", "g2"}, 64 << 10, true})
	}
	payload := func(tag byte, n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(i*7) + tag*31
		}
		return b
	}
	expect := map[string]int{}
	for _, m := range msgs {
		for _, d := range m.dsts {
			expect[d]++
		}
	}
	ok := true
	fail := func(format string, args ...any) {
		t.Helper()
		t.Errorf("%v: "+format, append([]any{combo}, args...)...)
		ok = false
	}
	for _, src := range []string{"a0", "g1"} {
		sys.Spawn("send:"+src, func(p *madeleine.Proc) {
			for _, m := range msgs {
				if m.src != src {
					continue
				}
				var px *madeleine.Packing
				if m.multicast {
					px = sys.At(src).BeginMulticast(p, m.dsts...)
				} else {
					px = sys.At(src).BeginPacking(p, m.dsts[0])
				}
				hdr := binary.LittleEndian.AppendUint32([]byte{m.tag}, uint32(m.size))
				px.Pack(p, hdr, madeleine.SendCheaper, madeleine.ReceiveExpress)
				px.Pack(p, payload(m.tag, m.size), madeleine.SendCheaper, madeleine.ReceiveCheaper)
				px.EndPacking(p)
			}
		})
	}
	for _, dst := range []string{"b0", "g1", "g2"} {
		n := expect[dst]
		sys.Spawn("recv:"+dst, func(p *madeleine.Proc) {
			seen := map[byte]bool{}
			for range n {
				u := sys.At(dst).BeginUnpacking(p)
				hdr := make([]byte, 5)
				u.Unpack(p, hdr, madeleine.SendCheaper, madeleine.ReceiveExpress)
				tag, size := hdr[0], int(binary.LittleEndian.Uint32(hdr[1:]))
				got := make([]byte, size)
				u.Unpack(p, got, madeleine.SendCheaper, madeleine.ReceiveCheaper)
				u.EndUnpacking(p)
				i := slices.IndexFunc(msgs, func(m msg) bool { return m.tag == tag })
				switch {
				case i < 0 || !slices.Contains(msgs[i].dsts, dst) || msgs[i].size != size:
					fail("%s received an unexpected message %d of %d bytes", dst, tag, size)
				case seen[tag]:
					fail("%s received message %d twice", dst, tag)
				case sys.NodeName(u.From()) != msgs[i].src:
					fail("%s received message %d from %s, want %s", dst, tag, sys.NodeName(u.From()), msgs[i].src)
				case !bytes.Equal(got, payload(tag, size)):
					fail("%s received message %d corrupted", dst, tag)
				}
				seen[tag] = true
			}
		})
	}
	if err := sys.Run(); err != nil {
		fail("Run: %v", err)
	}
	return ok
}
