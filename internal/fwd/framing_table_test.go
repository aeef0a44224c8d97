package fwd_test

import (
	"bytes"
	"fmt"
	"os"
	"testing"

	"madgo/internal/fwd"
	"madgo/internal/mad"
	"madgo/internal/topo"
	"madgo/internal/vtime"
)

// TestFramingTransferTable pins, for every streaming framing and every message
// shape that sits on one of its boundaries, what the wire carries and when the
// message is done: byte-exact delivery, From()/Forwarded(), the wire transfers
// the source spent toward its first gateways (the flow-control ledger charges
// exactly what crosses the wire, so the source's CreditsSpent is the meter),
// granted == spent over every account, and the virtual instant the last
// receiver finished EndUnpacking, as a literal. The literals were printed by
// the code as it stood before the endpoints shared one stream writer and
// reader (MADGO_PRINT_FRAMING_TABLE=1 prints them again) and are the oracle
// for that refactor and the next: rails through gateways in particular are
// exercised by no archive and no ledger workload. Eighteen instants were
// printed again when the gateway began to send a streamed message's header
// from the egress link's sender, overlapped with the first ingress receive
// (DESIGN.md §23): the seed, eager and eager+agg cells that stream and the
// stripe-gw cells are done 1.0–12.1 µs earlier, and no transfer count moved.
// Six were printed a third time when the coalescer's idle deadline went
// (DESIGN.md §24): the eager+agg cells whose message is coalesced are done
// 50 000 ns earlier, to the nanosecond, and nothing else moved. The same six
// a fourth time when the frame's sub-entries went from fixed-width fields to
// varints (DESIGN.md §27): a frame of one message is 11 bytes shorter for a
// message of no blocks, 15 for a block under 128 B, 13 for one under 16 KiB,
// and done 1 150, 1 569 and 572 ns earlier. (Each cell is one message, one
// frame and so one poll at the sink: not polling per sub-message moved none.)
//
// Transfers per message, F fragments: seed F+2 (header, fragments, bare
// terminator); eager 1 when the first fragment rides the header, else F+1,
// and 1 for a message without payload; an aggregate 1; a multicast branch 1
// when the whole message rides the header, else F+1; a rail F+2. Which of a
// row's cells took the compact form shows in that column.
func TestFramingTransferTable(t *testing.T) {
	type framing struct {
		name  string
		topo  func(*testing.T) *topo.Topology
		tune  func(*fwd.Config) // nil: the seed framing, nothing armed but credits
		src   string
		dsts  []string
		mcast bool
	}
	framings := []framing{
		{name: "seed", topo: paperHS, src: "a0", dsts: []string{"b1"}},
		{name: "eager", topo: paperHS, tune: func(c *fwd.Config) { c.Eager = true }, src: "a0", dsts: []string{"b1"}},
		{name: "eager+agg", topo: paperHS, tune: func(c *fwd.Config) { c.Eager, c.Aggregation = true, true }, src: "a0", dsts: []string{"b1"}},
		// One relayed branch: the gateway replicates to two leaves.
		{name: "mcast", topo: paperHS, src: "a0", dsts: []string{"b0", "b1"}, mcast: true},
		// A leaf branch (no credits) beside a relayed one, a gateway that is
		// itself a destination (the local capture), and a second gateway.
		{name: "mcast-chain", topo: mcastChain, src: "a0", dsts: []string{"a1", "gw1", "c0", "l0"}, mcast: true},
		// Both rails cross a gateway, each a different one; below the
		// threshold the message falls back to the seed framing.
		{name: "stripe-gw", topo: diamond, tune: func(c *fwd.Config) { c.StripeK, c.StripeThreshold = 2, 4000 }, src: "a", dsts: []string{"b"}},
	}
	const defaultMTU = 32 * 1024
	one := func(n int) []block {
		return []block{{pattern(n, byte(n)), mad.SendCheaper, mad.ReceiveCheaper}}
	}
	shapes := []struct {
		name   string
		mtu    int
		blocks []block
	}{
		{"none", defaultMTU, nil},
		{"zero", defaultMTU, one(0)},
		{"1B", defaultMTU, one(1)},
		{"inlineMax", defaultMTU, one(4096)},
		{"inlineMax+1", defaultMTU, one(4097)},
		{"mtu4K-20", 4096, one(4096 - 20)},
		{"mtu4K-19", 4096, one(4096 - 19)},
		{"2mtu", defaultMTU, one(2 * defaultMTU)},
		{"2mtu+1", defaultMTU, one(2*defaultMTU + 1)},
		{"mixed", defaultMTU, []block{
			{pattern(300, 1), mad.SendCheaper, mad.ReceiveExpress},
			{pattern(0, 2), mad.SendLater, mad.ReceiveCheaper},
			{pattern(40_000, 3), mad.SendLater, mad.ReceiveCheaper},
			{pattern(5, 4), mad.SendSafer, mad.ReceiveExpress},
		}},
		{"safer", defaultMTU, []block{{pattern(1000, 5), mad.SendSafer, mad.ReceiveCheaper}}},
	}

	print := os.Getenv("MADGO_PRINT_FRAMING_TABLE") != ""
	for _, fr := range framings {
		for _, sh := range shapes {
			key := fr.name + "/" + sh.name
			t.Run(key, func(t *testing.T) {
				cfg := fwd.DefaultConfig()
				cfg.MTU = sh.mtu
				cfg.FlowControl = true
				if fr.tune != nil {
					fr.tune(&cfg)
				}
				w := build(t, fr.topo(t), cfg)
				w.sim.Spawn("app-send", func(p *vtime.Proc) {
					var px *fwd.Packing
					if fr.mcast {
						px = w.vc.At(fr.src).BeginMulticast(p, fr.dsts...)
					} else {
						px = w.vc.At(fr.src).BeginPacking(p, fr.dsts[0])
					}
					for _, b := range sh.blocks {
						px.Pack(p, b.data, b.s, b.r)
					}
					px.EndPacking(p)
				})
				var done vtime.Time
				for _, dst := range fr.dsts {
					w.sim.Spawn("app-recv:"+dst, func(p *vtime.Proc) {
						u := w.vc.At(dst).BeginUnpacking(p)
						if !u.Forwarded() {
							t.Errorf("%s: not marked forwarded", dst)
						}
						if u.From() != w.vc.NodeRank(fr.src) {
							t.Errorf("%s: From() = %d, want the rank of %s", dst, u.From(), fr.src)
						}
						for i, b := range sh.blocks {
							got := make([]byte, len(b.data))
							u.Unpack(p, got, b.s, b.r)
							if !bytes.Equal(got, b.data) {
								t.Errorf("%s: block %d (%d bytes) corrupted", dst, i, len(b.data))
							}
						}
						u.EndUnpacking(p)
						if p.Now() > done {
							done = p.Now()
						}
					})
				}
				if err := w.sim.Run(); err != nil {
					t.Fatal(err)
				}
				var spent int64
				for _, a := range w.vc.FlowAccounts() {
					if a.Sender == fr.src {
						spent += a.Spent
					}
				}
				if fs := w.vc.FlowStats(); fs.CreditsGranted != fs.CreditsSpent {
					t.Errorf("credit ledger unbalanced: %d granted, %d spent", fs.CreditsGranted, fs.CreditsSpent)
				}
				got := framingCell{spent, int64(done)}
				if print {
					fmt.Printf("\t%q: {%d, %d},\n", key, got.transfers, got.doneNs)
					return
				}
				if want, ok := framingTable[key]; !ok || got != want {
					t.Errorf("source transfers and completion instant = %+v, want %+v", got, want)
				}
			})
		}
	}
}

// framingCell is one cell of the table: the wire transfers the source spent
// credits on, and the virtual instant (ns) the last receiver was done.
type framingCell struct {
	transfers int64
	doneNs    int64
}

var framingTable = map[string]framingCell{
	"seed/none":               {2, 25098},
	"seed/zero":               {3, 102719},
	"seed/1B":                 {3, 102824},
	"seed/inlineMax":          {3, 282232},
	"seed/inlineMax+1":        {3, 301776},
	"seed/mtu4K-20":           {3, 281352},
	"seed/mtu4K-19":           {3, 281395},
	"seed/2mtu":               {4, 2350410},
	"seed/2mtu+1":             {5, 2396687},
	"seed/mixed":              {7, 1932133},
	"seed/safer":              {3, 152120},
	"eager/none":              {1, 19848},
	"eager/zero":              {1, 20266},
	"eager/1B":                {1, 20384},
	"eager/inlineMax":         {1, 268025},
	"eager/inlineMax+1":       {2, 255480},
	"eager/mtu4K-20":          {1, 248395},
	"eager/mtu4K-19":          {2, 235099},
	"eager/2mtu":              {3, 2304114},
	"eager/2mtu+1":            {4, 2350391},
	"eager/mixed":             {5, 1833952},
	"eager/safer":             {1, 80839},
	"eager+agg/none":          {1, 22255},
	"eager+agg/zero":          {1, 22763},
	"eager+agg/1B":            {1, 22881},
	"eager+agg/inlineMax":     {1, 269337},
	"eager+agg/inlineMax+1":   {1, 269393},
	"eager+agg/mtu4K-20":      {1, 248695},
	"eager+agg/mtu4K-19":      {2, 235399},
	"eager+agg/2mtu":          {3, 2304414},
	"eager+agg/2mtu+1":        {4, 2350691},
	"eager+agg/mixed":         {5, 1834852},
	"eager+agg/safer":         {1, 82151},
	"mcast/none":              {1, 20845},
	"mcast/zero":              {1, 20845},
	"mcast/1B":                {1, 21397},
	"mcast/inlineMax":         {1, 322355},
	"mcast/inlineMax+1":       {2, 260602},
	"mcast/mtu4K-20":          {2, 240158},
	"mcast/mtu4K-19":          {2, 240202},
	"mcast/2mtu":              {3, 2695027},
	"mcast/2mtu+1":            {4, 2741461},
	"mcast/mixed":             {5, 1941826},
	"mcast/safer":             {1, 94401},
	"mcast-chain/none":        {1, 33513},
	"mcast-chain/zero":        {1, 33513},
	"mcast-chain/1B":          {1, 34910},
	"mcast-chain/inlineMax":   {1, 568738},
	"mcast-chain/inlineMax+1": {2, 524483},
	"mcast-chain/mtu4K-20":    {2, 501954},
	"mcast-chain/mtu4K-19":    {2, 502048},
	"mcast-chain/2mtu":        {3, 5546606},
	"mcast-chain/2mtu+1":      {4, 5593063},
	"mcast-chain/mixed":       {5, 3927024},
	"mcast-chain/safer":       {1, 160356},
	"stripe-gw/none":          {2, 31612},
	"stripe-gw/zero":          {3, 112533},
	"stripe-gw/1B":            {3, 112560},
	"stripe-gw/inlineMax":     {6, 210205},
	"stripe-gw/inlineMax+1":   {6, 210250},
	"stripe-gw/mtu4K-20":      {6, 209679},
	"stripe-gw/mtu4K-19":      {6, 209690},
	"stripe-gw/2mtu":          {7, 1899243},
	"stripe-gw/2mtu+1":        {7, 1899253},
	"stripe-gw/mixed":         {8, 1250191},
	"stripe-gw/safer":         {3, 163747},
}
