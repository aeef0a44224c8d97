package madeleine_test

import (
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"

	madeleine "madgo"
)

// statSource says where one int64 field of madeleine.Stats comes from: the
// counter series whose handles it sums (DESIGN.md §21) — all of its samples,
// those carrying one label value, or, for a field of one gateway's entry,
// those whose perGateway label names the gateway — or why it has no series.
type statSource struct {
	series     string
	label      [2]string // a {key, value} every summed sample must carry
	perGateway string    // label key holding the gateway's name, for Gateways.* fields
	streaming  bool      // a reliable channel reads the field from elsewhere (why)
	why        string
}

// statSources maps every int64 reachable from madeleine.Stats, by field path.
var statSources = map[string]statSource{
	"Delivery.Retransmits":    {series: "madgo_retransmits_total"},
	"Delivery.Failovers":      {series: "madgo_failovers_total"},
	"Delivery.MessageResends": {series: "madgo_message_resends_total"},
	"Delivery.Duplicates":     {series: "madgo_duplicates_total"},
	"Delivery.ChecksumDrops":  {series: "madgo_checksum_drops_total"},
	"Delivery.RelayDrops":     {series: "madgo_relay_drops_total"},

	"Stripe.Messages":         {series: "madgo_stripe_messages_total"},
	"Stripe.Rebalances":       {series: "madgo_stripe_rebalance_total"},
	"Stripe.RailFailovers":    {series: "madgo_stripe_rail_failovers_total"},
	"Stripe.RailReadmissions": {series: "madgo_health_readmissions_total"},
	"Stripe.RailBytes":        {series: "madgo_stripe_rail_bytes_total"},

	"Ack.Packets":   {series: "madgo_rel_ack_packets_total"},
	"Ack.Coalesced": {series: "madgo_rel_acks_coalesced_total"},

	"Flow.CreditsGranted": {series: "madgo_flow_credits_granted_total"},
	"Flow.CreditsSpent":   {series: "madgo_flow_credits_spent_total"},
	"Flow.Stalls":         {series: "madgo_flow_credit_stalls_total"},
	"Flow.StallTime":      {why: "exact nanoseconds; madgo_flow_credit_stall_seconds is a histogram of float seconds and exists only with a registry"},
	"Flow.SchedRounds":    {why: "the round count flow.DRR keeps for its own algorithm, summed over every streaming gateway's fair daemons and every reliable engine's relay queue; madgo_flow_sched_rounds_total follows it once per visit, on streaming gateways only"},
	"Flow.Backpressure":   {series: "madgo_flow_backpressure_total"}, // every reliable engine's, with or without WithFlowControl

	"Agg.SubMessages":     {series: "madgo_agg_submessages_total"},
	"Agg.Frames":          {series: "madgo_agg_frames_total"},
	"Agg.FrameBytes":      {series: "madgo_agg_frame_bytes_total"},
	"Agg.SizeFlushes":     {series: "madgo_agg_frames_total", label: [2]string{"reason", "size"}},
	"Agg.IdleFlushes":     {series: "madgo_agg_frames_total", label: [2]string{"reason", "idle"}},
	"Agg.OrderingFlushes": {series: "madgo_agg_frames_total", label: [2]string{"reason", "ordering"}},
	"Agg.BypassMessages":  {series: "madgo_agg_bypass_total"},

	"Mcast.Messages":          {series: "madgo_mcast_messages_total"},
	"Mcast.Relays":            {series: "madgo_mcast_relays_total"},
	"Mcast.Branches":          {series: "madgo_mcast_branches_total"},
	"Mcast.ReplicatedPackets": {series: "madgo_mcast_replicated_packets_total"},
	"Mcast.ReplicatedBytes":   {series: "madgo_mcast_replicated_bytes_total"},
	"Mcast.LocalDeliveries":   {series: "madgo_mcast_local_deliveries_total"},
	"Mcast.TreeCacheHits":     {why: "the plan cache's own count, written once per lookup; no series"},
	"Mcast.TreeRecomputes":    {why: "the plan cache's own count, written once per recompute; no series"},

	"Gateways.Messages": {why: "written once per relayed message; no series"},
	"Gateways.Packets": {series: "madgo_gateway_relayed_packets_total", perGateway: "gateway", streaming: true,
		why: "a reliable channel reads the engine's relayed-packet count, which has no series"},
	"Gateways.Bytes": {series: "madgo_gateway_relayed_bytes_total", perGateway: "gateway", streaming: true,
		why: "a reliable channel reads the engine's relayed-byte count, which has no series"},
	"Gateways.Stalls":      {why: "counted beside the madgo_gateway_stall_seconds histogram, which exists only with a registry"},
	"Gateways.Retransmits": {series: "madgo_retransmits_total", perGateway: "node"},
	"Gateways.Failovers":   {series: "madgo_failovers_total", perGateway: "node"},
}

// copySources are what System.Copies sums, and seriesOnly the counter series
// of fwd and hw that no Stats field reads, each with its reason.
var (
	copySources = [2]string{"madgo_memcpy_total", "madgo_memcpy_bytes_total"}
	seriesOnly  = map[string]string{
		"madgo_flow_sched_rounds_total": "follows flow.DRR's round count (Flow.SchedRounds reads the scheduler itself)",
		"madgo_rel_rx_evictions_total":  "read by RelBookkeeping, a test and tools view outside Stats",
	}
)

// statLeaves walks a Stats value and calls leaf with the path and the sum of
// every int64 under it: a field, the values of a map, or — elem set to the
// gateway's name — one element's field of the Gateways slice.
func statLeaves(v reflect.Value, path string, elem string, leaf func(path, elem string, sum int64)) {
	switch v.Kind() {
	case reflect.Int64:
		leaf(path, elem, v.Int())
	case reflect.Map:
		sum := int64(0)
		for it := v.MapRange(); it.Next(); {
			sum += it.Value().Int()
		}
		leaf(path, elem, sum)
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			statLeaves(v.Index(i), path, v.Index(i).FieldByName("Name").String(), leaf)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			sub := strings.TrimPrefix(path+"."+f.Name, ".")
			if f.Anonymous {
				sub = path
			}
			statLeaves(v.Field(i), sub, elem, leaf)
		}
	}
}

// sumSamples adds up the samples of one series that carry every given label.
func sumSamples(samples []madeleine.MetricSample, series string, labels ...[2]string) (sum int64) {
next:
	for _, s := range samples {
		if s.Name != series {
			continue
		}
		for _, l := range labels {
			if l[0] != "" && s.Labels[l[0]] != l[1] {
				continue next
			}
		}
		sum += int64(s.Value)
	}
	return sum
}

// TestStatsArmedEqualsDisarmed: a system counts the same with and without a
// registry — Stats and Copies read the counters their owners hold, never the
// registry — and with one armed every field that has a series equals the sum
// of that series' samples, because both read the same numbers.
func TestStatsArmedEqualsDisarmed(t *testing.T) {
	for _, leg := range []struct {
		name     string
		reliable bool
		run      func(t *testing.T, m *madeleine.Metrics) *madeleine.System
	}{{"streaming", false, oracleStreamingLeg}, {"striped", false, oracleStripedLeg}, {"reliable", true, oracleReliableLeg}} {
		t.Run(leg.name, func(t *testing.T) {
			m := madeleine.NewMetrics()
			armed, disarmed := leg.run(t, m), leg.run(t, nil)
			if a, d := armed.Stats(), disarmed.Stats(); !reflect.DeepEqual(a, d) {
				t.Errorf("Stats differ:\n   armed %+v\ndisarmed %+v", a, d)
			}
			ac, ab := armed.Copies()
			dc, db := disarmed.Copies()
			if ac != dc || ab != db || ac == 0 {
				t.Errorf("Copies: armed %d/%d, disarmed %d/%d", ac, ab, dc, db)
			}
			samples := m.Samples()
			if c, b := sumSamples(samples, copySources[0]), sumSamples(samples, copySources[1]); c != ac || b != ab {
				t.Errorf("Copies = %d/%d, their series sum to %d/%d", ac, ab, c, b)
			}
			nonzero := 0
			statLeaves(reflect.ValueOf(armed.Stats()), "", "", func(path, gw string, got int64) {
				src := statSources[path]
				if src.series == "" || src.streaming && leg.reliable {
					return
				}
				if want := sumSamples(samples, src.series, src.label, [2]string{src.perGateway, gw}); got != want {
					t.Errorf("%s %s = %d, %s sums to %d", path, gw, got, src.series, want)
				}
				if got > 0 {
					nonzero++
				}
			})
			if nonzero < 5 {
				t.Errorf("only %d mapped fields are nonzero: the leg no longer exercises the audit", nonzero)
			}
		})
	}
}

// totalLiteral matches a quoted counter series name in Go source.
var totalLiteral = regexp.MustCompile(`"(madgo_[a-z0-9_]+_total)"`)

// TestStatsFieldsAndSeriesAudit is the two-way audit between Stats and the
// registry: every int64 reachable from madeleine.Stats is in statSources (a
// new field fails here until it names its series or says why it has none), and
// every counter series internal/fwd and internal/hw emit is some field's
// source, System.Copies' or listed in seriesOnly with its reason.
func TestStatsFieldsAndSeriesAudit(t *testing.T) {
	seen := make(map[string]bool)
	zero := madeleine.Stats{Stripe: madeleine.StripeStats{RailBytes: map[int]int64{}}, Gateways: make([]madeleine.NamedGatewayStats, 1)}
	statLeaves(reflect.ValueOf(zero), "", "", func(path, _ string, _ int64) {
		seen[path] = true
		src, ok := statSources[path]
		switch {
		case !ok:
			t.Errorf("Stats.%s is not in statSources: name the series it sums, or why it has none", path)
		case src.series == "" && src.why == "", src.streaming && src.why == "":
			t.Errorf("Stats.%s: statSources gives neither a series nor a reason", path)
		}
	})
	read := map[string]bool{copySources[0]: true, copySources[1]: true}
	for path, src := range statSources {
		if !seen[path] {
			t.Errorf("statSources lists %s, which is not a field of Stats", path)
		}
		read[src.series] = true
	}
	emitted := make(map[string]bool)
	for _, dir := range []string{"internal/fwd", "internal/hw"} {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("no sources under %s (%v)", dir, err)
		}
		for _, f := range files {
			if strings.HasSuffix(f, "_test.go") {
				continue
			}
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range totalLiteral.FindAllStringSubmatch(string(src), -1) {
				emitted[m[1]] = true
			}
		}
	}
	var names []string
	for n := range emitted {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if read[n] == (seriesOnly[n] != "") {
			t.Errorf("%s: read by a Stats field = %v, listed as series-only = %v; want exactly one", n, read[n], seriesOnly[n] != "")
		}
	}
	for n := range seriesOnly {
		if !emitted[n] {
			t.Errorf("seriesOnly lists %s, which internal/fwd and internal/hw no longer emit", n)
		}
	}
}

// TestReliableAloneRegistersRelaySeries: the relay queue's refusals are a
// series of every reliable engine, present at zero before any traffic, whether
// or not WithFlowControl was given.
func TestReliableAloneRegistersRelaySeries(t *testing.T) {
	m := madeleine.NewMetrics()
	sys, err := madeleine.NewSystem(demoConfig, madeleine.WithReliableDelivery(), madeleine.WithMetrics(m))
	if err != nil {
		t.Fatal(err)
	}
	nodes := make(map[string]bool)
	for _, s := range m.Samples() {
		if s.Name == "madgo_flow_backpressure_total" {
			nodes[s.Labels["node"]] = true
			if s.Value != 0 {
				t.Errorf("backpressure on %s reads %v before any traffic", s.Labels["node"], s.Value)
			}
		}
	}
	for _, n := range sys.Topology.Nodes() {
		if !nodes[n.Name] {
			t.Errorf("no madgo_flow_backpressure_total series for node %s", n.Name)
		}
	}
}
