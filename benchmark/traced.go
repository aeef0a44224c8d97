package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	madeleine "madgo"
	"madgo/internal/flight"
	"madgo/internal/route"
	"madgo/internal/topo"
)

// samples indexes a metrics-registry snapshot by series name.
type samples map[string][]madeleine.MetricSample

func indexSamples(all []madeleine.MetricSample) samples {
	ix := samples{}
	for _, s := range all {
		ix[s.Name] = append(ix[s.Name], s)
	}
	return ix
}

// sum adds a counter (or a histogram's sum) over every label set.
func (ix samples) sum(name string) float64 {
	var t float64
	for _, s := range ix[name] {
		t += s.Value
	}
	return t
}

func (ix samples) sumWhere(name, label, want string) float64 {
	var t float64
	for _, s := range ix[name] {
		if s.Labels[label] == want {
			t += s.Value
		}
	}
	return t
}

// p50us is the median of a duration histogram in µs. The registry keeps one
// histogram per label set and exposes only their quantiles, so this is the
// count-weighted median of the per-series medians.
func (ix samples) p50us(name string) float64 {
	ss := append([]madeleine.MetricSample(nil), ix[name]...)
	sort.Slice(ss, func(i, j int) bool { return ss[i].P50 < ss[j].P50 })
	var total, cum int64
	for _, s := range ss {
		total += s.Count
	}
	for _, s := range ss {
		cum += s.Count
		if 2*cum >= total && s.Count > 0 {
			return s.P50 * 1e6
		}
	}
	return 0
}

// hostRef is the untraced cost the traced run is compared with: medians over
// trials of the same input with observability disarmed.
type hostRef struct {
	wallPerMsg   float64 // seconds
	allocsPerMsg float64
	wall         float64 // seconds, whole Run
	copiedRatio  float64
	ringNeed     int     // deepest flight ring the input needs
	ringDropped  float64 // share of events the default rings overwrote
}

func referenceOf(trials []*trial) hostRef {
	var wallPer, allocs, wall []float64
	var ref hostRef
	for _, t := range trials {
		if t.delivered == 0 {
			continue
		}
		n := float64(t.delivered)
		wallPer = append(wallPer, t.wall.Seconds()/n)
		allocs = append(allocs, float64(t.mallocs)/n)
		wall = append(wall, t.wall.Seconds())
		ref.copiedRatio = ratio(float64(t.copied), float64(t.payload))
		ref.ringNeed, ref.ringDropped = t.ringNeed, t.ringDropped
	}
	ref.wallPerMsg, ref.allocsPerMsg, ref.wall = median(wallPer), median(allocs), median(wall)
	return ref
}

// layerMetricsOf derives the per-layer metrics of one workload from its
// traced run: public counters, registry samples, flight budgets and the
// harness's own spans.
func layerMetricsOf(w *workload, v *variant, t *trial, ref hostRef, r *results) map[string]value {
	out := map[string]value{}
	put := func(name string, x float64) { out[name] = exact(name, x) }
	sys := t.sys
	msgs := float64(t.delivered)
	payload := float64(t.payload)
	virtual := sys.Now().Sub(0).Seconds()
	ix := indexSamples(sys.Metrics().Samples())
	st := sys.Stats()
	sends := ix.sum("madgo_link_sends_total")

	put("copied_bytes_per_byte", ref.copiedRatio)
	put("vtime.host_us_per_virtual_ms", ratio(ref.wall*1e6, virtual*1e3))

	put("fluid.flows_per_msg", ratio(ix.sum("madgo_flows_started_total"), msgs))
	put("fluid.flow_cancel_ratio", ratio(ix.sum("madgo_flows_canceled_total"), ix.sum("madgo_flows_started_total")))
	put("hw.memcpy_calls_per_msg", ratio(ix.sum("madgo_memcpy_total"), msgs))
	put("mad.link_sends_per_msg", ratio(sends, msgs))
	put("mad.wire_bytes_per_byte", ratio(ix.sum("madgo_link_send_bytes_total"), payload))
	put("mad.link_send_virtual_us_p50", ix.p50us("madgo_link_send_seconds"))

	var gwPackets, gwStalls, gwBytes float64
	for _, g := range st.Gateways {
		gwPackets += float64(g.Packets)
		gwStalls += float64(g.Stalls)
		gwBytes += float64(g.Bytes)
	}
	put("fwd.gw_packets_per_msg", ratio(gwPackets, msgs))
	put("fwd.gw_stalls_per_kpkt", 1000*ratio(gwStalls, gwPackets))
	put("fwd.gw_stall_virtual_share", ratio(ix.sum("madgo_gateway_stall_seconds"), virtual*float64(len(st.Gateways))))
	put("fwd.gw_swap_virtual_us_p50", ix.p50us("madgo_gateway_swap_seconds"))

	put("fwd.rel_retransmits_per_kpkt", 1000*ratio(float64(st.Delivery.Retransmits), sends))
	put("fwd.rel_duplicates_per_kmsg", 1000*ratio(float64(st.Delivery.Duplicates), msgs))
	put("fwd.rel_ack_coalesce_ratio", ratio(float64(st.Ack.Coalesced), float64(st.Ack.Packets+st.Ack.Coalesced)))
	put("fwd.rel_backpressure_per_kmsg", 1000*ratio(float64(st.Flow.Backpressure), msgs))

	var railTotal, railMax float64
	for _, b := range st.Stripe.RailBytes {
		railTotal += float64(b)
		if float64(b) > railMax {
			railMax = float64(b)
		}
	}
	put("fwd.stripe_msg_share", ratio(float64(st.Stripe.Messages), msgs))
	put("fwd.stripe_max_rail_share", ratio(railMax, railTotal))
	put("fwd.stripe_rebalances_per_kmsg", 1000*ratio(float64(st.Stripe.Rebalances), msgs))

	put("fwd.credit_stalls_per_kmsg", 1000*ratio(float64(st.Flow.Stalls), msgs))
	put("fwd.credit_stall_virtual_share", ratio(st.Flow.StallTime.Seconds(), virtual*float64(st.Flow.Accounts)))
	put("fwd.drr_rounds_per_kpkt", 1000*ratio(float64(st.Flow.SchedRounds), gwPackets))
	imbalance := float64(st.Flow.CreditsGranted - st.Flow.CreditsSpent)
	put("fwd.credit_ledger_imbalance", imbalance)
	r.check(w.name+": credit ledger balanced", imbalance == 0,
		"%d credits granted, %d spent at quiescence", st.Flow.CreditsGranted, st.Flow.CreditsSpent)

	put("fwd.mcast_egress_per_ingress_byte", ratio(float64(st.Mcast.ReplicatedBytes), gwBytes))
	put("fwd.mcast_tree_cache_hit_ratio", ratio(float64(st.Mcast.TreeCacheHits), float64(st.Mcast.TreeCacheHits+st.Mcast.TreeRecomputes)))

	frames := float64(st.Agg.Frames)
	put("agg.subs_per_frame", ratio(float64(st.Agg.SubMessages), frames))
	put("agg.flush_size_share", ratio(float64(st.Agg.SizeFlushes), frames))
	put("agg.flush_idle_share", ratio(float64(st.Agg.IdleFlushes), frames))
	put("agg.flush_ordering_share", ratio(float64(st.Agg.OrderingFlushes), frames))
	put("agg.bypass_share", ratio(float64(st.Agg.BypassMessages), float64(st.Agg.BypassMessages+st.Agg.SubMessages)))
	put("agg.frame_fill_ratio", ratio(float64(st.Agg.FrameBytes), frames*float64(sys.Channel.Config().MTU)))
	put("agg.queue_wait_virtual_us_p50", ix.p50us("madgo_agg_queue_wait_seconds"))

	put("health.probes_per_virtual_s", ratio(ix.sum("madgo_health_probes_total"), virtual))
	var transitions, epoch float64
	if h := sys.Health(); h != nil {
		transitions, epoch = float64(len(h.Transitions())), float64(h.Epoch())
	}
	put("health.transitions", transitions)
	put("health.route_epoch_final", epoch)
	put("fault.drops_per_kpkt", 1000*ratio(ix.sumWhere("madgo_faults_total", "kind", "drop"), sends))

	budgets := sys.Budgets()
	agg := flight.Aggregate(budgets)
	total := agg.Total.Seconds()
	share := func(d madeleine.Duration) float64 { return ratio(d.Seconds(), total) }
	stageKey := map[flight.Stage]string{
		flight.StagePack: "pack", flight.StageQueueWait: "queue-wait", flight.StageWire: "wire",
		flight.StageSwap: "swap", flight.StageStall: "stall", flight.StageRexmit: "rexmit",
		flight.StageReassembly: "reassembly", flight.StageAckWait: "ack-wait", flight.StageAggWait: "agg-wait",
	}
	sum := share(agg.Other) - share(agg.Overlap)
	events := 0
	for s := flight.Stage(0); s < flight.NumStages; s++ {
		put("flight.share_"+stageKey[s], share(agg.Stages[s]))
		sum += share(agg.Stages[s])
	}
	for _, b := range budgets {
		events += b.Events
	}
	put("flight.share_other", share(agg.Other))
	put("flight.share_overlap", share(agg.Overlap))
	put("flight.events_per_msg", ratio(float64(events), msgs))
	// What the always-on recorder loses at its default depth; the traced
	// run itself kept everything.
	put("flight.ring_dropped_ratio", ref.ringDropped)
	r.check(w.name+": flight budget sums to the latency", sum > 0.99 && sum < 1.01,
		"stage shares + other - overlap = %.4f over %d messages", sum, agg.Messages)

	put("obs.armed_host_time_ratio", ratio(t.wall.Seconds()/msgs, ref.wallPerMsg))
	put("obs.armed_extra_allocs_per_msg", float64(t.mallocs)/msgs-ref.allocsPerMsg)
	put("obs.hops_per_msg", ratio(float64(len(sys.Metrics().Hops())), msgs))
	put("obs.series_count", float64(len(sys.Metrics().Samples())))
	put("trace.spans_per_msg", ratio(float64(len(t.tracer.Spans())), msgs))

	var pack, unpack []float64
	for _, sp := range t.spans {
		d := sp.v1.Sub(sp.v0).Microseconds()
		if sp.name == "pack" {
			pack = append(pack, d)
		} else {
			unpack = append(unpack, d)
		}
	}
	p50 := func(xs []float64) value {
		m, _ := percentile(xs, 0.5)
		return value{Value: m, Unit: "us", N: len(xs)}
	}
	out["harness.pack_virtual_us_p50"] = p50(pack)
	out["harness.unpack_virtual_us_p50"] = p50(unpack)

	for name, val := range routeTimings(v) {
		out[name] = val
	}
	return out
}

// routeTimings times, outside NewSystem, the set-up work that grows with the
// topology: parsing, the route table, K=2 route search and one multicast
// tree, each the median of five repetitions on the variant's own topology.
func routeTimings(v *variant) map[string]value {
	const reps = 5
	timeIt := func(fn func()) []float64 {
		xs := make([]float64, reps)
		for i := range xs {
			t0 := time.Now()
			fn()
			xs[i] = time.Since(t0).Seconds()
		}
		return xs
	}
	scaled := func(name string, xs []float64, k float64) value {
		for i := range xs {
			xs[i] *= k
		}
		return overTrials(name, xs)
	}
	var tp *topo.Topology
	parse := timeIt(func() { tp, _ = topo.Parse(v.topo) })
	var tbl *route.Table
	compute := timeIt(func() { tbl = route.Compute(tp) })

	var names []string
	for _, n := range tp.Nodes() {
		names = append(names, n.Name)
	}
	// All ordered pairs at K=2 is what striping computes at set-up; on 66
	// nodes that is 6 s, so time an evenly strided sample of at most 24
	// pairs and scale it to the pair count.
	pairs := len(names) * (len(names) - 1)
	stride := pairs/24 + 1
	sampled := 0
	computeK := timeIt(func() {
		sampled = 0
		for k := 0; k < pairs; k += stride {
			i, j := k/(len(names)-1), k%(len(names)-1)
			if j >= i {
				j++
			}
			route.ComputeK(tp, names[i], names[j], 2, nil)
			sampled++
		}
	})
	root, dests := names[0], names[1:]
	if len(v.flows[0].dsts) > 1 {
		root, dests = v.flows[0].src, v.flows[0].dsts
	} else if len(dests) > 8 {
		dests = dests[:8]
	}
	tree := timeIt(func() {
		if _, err := tbl.ComputeMulticast(root, dests); err != nil {
			panic(err)
		}
	})
	return map[string]value{
		"topo.parse_host_ms":              scaled("topo.parse_host_ms", parse, 1e3),
		"route.compute_host_ms":           scaled("route.compute_host_ms", compute, 1e3),
		"route.computek_allpairs_host_ms": scaled("route.computek_allpairs_host_ms", computeK, 1e3*float64(pairs)/float64(sampled)),
		"route.mcast_tree_host_us":        scaled("route.mcast_tree_host_us", tree, 1e6),
	}
}

// writeTraces writes what the traced run kept in memory: the harness spans
// as Chrome trace JSON, the library's own Chrome trace and its flight
// recorder dump.
func writeTraces(dir, name string, v *variant, t *trial) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	create := func(suffix string, fill func(*bufio.Writer) error) error {
		f, err := os.Create(filepath.Join(dir, name+suffix))
		if err != nil {
			return err
		}
		bw := bufio.NewWriter(f)
		if err := fill(bw); err != nil {
			f.Close()
			return err
		}
		if err := bw.Flush(); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	if err := create(".harness.trace.json", func(w *bufio.Writer) error { return writeHarnessTrace(w, v, t) }); err != nil {
		return err
	}
	if err := create(".system.trace.json", func(w *bufio.Writer) error { return t.sys.WriteChromeTrace(w) }); err != nil {
		return err
	}
	return create(".flight.json", func(w *bufio.Writer) error { return t.sys.WriteFlightJSON(w) })
}

// writeHarnessTrace renders the harness spans in Chrome's trace_event
// format. Timestamps are virtual µs, like the library's own trace; every
// span carries its host start and duration in args. A message span runs from
// the start of its pack to the end of its last unpack and is the parent of
// both; the three share the message's id.
func writeHarnessTrace(w *bufio.Writer, v *variant, t *trial) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat,omitempty"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	pids := map[string]int{"messages": 1, "setup+run": 2}
	var order []string
	pid := func(node string) int {
		if _, ok := pids[node]; !ok {
			pids[node] = len(pids) + 1
			order = append(order, node)
		}
		return pids[node]
	}
	type msgKey struct{ flow, msg int }
	type window struct{ v0, v1 madeleine.Time }
	msgsSeen := map[msgKey]*window{}
	enc := json.NewEncoder(w)
	first := true
	emit := func(e event) error {
		if first {
			first = false
		} else if _, err := w.WriteString(","); err != nil {
			return err
		}
		return enc.Encode(e)
	}
	if _, err := w.WriteString(`{"traceEvents":[`); err != nil {
		return err
	}
	us := func(d madeleine.Duration) float64 { return d.Microseconds() }
	id := func(k msgKey) string { return fmt.Sprintf("%s/%d", v.flows[k.flow].src, k.msg) }
	for _, sp := range t.spans {
		k := msgKey{sp.flow, sp.msg}
		win := msgsSeen[k]
		if win == nil {
			win = &window{sp.v0, sp.v1}
			msgsSeen[k] = win
		}
		if sp.v0 < win.v0 {
			win.v0 = sp.v0
		}
		if sp.v1 > win.v1 {
			win.v1 = sp.v1
		}
		err := emit(event{Name: sp.name, Cat: "harness", Ph: "X", TS: us(sp.v0.Sub(0)), Dur: us(sp.v1.Sub(sp.v0)),
			PID: pid(sp.node), TID: 1, Args: map[string]any{
				"id": id(k), "parent": "message " + id(k),
				"host_start_us": float64(sp.h0.Nanoseconds()) / 1e3, "host_dur_us": float64((sp.h1 - sp.h0).Nanoseconds()) / 1e3,
			}})
		if err != nil {
			return err
		}
	}
	keys := make([]msgKey, 0, len(msgsSeen))
	for k := range msgsSeen {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].flow != keys[j].flow {
			return keys[i].flow < keys[j].flow
		}
		return keys[i].msg < keys[j].msg
	})
	for _, k := range keys {
		win := msgsSeen[k]
		if err := emit(event{Name: "message " + id(k), Cat: "harness", Ph: "X", TS: us(win.v0.Sub(0)), Dur: us(win.v1.Sub(win.v0)),
			PID: 1, TID: k.flow + 1, Args: map[string]any{"id": id(k)}}); err != nil {
			return err
		}
	}
	// setup and run have no virtual extent of their own: setup happens
	// before virtual time starts and run spans all of it.
	if err := emit(event{Name: "setup", Cat: "harness", Ph: "X", TS: 0, Dur: 0, PID: 2, TID: 1,
		Args: map[string]any{"host_dur_us": float64(t.setup.Nanoseconds()) / 1e3}}); err != nil {
		return err
	}
	if err := emit(event{Name: "run", Cat: "harness", Ph: "X", TS: 0, Dur: us(t.sys.Now().Sub(0)), PID: 2, TID: 1,
		Args: map[string]any{"host_dur_us": float64(t.wall.Nanoseconds()) / 1e3}}); err != nil {
		return err
	}
	names := append([]string{"messages", "setup+run"}, order...)
	for _, n := range names {
		if err := emit(event{Name: "process_name", Ph: "M", PID: pids[n], Args: map[string]any{"name": "harness:" + n}}); err != nil {
			return err
		}
	}
	_, err := w.WriteString("]}\n")
	return err
}
