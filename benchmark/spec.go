package main

// The metric registry: every name the program emits, with its unit, its
// direction and the clock it is measured on. BENCHMARK.json, the README
// glossary and -compare are all checked against these tables.

const (
	higher = "higher"
	lower  = "lower"
)

// e2eMetric is one end-to-end metric of the ledger.
type e2eMetric struct {
	name   string
	unit   string
	clock  string // "virtual", "host" or "-"
	better string
	// bound is the share of the baseline by which the metric may worsen in
	// -compare before it counts as regressed; 0 means the two runs (same
	// seed, same load) must agree exactly.
	bound float64
	// driverBound is the bound BENCHMARK.json carries: the driver compares
	// medians over runs of different seeds, so even a virtual metric needs
	// room for how far the seed moves it. 0 keeps the metric out of
	// BENCHMARK.json's end_to_end list: either it is 0 on some workload, and
	// a share of 0 bounds nothing, or it is a host time, whose run-to-run
	// spread on a shared two-core sandbox (6-27% wall, 7-25% CPU over ten
	// runs) is wider than the largest bound that file may carry.
	driverBound float64
}

var e2eMetrics = []e2eMetric{
	{"setup_s", "s", "host", lower, 0.25, 0.25},
	{"goodput_virtual_MBps", "MB/s", "virtual", higher, 0, 0.15},
	{"latency_virtual_p50_us", "us", "virtual", lower, 0, 0.25},
	{"latency_virtual_p99_us", "us", "virtual", lower, 0, 0.25},
	{"flow_fairness_jain", "1", "virtual", higher, 0, 0.03},
	{"host_msgs_per_s", "1/s", "host", higher, 0.10, 0},
	{"host_cpu_us_per_msg", "us", "host", lower, 0.10, 0},
	{"host_allocs_per_msg", "1", "host", lower, 0.01, 0.05},
	{"host_alloc_KB_per_msg", "KiB", "host", lower, 0.02, 0.05},
	{"copied_bytes_per_byte", "1", "virtual", lower, 0, 0},
	{"delivery_failure_ratio", "1", "-", lower, 0, 0},
}

// layerMetric is one per-layer metric.
type layerMetric struct {
	name   string
	unit   string
	better string
}

var layerMetrics = []layerMetric{
	// Measured once per workload: the traced run, public counters and
	// timings around library calls. The first is the one end-to-end metric
	// that is 0 on the zero-copy workloads and so rides here in
	// BENCHMARK.json; it is measured on the untraced trials.
	{"copied_bytes_per_byte", "1", lower},

	{"vtime.host_us_per_virtual_ms", "us/ms", lower},
	{"fluid.flows_per_msg", "1", lower},
	{"fluid.flow_cancel_ratio", "1", lower},
	{"hw.memcpy_calls_per_msg", "1", lower},
	{"mad.link_sends_per_msg", "1", lower},
	{"mad.wire_bytes_per_byte", "1", lower},
	{"mad.link_send_virtual_us_p50", "us", lower},
	{"fwd.gw_packets_per_msg", "1", lower},
	{"fwd.gw_stalls_per_kpkt", "1", lower},
	{"fwd.gw_stall_virtual_share", "1", lower},
	{"fwd.gw_swap_virtual_us_p50", "us", lower},
	{"fwd.rel_retransmits_per_kpkt", "1", lower},
	{"fwd.rel_duplicates_per_kmsg", "1", lower},
	{"fwd.rel_ack_coalesce_ratio", "1", higher},
	{"fwd.rel_backpressure_per_kmsg", "1", lower},
	{"fwd.stripe_msg_share", "1", higher},
	{"fwd.stripe_max_rail_share", "1", lower},
	{"fwd.stripe_rebalances_per_kmsg", "1", lower},
	{"fwd.credit_stalls_per_kmsg", "1", lower},
	{"fwd.credit_stall_virtual_share", "1", lower},
	{"fwd.drr_rounds_per_kpkt", "1", lower},
	{"fwd.credit_ledger_imbalance", "count", lower},
	{"fwd.mcast_egress_per_ingress_byte", "1", higher},
	{"fwd.mcast_tree_cache_hit_ratio", "1", higher},
	{"agg.subs_per_frame", "1", higher},
	{"agg.flush_size_share", "1", higher},
	{"agg.flush_idle_share", "1", lower},
	{"agg.flush_ordering_share", "1", lower},
	{"agg.bypass_share", "1", lower},
	{"agg.frame_fill_ratio", "1", higher},
	{"agg.queue_wait_virtual_us_p50", "us", lower},
	{"health.probes_per_virtual_s", "1/s", lower},
	{"health.transitions", "count", lower},
	{"health.route_epoch_final", "count", lower},
	{"fault.drops_per_kpkt", "1", lower},
	{"flight.share_pack", "1", lower},
	{"flight.share_queue-wait", "1", lower},
	{"flight.share_wire", "1", higher},
	{"flight.share_swap", "1", lower},
	{"flight.share_stall", "1", lower},
	{"flight.share_rexmit", "1", lower},
	{"flight.share_reassembly", "1", lower},
	{"flight.share_ack-wait", "1", lower},
	{"flight.share_agg-wait", "1", lower},
	{"flight.share_other", "1", lower},
	{"flight.share_overlap", "1", higher},
	{"flight.events_per_msg", "1", lower},
	{"flight.ring_dropped_ratio", "1", lower},
	{"obs.armed_host_time_ratio", "1", lower},
	{"obs.armed_extra_allocs_per_msg", "1", lower},
	{"obs.hops_per_msg", "1", lower},
	{"obs.series_count", "count", lower},
	{"trace.spans_per_msg", "1", lower},
	{"harness.pack_virtual_us_p50", "us", lower},
	{"harness.unpack_virtual_us_p50", "us", lower},
	{"topo.parse_host_ms", "ms", lower},
	{"route.compute_host_ms", "ms", lower},
	{"route.computek_allpairs_host_ms", "ms", lower},
	{"route.mcast_tree_host_us", "us", lower},

	// Layer microbenchmarks: they do not depend on the workload.
	{"vtime.proc_wake_ns_2procs", "ns", lower},
	{"vtime.proc_wake_ns_1024procs", "ns", lower},
	{"vtime.proc_wake_allocs", "1", lower},
	{"vtime.callback_event_ns", "ns", lower},
	{"vtime.spawn_ns", "ns", lower},
	{"vsync.chan_handoff_ns", "ns", lower},
	{"fluid.transfer_ns_1flow", "ns", lower},
	{"fluid.transfer_ns_8flows", "ns", lower},
	{"fluid.transfer_allocs", "1", lower},
	{"hw.memcpy_call_ns", "ns", lower},
	{"mad.msg_ns_sci_64B", "ns", lower},
	{"mad.msg_allocs_sci_64B", "1", lower},
	{"mad.msg_ns_myrinet_32KB", "ns", lower},
	{"mad.msg_allocs_myrinet_32KB", "1", lower},
	{"drivers.sci_virtual_MBps_16KB", "MB/s", higher},
	{"drivers.myrinet_virtual_MBps_16KB", "MB/s", higher},
	{"agg.build_ns_per_sub_64B", "ns", lower},
	{"agg.read_ns_per_sub_64B", "ns", lower},
	{"agg.allocs_per_frame", "1", lower},
	{"flow.drr_ns_per_item_1flow", "ns", lower},
	{"flow.drr_ns_per_item_64flows", "ns", lower},
	{"flow.drr_allocs_per_item", "1", lower},
	{"flow.grant_codec_ns", "ns", lower},
	{"health.report_ns", "ns", lower},
	{"health.probe_codec_ns", "ns", lower},
	{"fault.verdict_ns", "ns", lower},
	{"obs.add_ns_armed", "ns", lower},
	{"obs.add_ns_nil", "ns", lower},
	{"obs.add_allocs_armed", "1", lower},
	{"obs.observe_ns_armed", "ns", lower},
	{"obs.recordhop_ns", "ns", lower},
	{"obs.prometheus_write_ms", "ms", lower},
	{"trace.record_ns", "ns", lower},
	{"flight.record_ns", "ns", lower},
	{"flight.record_allocs", "1", lower},
	{"flight.analyze_us_per_msg", "us", lower},
	{"coll.broadcast_virtual_us_8x64KB", "us", lower},
	{"coll.allreduce_virtual_us_8x1K", "us", lower},
	{"coll.barrier_virtual_us_8", "us", lower},
	{"coll.broadcast_host_us_8x64KB", "us", lower},
	{"bench.fig6_virtual_MBps_1MB_32KB", "MB/s", higher},
	{"bench.fig7_virtual_MBps_1MB_32KB", "MB/s", higher},
	{"bench.fig6_peak_virtual_MBps", "MB/s", higher},
	{"bench.swap_overhead_virtual_us", "us", lower},
	{"bench.fig6_quick_host_ms", "ms", lower},
	{"bench.fig6_quick_allocs", "count", lower},
}

// paperReference holds the EXPERIMENTS.md figure each paper-fidelity metric
// is printed against.
var paperReference = map[string]float64{
	"bench.fig6_virtual_MBps_1MB_32KB":  40.4,
	"bench.fig7_virtual_MBps_1MB_32KB":  28.5,
	"bench.fig6_peak_virtual_MBps":      42.7,
	"bench.swap_overhead_virtual_us":    40,
	"drivers.sci_virtual_MBps_16KB":     43.1,
	"drivers.myrinet_virtual_MBps_16KB": 43.1,
}

// value is one reported number. Host metrics are medians over trials and
// carry their quartiles; percentiles carry their sample count and how many
// samples lie beyond them.
type value struct {
	Value  float64  `json:"value"`
	Unit   string   `json:"unit"`
	Q1     *float64 `json:"q1,omitempty"`
	Q3     *float64 `json:"q3,omitempty"`
	N      int      `json:"n,omitempty"`
	Beyond *int     `json:"beyond,omitempty"`
}

func unitOf(name string) string {
	for _, m := range e2eMetrics {
		if m.name == name {
			return m.unit
		}
	}
	for _, m := range layerMetrics {
		if m.name == name {
			return m.unit
		}
	}
	panic("benchmark: metric " + name + " is not in the registry")
}

// exact is a value with no spread: a virtual-time result or a count.
func exact(name string, v float64) value { return value{Value: v, Unit: unitOf(name)} }

// overTrials is the median of a host metric over trials, with quartiles.
func overTrials(name string, xs []float64) value {
	q1, m, q3 := quartiles(xs)
	return value{Value: m, Unit: unitOf(name), Q1: &q1, Q3: &q3, N: len(xs)}
}
