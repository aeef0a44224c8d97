package obs

// CanonicalMetricNames is the complete inventory of metric series the
// instrumented layers register, one entry per name the source mentions.
// The audit test walks the repository's non-test sources and asserts set
// equality with this list, so a new metric (or a renamed one) fails the
// build until the inventory — and with it the documentation readers grep —
// is updated. Naming conventions, checked by TestCanonicalNameConventions:
//
//   - every name starts with "madgo_",
//   - counters end in "_total",
//   - duration histograms end in "_seconds",
//   - gauges carry a unit suffix when they hold one (e.g.
//     "_bytes_per_second" for rates), and none otherwise (levels such as
//     "madgo_active_flows", states, epochs and scores).
var CanonicalMetricNames = []string{
	// Link layer (internal/mad): per-send accounting, labelled {net, node}.
	"madgo_link_sends_total",
	"madgo_link_send_bytes_total",
	"madgo_link_send_seconds",

	// Fluid engine (internal/fluid): flow lifecycle, labelled {class}.
	"madgo_flows_started_total",
	"madgo_flows_completed_total",
	"madgo_flows_canceled_total",
	"madgo_flow_bytes_total",
	"madgo_flow_seconds",
	"madgo_active_flows",

	// Host CPU (internal/hw): staging copies.
	"madgo_memcpy_total",
	"madgo_memcpy_bytes_total",

	// Fault injector (internal/fault), labelled {kind, net}.
	"madgo_faults_total",

	// Gateway pipelines (internal/fwd/gateway.go), labelled {gateway}.
	"madgo_gateway_relayed_packets_total",
	"madgo_gateway_relayed_bytes_total",
	"madgo_gateway_swap_seconds",
	"madgo_gateway_stall_seconds",

	// Reliable delivery (internal/fwd/reliable.go), labelled {node}.
	"madgo_retransmits_total",
	"madgo_failovers_total",
	"madgo_message_resends_total",
	"madgo_duplicates_total",
	"madgo_checksum_drops_total",
	"madgo_relay_drops_total",
	"madgo_rel_rx_evictions_total",
	"madgo_rel_ack_packets_total",
	"madgo_rel_acks_coalesced_total",

	// Credit-based gateway flow control (internal/fwd/flowctl.go,
	// gateway.go, reliable.go). Credit counters labelled {node, gateway}
	// (spent) or {gateway} (granted); stalls labelled {node}; scheduler
	// rounds labelled {gateway}; backpressure labelled {node}.
	"madgo_flow_credits_granted_total",
	"madgo_flow_credits_spent_total",
	"madgo_flow_credit_stalls_total",
	"madgo_flow_credit_stall_seconds",
	"madgo_flow_sched_rounds_total",
	"madgo_flow_backpressure_total",

	// Eager small-message aggregation (internal/fwd/agg.go). Frames
	// labelled {node, reason: size|idle|ordering}; the wait histogram is the
	// per-sub-message time between coalescer enqueue and flush.
	"madgo_agg_submessages_total",
	"madgo_agg_frames_total",
	"madgo_agg_frame_bytes_total",
	"madgo_agg_bypass_total",
	"madgo_agg_queue_wait_seconds",

	// Per-message delivery latency observed by traffic drivers
	// (cmd/madload -small), labelled {sink}.
	"madgo_message_latency_seconds",

	// Multi-rail striping (internal/fwd/stripe.go).
	"madgo_stripe_messages_total",
	"madgo_stripe_rebalance_total",
	"madgo_stripe_rail_failovers_total",
	"madgo_stripe_rail_bytes_total",

	// Gateway-native multicast (internal/fwd/mcast.go). Messages, branches
	// and local deliveries labelled {node}; relays and replication counters
	// labelled {gateway}. Replicated packets/bytes count *egress* transfers;
	// the ingress side stays on the gateway_relayed counters, which is what
	// keeps ingress load independent of the receiver count.
	"madgo_mcast_messages_total",
	"madgo_mcast_relays_total",
	"madgo_mcast_branches_total",
	"madgo_mcast_replicated_packets_total",
	"madgo_mcast_replicated_bytes_total",
	"madgo_mcast_local_deliveries_total",

	// Link-health detector (internal/health, internal/fwd/health.go).
	"madgo_health_probes_total",
	"madgo_health_probe_failures_total",
	"madgo_health_readmissions_total",
	"madgo_health_transitions_total",
	"madgo_health_link_score",
	"madgo_health_link_state",
	"madgo_health_dead_links",
	"madgo_route_epoch",
}
