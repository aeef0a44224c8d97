package madeleine_test

import (
	"errors"
	"testing"

	madeleine "madgo"
)

// Every tuning option must be rejected when given without the option that
// arms its subsystem — and accepted alongside it. One table row per pair.
func TestOptionValidation(t *testing.T) {
	cases := []struct {
		name     string
		opts     []madeleine.Option
		option   string // expected ConfigError.Option; "" = must build
		requires string
	}{
		{
			name:     "aggregation without eager",
			opts:     []madeleine.Option{madeleine.WithAggregation()},
			option:   "WithAggregation",
			requires: "WithEagerSmallMessages",
		},
		{
			name: "aggregation with eager",
			opts: []madeleine.Option{madeleine.WithEagerSmallMessages(), madeleine.WithAggregation()},
		},
		{
			name:     "credit window without flow control",
			opts:     []madeleine.Option{madeleine.WithCreditWindow(4)},
			option:   "WithCreditWindow",
			requires: "WithFlowControl",
		},
		{
			name: "credit window with flow control",
			opts: []madeleine.Option{madeleine.WithFlowControl(), madeleine.WithCreditWindow(4)},
		},
		{
			name:     "stripe threshold without striping",
			opts:     []madeleine.Option{madeleine.WithStripeThreshold(8 * 1024)},
			option:   "WithStripeThreshold",
			requires: "WithStriping",
		},
		{
			name: "stripe threshold with striping",
			opts: []madeleine.Option{madeleine.WithStriping(2), madeleine.WithStripeThreshold(8 * 1024)},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := madeleine.NewSystem(demoConfig, tc.opts...)
			if tc.option == "" {
				if err != nil {
					t.Fatalf("coherent options rejected: %v", err)
				}
				return
			}
			var ce *madeleine.ConfigError
			if !errors.As(err, &ce) {
				t.Fatalf("err = %v, want *ConfigError", err)
			}
			if ce.Option != tc.option || ce.Requires != tc.requires {
				t.Errorf("ConfigError = %s requires %s, want %s requires %s",
					ce.Option, ce.Requires, tc.option, tc.requires)
			}
			if ce.Error() == "" || ce.Detail == "" {
				t.Error("ConfigError carries no message")
			}
		})
	}
}

func TestPresets(t *testing.T) {
	// The production preset arms every post-paper subsystem coherently.
	prod, err := madeleine.NewSystem(demoConfig, madeleine.WithProduction())
	if err != nil {
		t.Fatal(err)
	}
	if prod.Health() == nil {
		t.Error("WithProduction did not arm the health monitor")
	}
	if prod.Channel.CanMulticast() {
		t.Error("production preset is reliable; multicast should be unavailable")
	}
	// The paper preset undoes everything the production preset armed.
	seed, err := madeleine.NewSystem(demoConfig, madeleine.WithProduction(), madeleine.WithPaperFidelity())
	if err != nil {
		t.Fatal(err)
	}
	if seed.Health() != nil {
		t.Error("WithPaperFidelity left the health monitor armed")
	}
	if !seed.Channel.CanMulticast() {
		t.Error("paper preset is streaming; multicast should be available")
	}
	// Individual options layered after a preset still win.
	over, err := madeleine.NewSystem(demoConfig,
		madeleine.WithProduction(), madeleine.WithCreditWindow(3))
	if err != nil {
		t.Fatal(err)
	}
	_ = over
}

// TestStatsComposite checks the one-call snapshot against the per-subsystem
// getters after a run that exercises the multicast path.
func TestStatsComposite(t *testing.T) {
	sys, err := madeleine.NewSystem(demoConfig, madeleine.WithFlowControl())
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 60_000)
	for i := range payload {
		payload[i] = byte(i)
	}
	members := []string{"a0", "a1", "b0", "b1"}
	for _, m := range members {
		m := m
		sys.Spawn("bcast:"+m, func(p *madeleine.Proc) {
			c, err := sys.CommAt(m, members...)
			if err != nil {
				t.Error(err)
				return
			}
			buf := make([]byte, len(payload))
			if m == "a0" {
				copy(buf, payload)
			}
			c.Broadcast(p, 0, buf)
		})
	}
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	st := sys.Stats()
	if st.Mcast.Messages != 1 || st.Mcast.Relays == 0 {
		t.Errorf("Stats().Mcast = %+v, want one multicast with gateway relays", st.Mcast)
	}
	if st.Flow.CreditsSpent == 0 {
		t.Error("Stats().Flow shows no credits spent")
	}
	if len(st.Gateways) != 1 || st.Gateways[0].Name != "gw" || st.Gateways[0].Bytes == 0 {
		t.Errorf("Stats().Gateways = %+v", st.Gateways)
	}
	// The per-subsystem getters are views over the same snapshot.
	if sys.McastStats() != st.Mcast {
		t.Error("McastStats() disagrees with Stats().Mcast")
	}
	if sys.FlowStats() != st.Flow {
		t.Error("FlowStats() disagrees with Stats().Flow")
	}
	if sys.DeliveryStats() != st.Delivery || sys.AckStats() != st.Ack {
		t.Error("reliable-mode getters disagree with Stats()")
	}
	if sys.AggStats() != st.Agg {
		t.Error("AggStats() disagrees with Stats().Agg")
	}
	gs, ok := sys.GatewayStats("gw")
	if !ok || gs != st.Gateways[0].GatewayStats {
		t.Errorf("GatewayStats(gw) = %+v ok=%v, want %+v", gs, ok, st.Gateways[0].GatewayStats)
	}
}
