package madeleine_test

import (
	"errors"
	"strings"
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
		madeleine.WithProduction(), madeleine.WithPipelineDepth(3))
	if err != nil {
		t.Fatal(err)
	}
	if d := over.Channel.Config().PipelineDepth; d != 3 {
		t.Errorf("PipelineDepth after WithProduction = %d, want 3", d)
	}
}

// TestStatsComposite checks the one-call snapshot, and GatewayStats against
// it, after a run that exercises the multicast path.
func TestStatsComposite(t *testing.T) {
	sys, err := madeleine.NewSystem(demoConfig)
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
	if st.Flow.SchedRounds == 0 {
		t.Error("Stats().Flow shows no scheduler rounds")
	}
	if len(st.Gateways) != 1 || st.Gateways[0].Name != "gw" || st.Gateways[0].Bytes == 0 {
		t.Errorf("Stats().Gateways = %+v", st.Gateways)
	}
	// GatewayStats reads the one gateway without the snapshot, and agrees.
	gs, ok := sys.GatewayStats("gw")
	if !ok || gs != st.Gateways[0].GatewayStats {
		t.Errorf("GatewayStats(gw) = %+v ok=%v, want %+v", gs, ok, st.Gateways[0].GatewayStats)
	}
}

// A per-network MTU that names no network of the system is a configuration
// mistake, not a cap to ignore: NewSystem refuses it and names the network.
// One that names a network only the failover paths keep alive is accepted.
func TestNetworkMTUMustNameANetwork(t *testing.T) {
	if _, err := madeleine.NewSystem(latticeTopo, madeleine.WithNetworkMTU("nosuch", 1024)); err == nil || !strings.Contains(err.Error(), "nosuch") {
		t.Errorf("an MTU for a missing network: err = %v, want one naming nosuch", err)
	}
	if _, err := madeleine.NewSystem(latticeTopo, madeleine.WithNetworkMTU("s", 8*1024)); err != nil {
		t.Errorf("an MTU for network s rejected: %v", err)
	}
	if _, err := madeleine.NewSystem(latticeTopo, madeleine.WithReliableDelivery(),
		madeleine.WithRouteNetworks("m"), madeleine.WithNetworkMTU("s", 8*1024)); err != nil {
		t.Errorf("an MTU for the failover network s rejected: %v", err)
	}
}
