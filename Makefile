GO ?= go
COVER_MIN ?= 85
FWD_COVER_MIN ?= 80
FUZZTIME ?= 30s
# package:target pairs; go test accepts one -fuzz pattern per invocation.
FUZZ_TARGETS = \
	internal/fwd:FuzzGTMHeader internal/fwd:FuzzStripeHeader \
	internal/fwd:FuzzGTMCompactHeader internal/fwd:FuzzMcastHeader \
	internal/fwd:FuzzRelData internal/fwd:FuzzRelAck internal/fwd:FuzzRelDesc \
	internal/health:FuzzHealthProbe internal/flow:FuzzFlowCredit \
	internal/agg:FuzzAggFrame

.PHONY: check build vet test race allocs bench bench-quick bench-pair cover fuzz stripe-gate r2-gate o2-gate c1-gate m1-gate b1-gate soak

# check includes the facade API-surface golden test (api_test.go vs
# api.txt) via the race lane; regen the listing after an intentional API
# change with: MADGO_REGEN_API=1 $(GO) test -run TestAPISurfaceGolden .
check: build vet race allocs cover

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# allocs runs the allocation-regression walls. The simulation kernel
# (DESIGN.md §16): events, sleeps, channel hand-offs and fluid transfers are
# pinned at 0 allocations in steady state, a direct-link mad message and a
# 1 MiB message of the Fig. 6 stream at small per-message budgets. The
# reliable dataplane (DESIGN.md §17): warm route-row reads, the split-horizon
# next hop and a disarmed health report at 0, one reliable 32 KiB message
# over two hops and one message of the prod_lossy_mix shape at budgets.
allocs:
	$(GO) test ./internal/vtime/... ./internal/fluid ./internal/agg ./internal/route ./internal/health ./internal/fwd -run 'AllocsNothing' -v
	$(GO) test ./internal/mad ./internal/fwd . -run 'AllocBudget' -v

# bench-quick is the two-clock ledger's smoke run (benchmark/README.md):
# every workload at 1/20 load with all its self-checks — byte-exact delivery,
# reproducible virtual time, balanced credit ledger — then the benchmark's
# own tests. About 15 s; the full run is `bash benchmark/run.sh`.
bench-quick:
	bash benchmark/run.sh -quick
	cd benchmark && $(GO) test -short ./...

# bench-pair produces the parent-vs-change row of a perf PR: it checks BASE
# out into a temporary git worktree, runs one workload of the ledger there
# and here at the same seed, and holds the two results to the
# exact-virtual-time rule (benchmark/README.md).
#   make bench-pair BASE=HEAD~1 WL=prod_lossy_mix [SEED=2]
SEED ?= 1
bench-pair:
	@test -n "$(BASE)" -a -n "$(WL)" || { echo "usage: make bench-pair BASE=<ref> WL=<workload> [SEED=n]"; exit 2; }
	@set -e; base=$$(mktemp -d); trap 'git worktree remove --force "$$base" >/dev/null 2>&1 || true; rm -rf "$$base"' EXIT; \
		git worktree add --detach "$$base" "$(BASE)" >/dev/null; \
		echo "== $(BASE) ($$(git -C "$$base" rev-parse --short HEAD)): $(WL), seed $(SEED)"; \
		(cd "$$base" && bash benchmark/run.sh --workload $(WL) --seed $(SEED) >/dev/null); \
		echo "== working tree: $(WL), seed $(SEED)"; \
		bash benchmark/run.sh --workload $(WL) --seed $(SEED) >/dev/null; \
		bash benchmark/run.sh -compare "$$base/benchmark/out/results.json" benchmark/out/results.json

bench:
	$(GO) test -bench . -benchmem
	$(GO) run ./cmd/madbench -json o1 > BENCH_o1.json
	$(GO) run ./cmd/madbench -json p1 > BENCH_p1.json
	$(GO) run ./cmd/madbench -json s1 > BENCH_s1.json
	$(GO) run ./cmd/madbench -json r2 > BENCH_r2.json
	$(GO) run ./cmd/madbench -json o2 > BENCH_o2.json
	$(GO) run ./cmd/madbench -json c1 > BENCH_c1.json
	$(GO) run ./cmd/madbench -json m1 > BENCH_m1.json
	$(GO) run ./cmd/madbench -json b1 > BENCH_b1.json

# stripe-gate archives the striping sweep and fails unless K=2 goodput on
# the dual-rail topology is >= 1.5x the K=1 baseline at 64-128 KB. The
# simulation is deterministic, so the gate test reruns the exact sweep the
# JSON archive came from.
stripe-gate:
	$(GO) run ./cmd/madbench -json s1 > BENCH_s1.json
	$(GO) test ./internal/bench -run '^TestS1StripeSpeedupGate$$' -v

# r2-gate archives the self-healing recovery run and fails unless the rail
# the fault plan flaps dead is re-admitted after probation and goodput
# re-converges to >= 90% of the pre-fault dual-rail level. Deterministic,
# so the gate test reruns the exact stream the JSON archive came from.
r2-gate:
	$(GO) run ./cmd/madbench -json r2 > BENCH_r2.json
	$(GO) test ./internal/bench -run '^TestR2SelfHealingGate$$' -v

# o2-gate archives the flight-recorder overhead run and fails unless (a)
# goodput with the recorder armed stays within 5% of the disarmed run (it
# is identical: recording costs no virtual time and zero allocations — the
# alloc-regression test pins the latter), and (b) the critical-path
# analyzer calls the depth-1 stream swap-overhead-bound (§3.4.1) and clears
# the verdict at depth 8. Deterministic, so the gate test reruns the exact
# streams the JSON archive came from.
o2-gate:
	$(GO) run ./cmd/madbench -json o2 > BENCH_o2.json
	$(GO) test ./internal/bench -run '^TestO2FlightGate$$' -v
	$(GO) test ./internal/flight -run 'ZeroAllocs' -v

# c1-gate archives the 64-sender incast fairness run and fails unless the
# FIFO baseline is measurably unfair (Jain <= 0.80), the credit + DRR
# scheduler equalizes per-sender goodput (Jain >= 0.90), and aggregate
# goodput stays within 5% of the serialized single-sender ceiling.
# Deterministic, so the gate test reruns the exact incast the JSON archive
# came from.
c1-gate:
	$(GO) run ./cmd/madbench -json c1 > BENCH_c1.json
	$(GO) test ./internal/bench -run '^TestC1FlowGate$$' -v

# m1-gate archives the eager small-message sweep and fails unless the
# eager+aggregation configuration delivers >= 3x the seed framing's goodput
# for every mice size up to 1 KB while the 64/128 KB parity points, which
# bypass the coalescer, stay within 2% of the seed. Deterministic, so the
# gate test reruns the exact sweep the JSON archive came from.
m1-gate:
	$(GO) run ./cmd/madbench -json m1 > BENCH_m1.json
	$(GO) test ./internal/bench -run '^TestM1EagerGate$$' -v
	$(GO) test ./internal/agg -run 'AllocsNothing' -v

# b1-gate archives the broadcast fan-out comparison and fails unless
# gateway-native multicast delivers >= 2x the unicast fan-out's aggregate
# goodput at 8+ receivers on the 2-gateway chain, every receiver's payload
# is byte-identical, and the first gateway's ingress byte count is
# independent of the receiver count. Deterministic, so the gate test reruns
# the exact streams the JSON archive came from.
b1-gate:
	$(GO) run ./cmd/madbench -json b1 > BENCH_b1.json
	$(GO) test ./internal/bench -run '^TestB1McastGate$$' -v

# soak runs the chaos property tests — random link flaps under load with
# byte-identical payload, epoch-convergence and rail-readmission
# assertions — the packet-buffer ledger under loss, corruption and a rail
# death (every returned buffer poisoned, taken == returned at quiescence),
# and the many-senders contention wall (2..64 senders x topology x mode x
# flow on/off, byte-identical delivery without deadlock), all with the race
# detector on.
soak:
	$(GO) test -race ./internal/fwd -run '^TestChaosSoakSelfHealing$$|^TestHealth|^TestReliableBufferLedgerUnderFaults$$' -v
	$(GO) test -race ./internal/fwd -run '^TestManySendersContentionWall$$' -v
	$(GO) test -race ./internal/health

# fuzz smokes every wire-codec fuzz target for FUZZTIME each (go test
# accepts a single -fuzz pattern per invocation, hence the pkg:target
# loop). CI runs this with the default 30s per target.
fuzz:
	@set -e; for pt in $(FUZZ_TARGETS); do \
		pkg=$${pt%%:*}; t=$${pt##*:}; \
		echo "fuzz ./$$pkg $$t ($(FUZZTIME))"; \
		$(GO) test ./$$pkg -run '^$$' -fuzz "^$$t$$" -fuzztime $(FUZZTIME); \
	done

# cover gates the observability packages — the metrics registry and the
# tracer are the measurement substrate every perf claim rests on — and the
# forwarding engine itself, whose gate FWD_COVER_MIN covers the gateway
# pipeline, the GTM and the reliable codecs.
cover:
	$(GO) test -coverprofile=cover.out ./internal/obs ./internal/trace
	@$(GO) tool cover -func=cover.out | awk -v min=$(COVER_MIN) \
		'/^total:/ { cov = $$3; sub(/%/, "", cov); \
		   printf "obs+trace coverage: %s%% (gate: %s%%)\n", cov, min; \
		   if (cov + 0 < min) { print "coverage below gate"; exit 1 } }'
	$(GO) test -coverprofile=cover_fwd.out ./internal/fwd
	@$(GO) tool cover -func=cover_fwd.out | awk -v min=$(FWD_COVER_MIN) \
		'/^total:/ { cov = $$3; sub(/%/, "", cov); \
		   printf "fwd coverage: %s%% (gate: %s%%)\n", cov, min; \
		   if (cov + 0 < min) { print "coverage below gate"; exit 1 } }'
	$(GO) test -coverprofile=cover_flight.out ./internal/flight
	@$(GO) tool cover -func=cover_flight.out | awk -v min=$(COVER_MIN) \
		'/^total:/ { cov = $$3; sub(/%/, "", cov); \
		   printf "flight coverage: %s%% (gate: %s%%)\n", cov, min; \
		   if (cov + 0 < min) { print "coverage below gate"; exit 1 } }'
	$(GO) test -coverprofile=cover_flow.out ./internal/flow
	@$(GO) tool cover -func=cover_flow.out | awk -v min=$(COVER_MIN) \
		'/^total:/ { cov = $$3; sub(/%/, "", cov); \
		   printf "flow coverage: %s%% (gate: %s%%)\n", cov, min; \
		   if (cov + 0 < min) { print "coverage below gate"; exit 1 } }'
	$(GO) test -coverprofile=cover_agg.out ./internal/agg
	@$(GO) tool cover -func=cover_agg.out | awk -v min=$(COVER_MIN) \
		'/^total:/ { cov = $$3; sub(/%/, "", cov); \
		   printf "agg coverage: %s%% (gate: %s%%)\n", cov, min; \
		   if (cov + 0 < min) { print "coverage below gate"; exit 1 } }'
	$(GO) test -coverprofile=cover_coll.out ./internal/coll
	@$(GO) tool cover -func=cover_coll.out | awk -v min=$(COVER_MIN) \
		'/^total:/ { cov = $$3; sub(/%/, "", cov); \
		   printf "coll coverage: %s%% (gate: %s%%)\n", cov, min; \
		   if (cov + 0 < min) { print "coverage below gate"; exit 1 } }'
