GO ?= go
COVER_MIN ?= 85
FWD_COVER_MIN ?= 80
FUZZTIME ?= 30s
# package:target pairs; go test accepts one -fuzz pattern per invocation.
FUZZ_TARGETS = \
	internal/fwd:FuzzGTMHeader internal/fwd:FuzzStripeHeader \
	internal/fwd:FuzzGTMCompactHeader internal/fwd:FuzzMcastHeader \
	internal/fwd:FuzzStreamOpen \
	internal/fwd:FuzzRelData internal/fwd:FuzzRelAck internal/fwd:FuzzRelDesc \
	internal/fwd:FuzzRelHandle \
	internal/health:FuzzHealthProbe internal/flow:FuzzFlowCredit \
	internal/agg:FuzzAggFrame

# The eight archived experiments (BENCH_<id>.json), virtual-time results of
# the deterministic simulation.
BENCHES = o1 p1 s1 r2 o2 c1 m1 b1

# The perf gates, one row per gated experiment: bench:gate-test[:extra], where
# extra is a package=pattern test run that rides along. `make <bench>-gate`
# re-archives the experiment and runs its gate test in internal/bench, which
# reruns the exact streams the archive came from and holds the thresholds:
#   s1  K=2 striping on the dual-rail topology >= 1.5x the K=1 goodput at
#       64-128 KB (also `make stripe-gate`);
#   r2  the rail a fault plan flaps dead is re-admitted after probation and
#       goodput re-converges to >= 90% of the pre-fault dual-rail level;
#   o2  goodput with the flight recorder armed within 5% of disarmed (it is
#       identical: recording costs no virtual time, and zero allocations —
#       the extra run), depth 1 called swap-overhead-bound (§3.4.1), depth 8
#       cleared;
#   c1  64-sender incast through the DRR relay every gateway runs, credits
#       off and on: both fair (Jain >= 0.90) within 5% of the single-sender
#       ceiling;
#   m1  eager+aggregation >= 15x the seed framing at 64 B (a sub-message
#       costs the sink no poll and the frame 5 bytes, DESIGN.md §27), >= 3x up
#       to 512 B and >= 2x at 1 KB (a ratio whose denominator rose 1.7x when
#       the gateway pipeline began to run across message boundaries,
#       DESIGN.md §23), on the archived run and on a -quick run's 64-message
#       streams alike (TestM1Experiment; DESIGN.md §24), never under eager
#       alone, eager alone strictly above the seed, 64/128 KB parity within
#       2%, the coalescer hot path at zero allocations (the extra run);
#   b1  multicast >= 2x the unicast fan-out at 8+ receivers on the 2-gateway
#       chain, byte-identical payloads, gateway ingress independent of the
#       receiver count.
GATES = \
	s1:TestS1StripeSpeedupGate \
	r2:TestR2SelfHealingGate \
	o2:TestO2FlightGate:internal/flight=ZeroAllocs \
	c1:TestC1FlowGate \
	m1:TestM1(EagerGate|Experiment):internal/agg=AllocsNothing \
	b1:TestB1McastGate

# The coverage gates, packages:minimum: the metrics registry and the tracer
# are the measurement substrate every perf claim rests on; FWD_COVER_MIN
# covers the gateway relay, the GTM and the reliable codecs.
COVER_GATES = \
	obs,trace:$(COVER_MIN) fwd:$(FWD_COVER_MIN) flight:$(COVER_MIN) \
	flow:$(COVER_MIN) agg:$(COVER_MIN) coll:$(COVER_MIN)

.PHONY: check build vet test race allocs bench bench-verify bench-quick bench-pair cover fuzz stripe-gate soak loc

# check includes the facade API-surface golden test (api_test.go vs
# api.txt) via the race lane; regen the listing after an intentional API
# change with: MADGO_REGEN_API=1 $(GO) test -run TestAPISurfaceGolden .
check: build vet race allocs cover loc bench-verify

build:
	$(GO) build ./...

# vet also covers the ledger: benchmark/ is a module of its own that
# `go build ./...` never reaches and that compiles against fifteen internal
# packages, so a refactor learns here, not from the pipeline, that it broke it.
vet:
	$(GO) vet ./...
	cd benchmark && $(GO) vet ./...

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
# over two hops and one message of the prod_lossy_mix shape at budgets. The
# unified relay (DESIGN.md §18): one 64 KiB fan-out-8 broadcast of the
# bcast_fanout8 shape at a budget with nothing per fragment. Armed telemetry
# (DESIGN.md §19, §21): a write to a counter, free-standing or bound, through a
# gauge or histogram handle and a hop record at 0, a relayed fragment at 0 and
# a relayed message at 0 (DESIGN.md §23, §36), unicast and multicast (§37), with
# a registry and a tracer armed, and a 64 B message of the mice_stream_observed
# shape at no more than two over what it costs disarmed. The kernel's hand-off
# (DESIGN.md §20): a steady-state Spawn + Join at no more than two, the process
# record and the caller's closure. The aggregated path (DESIGN.md §24): one 64 B message of the
# mice_pingpong shape, a frame of its own, and one of the mice_stream shape, at
# budgets. Buffers that change hands (DESIGN.md §29): a node's endpoint at 0, and
# the five root budgets at their readings plus 15 % — the broadcast's at the race
# detector's reading plus 2 % (32 since its headers are pool buffers, §37), as
# that detector does not pack small allocations together. The flight
# recorder (DESIGN.md §31): a record into a wrapped ring and a snapshot at 0, the
# fill phase at exactly one allocation a chunk reached, a ring's footprint at
# ⌈n / ⌈cap/4⌉⌉ chunks of 32-byte entries for n events, and the incast64 shape
# at its reading plus 15 % in allocations and in KiB a message, the one wall on
# allocated bytes. Building a system (DESIGN.md §32): NewSystem of the chain
# under WithPaperFidelity and of the incast64 shape under WithFlowControl at
# their race-detector readings before gateways made their fair daemons on
# first use, plus 2 %. One buffer pool (DESIGN.md §33): a steady-state take and
# return, and a ring's worth of them, at 0.
allocs:
	$(GO) test ./internal/vtime/... ./internal/fluid ./internal/agg ./internal/route ./internal/health ./internal/obs ./internal/fwd -run 'AllocsNothing' -v
	$(GO) test ./internal/flight -run 'ZeroAllocs|Footprint' -v
	$(GO) test ./internal/vtime ./internal/mad ./internal/fwd . -run 'AllocBudget' -v

# bench-quick is the two-clock ledger's smoke run (benchmark/README.md):
# every workload at 1/20 load with all its self-checks — byte-exact delivery,
# reproducible virtual time, balanced credit ledger — then the benchmark's
# own tests. About 15 s; the full run is `bash benchmark/run.sh`.
bench-quick:
	bash benchmark/run.sh -quick
	cd benchmark && $(GO) test -short ./...

# bench-pair produces the parent-vs-change rows of a perf PR: it unpacks
# BASE (A) into a temporary directory, runs one workload of the ledger there
# and in the working tree (B) at the same seed, and holds the two results to
# the exact-virtual-time rule (benchmark/README.md). PAIRS=n repeats that n
# times, alternating which side runs first, prints every pair's host-time
# rows and in how many pairs B was ahead — the ten alternating pairs a
# host-time claim needs are one command — and ends on the last pair's full
# comparison. A side that fails one of the ledger's own checks (exit 1: the
# check is named on stderr and the results are written) is still compared,
# and fails the target at the end — since PR 20 that is what a full-load
# bulk_stream run does (ROADMAP.md, "One measurement harness").
#   make bench-pair BASE=HEAD~1 WL=prod_lossy_mix [SEED=2] [PAIRS=10]
SEED ?= 1
PAIRS ?= 1
bench-pair:
	@test -n "$(BASE)" -a -n "$(WL)" || { echo "usage: make bench-pair BASE=<ref> WL=<workload> [SEED=n] [PAIRS=n]"; exit 2; }
	@set -e; base=$$(mktemp -d); trap 'rm -rf "$$base"' EXIT; \
		git archive "$(BASE)" | tar -x -C "$$base"; \
		echo "== A: $(BASE) ($$(git rev-parse --short "$(BASE)")), B: working tree; $(WL), seed $(SEED), $(PAIRS) pair(s)"; \
		bad=0; \
		run_a() { (cd "$$base" && bash benchmark/run.sh --workload $(WL) --seed $(SEED) >/dev/null) || { [ $$? = 1 ] && bad=1; }; }; \
		run_b() { bash benchmark/run.sh --workload $(WL) --seed $(SEED) >/dev/null || { [ $$? = 1 ] && bad=1; }; }; \
		compare() { bash benchmark/run.sh -compare "$$base/benchmark/out/results.json" benchmark/out/results.json; }; \
		wins=0; \
		for i in $$(seq 1 $(PAIRS)); do \
			if [ $$((i % 2)) = 1 ]; then run_a; run_b; else run_b; run_a; fi; \
			verdict=0; compare > "$$base/pair.txt" || verdict=$$?; \
			awk -v i=$$i '$$2 ~ /^host_(msgs_per_s|cpu_us_per_msg)$$/ { printf "pair %2d  %-20s  A %10s  B %10s\n", i, $$2, $$3, $$4 }' "$$base/pair.txt"; \
			if awk '$$2 == "host_msgs_per_s" && $$4 > $$3 { won = 1 } END { exit !won }' "$$base/pair.txt"; then \
				wins=$$((wins + 1)); \
			fi; \
		done; \
		echo "host_msgs_per_s: B ahead in $$wins of $(PAIRS) pairs"; \
		cat "$$base/pair.txt"; \
		if [ $$verdict = 0 ] && [ $$bad = 1 ]; then echo "bench-pair: a side failed a ledger check (stderr above)"; exit 1; fi; \
		exit $$verdict

bench:
	$(GO) test -bench . -benchmem
	@set -e; for b in $(BENCHES); do \
		echo "madbench -json $$b > BENCH_$$b.json"; \
		$(GO) run ./cmd/madbench -json $$b > BENCH_$$b.json; \
	done

# bench-verify is the refactoring oracle as a command: it regenerates every
# archive into a temporary directory and fails unless each is byte-identical
# to the committed file — the simulation is deterministic, so any difference
# is a behaviour change. It checks all eight whatever the first says, prints
# a `diff -u` (committed vs regenerated: the files hold one table cell a
# line) of every archive that differs and names them at the end, so a change
# that moves some archives on purpose sees in one run which moved and that
# the others did not. A few seconds.
bench-verify:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
		$(GO) build -o "$$tmp/madbench" ./cmd/madbench || exit 1; \
		differ=""; \
		for b in $(BENCHES); do \
			"$$tmp/madbench" -json $$b > "$$tmp/BENCH_$$b.json" || exit 1; \
			diff -u BENCH_$$b.json "$$tmp/BENCH_$$b.json" || differ="$$differ BENCH_$$b.json"; \
		done; \
		if [ -n "$$differ" ]; then echo "bench-verify: regenerate differently:$$differ"; exit 1; fi; \
		echo "bench-verify: $(words $(BENCHES)) archives regenerate byte-identical"

%-gate:
	@row='$(filter $*:%,$(GATES))'; \
		test -n "$$row" || { echo "no gate for bench '$*' (rows: $(GATES))"; exit 2; }; \
		set -e; IFS=:; set -- $$row; unset IFS; \
		echo "$*-gate: archive BENCH_$$1.json, run $$2 $$3"; \
		$(GO) run ./cmd/madbench -json $$1 > BENCH_$$1.json; \
		$(GO) test ./internal/bench -run "^$$2\$$" -v; \
		if [ -n "$$3" ]; then $(GO) test ./$${3%%=*} -run "$${3#*=}" -v; fi

stripe-gate: s1-gate

# soak runs the chaos property tests — random link flaps under load with
# byte-identical payload, epoch-convergence and rail-readmission
# assertions — the packet-buffer ledger under loss, corruption and a rail
# death (every returned buffer poisoned, taken == returned at quiescence),
# the many-senders contention wall (2..64 senders x topology x mode x
# flow on/off, byte-identical delivery without deadlock), the relay's
# head-of-line test (a burst stalled on a lost packet holds up no other
# destination's) and the collectives under loss and a gateway crash (the
# failover wall for concurrent relays, DESIGN.md §28) and two processes of one
# sink unpacking the sub-messages of one frame (every frame goes back to the wire
# pool once, poisoned, after its last sub-message is ended, DESIGN.md §29), and
# the one send daemon a hop has (DESIGN.md §35): a node's own messages and the
# ones it relays sharing it under loss, an end-to-end ack overtaking a bulk
# message on it, and a striped send's bursts re-routed off a dead rail, and
# every multicast header a hop takes from the wire pool and the next returns
# (DESIGN.md §37), all with the race detector on.
soak:
	$(GO) test -race ./internal/fwd -run '^TestChaosSoakSelfHealing$$|^TestHealth|^TestReliableBufferLedgerUnderFaults$$' -v
	$(GO) test -race ./internal/fwd -run '^TestManySendersContentionWall$$|^TestRelayBurstToOneDestinationDoesNotHoldAnother$$|^TestSinkReturnsDrainedFrames$$|^TestBracketedHeaderIsHandedOverHopByHop$$|^TestMulticastHeaderIsHandedOverHopByHop$$' -v
	$(GO) test -race ./internal/fwd -run '^TestReliableOriginAndRelayShareAHop$$|^TestReliableAckOvertakesABulkMessage$$|^TestReliableStripedRailCrash$$|^TestReliableStripedGatewayRailCrash$$' -v
	$(GO) test -race ./internal/coll -run '^TestCollectivesUnderLossAndCrash$$' -v
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

# loc prints the non-test Go lines (plain `wc -l`) per package directory and in
# total, benchmark/ excluded: the figure the ROADMAP's size gates quote. It
# fails when a package of LOC_MAX (package:max rows) has outgrown its row, the
# size the last PR that shrank it left it at — part of `make check`, so those
# gates only move down: a PR that makes a package smaller lowers its row. A row
# is raised only by a PR whose feature needs the lines, by that many and saying
# so: PR 24 (DESIGN.md §27) raised internal/fwd 6449 -> 6452 (the poll moved to
# the arrival queue, the coalescer's exact does-it-fit test) and internal/bench
# 2400 -> 2403 (the m1 gate's 64 B cell), and added internal/agg at the size
# the varint codec landed at. PR 25 (DESIGN.md §28) raised internal/fwd
# 6452 -> 6558: 41 lines for the relay's per-destination send daemons, 55 for
# the striped reliable send's recycled scratch and rail daemons (net of the
# two-line reliable EWMA branch it deletes), 7 for the recycled packet list
# and 3 for the free list's smallest-fit lookup, the last two paying for the
# packet buffers the daemons keep in flight. Handing buffers over (DESIGN.md
# §29) raised internal/fwd 6558 -> 6739: 32 lines for the framing records that
# hold their handles (bind, a handle field a record, the stream opener
# BeginPacking keeps typed), 61 for the sink's frame records (returned when
# the last sub-message ends, queued when two processes unpack at once), the
# coalescer's pool frames and the striped frame's return, 21 for the wire
# pool's descriptor pairs, 20 for the stream writer's own descriptor pair and
# its handed-over first transfer, 31 for the multicast relay's ring storage
# and shared header descriptors, 7 for the one endpoint a node, 4 for the
# inline first block, 2 for the gateway's handed-over first transfer and 3 of
# doc comments; internal/agg fell 383 -> 379 (no re-arm heuristic, no spare).
# One striper (DESIGN.md §30) lowered internal/fwd 6739 -> 6688. The flight
# recorder's 32-byte entries in chunked rings (DESIGN.md §31) added the
# internal/flight row at the size they left it, 1000 -> 1079: the entry and its
# constants, the chunked write cursor, the ring's network-name table and the
# expansion of entries back into Events, net of the sort type they retired.
# One stream header and one gateway scheduler (DESIGN.md §32) lowered
# internal/fwd 6688 -> 6604 and internal/bench 2403 -> 2399. One buffer pool
# (DESIGN.md §33) lowered internal/fwd 6604 -> 6550. The origin as its
# message's first relay (DESIGN.md §35) lowered it 6550 -> 6537. A stream's
# header handed on hop by hop (DESIGN.md §36) lowered it 6534 -> 6526: the
# gateway's header cells are gone. A multicast header from the wire pool
# (DESIGN.md §37) raised it 6526 -> 6534: +11 in stream.go (the writer returns
# a header it glued into a frame, a sink one that travelled alone, and decodes
# its destination set into channel scratch; their docs, net of open's make
# case), +5 in gateway.go (a gateway returns the header it parsed; the inlined
# local delivery) and -8 in mcast.go (a sorted dedupe for the map, a reused
# plan key and rank scratch for the ring's, two one-call helpers inlined).
# The multicast root splitting by next hop like every gateway (DESIGN.md §38)
# lowered internal/fwd 6534 -> 6495 and added the internal/route row at the
# size it left, 739 -> 730: the tree plan cache and the epoch stamps are gone.
LOC_MAX := internal/fwd:6495 internal/bench:2399 internal/agg:379 internal/flight:1079 internal/route:730
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './.bench_build/*' \
		| xargs wc -l | awk -v rows="$(LOC_MAX)" '$$2 != "total" { d = $$2; sub(/^\.\//, "", d); sub(/\/?[^\/]*$$/, "", d); if (d == "") d = "."; n[d] += $$1; t += $$1 } \
			END { for (d in n) printf "%7d  %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%7d  total\n", t; \
			      k = split(rows, row, " "); \
			      for (i = 1; i <= k; i++) { split(row[i], r, ":"); \
			        if (n[r[1]] > r[2]) { printf "%s has %d non-test lines, over its LOC_MAX row of %d\n", r[1], n[r[1]], r[2]; bad = 1 } } \
			      exit bad }'

# cover runs each COVER_GATES row's packages with a coverage profile
# (cover_<first package>.out) and fails when the total is under the row's
# minimum.
cover:
	@set -e; for row in $(COVER_GATES); do \
		pkgs=$${row%%:*}; min=$${row##*:}; \
		$(GO) test -coverprofile=cover_$${pkgs%%,*}.out $$(echo ./internal/$$pkgs | sed 's|,| ./internal/|g'); \
		$(GO) tool cover -func=cover_$${pkgs%%,*}.out | awk -v pkgs=$$pkgs -v min=$$min \
			'/^total:/ { cov = $$3; sub(/%/, "", cov); \
			   printf "%s coverage: %s%% (gate: %s%%)\n", pkgs, cov, min; \
			   if (cov + 0 < min) { print "coverage below gate"; exit 1 } }'; \
	done
