GO ?= go
COVER_MIN ?= 85
FWD_COVER_MIN ?= 80
FUZZTIME ?= 30s
# package:target pairs; go test accepts one -fuzz pattern per invocation.
FUZZ_TARGETS = \
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
#   c1  64-sender incast through the DRR relay every gateway runs, bounded
#       by its ring and its links' own windows: fair (Jain >= 0.90), within
#       5% of the single-sender ceiling, and the scheduler ran rounds;
#   m1  the eager path (compact framing + aggregation) >= 15x the seed
#       framing at 64 B (a sub-message costs the sink no poll and the frame
#       5 bytes, DESIGN.md §27), >= 3x up to 512 B and >= 2x at 1 KB (a ratio
#       whose denominator rose 1.7x when the gateway pipeline began to run
#       across message boundaries, DESIGN.md §23), on the archived run and on
#       a -quick run's 64-message streams alike (TestM1Experiment;
#       DESIGN.md §24), 64/128 KB parity within 2%, the coalescer hot path
#       at zero allocations (the extra run);
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

# The coverage gates, packages:minimum: the metrics registry and the lanes
# derived from the flight recorder (trace) are the measurement substrate
# every perf claim rests on; FWD_COVER_MIN covers the gateway relay, the GTM
# and the reliable codecs.
COVER_GATES = \
	obs,trace:$(COVER_MIN) fwd:$(FWD_COVER_MIN) flight:$(COVER_MIN) \
	flow:$(COVER_MIN) agg:$(COVER_MIN) coll:$(COVER_MIN)

.PHONY: check build vet test race allocs bench bench-verify bench-quick bench-pair cli-verify cover fuzz stripe-gate soak loc cites

# check includes the facade API-surface golden test (api_test.go vs
# api.txt) via the race lane; regen the listing after an intentional API
# change with: MADGO_REGEN_API=1 $(GO) test -run TestAPISurfaceGolden .
check: build vet cites race allocs cover loc bench-verify

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

# cites fails when Go code, this Makefile or the verify skill cites a section
# of DESIGN.md — "DESIGN.md §N" or "DESIGN §N", and each "§M" of a list that
# follows one ("DESIGN.md §19, §21") — that has no "## N." heading there.
CITE_RE := DESIGN(\.md)? §[0-9]+((, | and | or |/)§[0-9]+)*
cites:
	@{ grep -rhoE --include='*.go' --exclude-dir=.bench_build '$(CITE_RE)' .; \
	   grep -hoE '$(CITE_RE)' Makefile .claude/skills/verify/SKILL.md; } \
		| grep -oE '[0-9]+' | sort -un | awk ' \
			BEGIN { while ((getline l < "DESIGN.md") > 0) if (l ~ /^## [0-9]+\./) { sub(/^## /, "", l); sub(/\..*/, "", l); have[l] = 1 } } \
			{ n++; if (!have[$$1]) { printf "DESIGN.md §%s is cited but has no \"## %s.\" heading\n", $$1, $$1; bad = 1 } } \
			END { if (!bad) printf "cites: the %d DESIGN.md sections cited all exist\n", n; exit bad }'

race:
	$(GO) test -race ./...

# allocs runs the allocation-regression walls. The simulation kernel
# (DESIGN.md §16): events, sleeps, channel hand-offs and fluid transfers are
# pinned at 0 allocations in steady state, a vsync primitive's first
# contention at its waiters' records (§42), a direct-link mad message and a
# 1 MiB message of the Fig. 6 stream at small per-message budgets. The
# reliable dataplane (DESIGN.md §17): warm route-row reads, the split-horizon
# next hop and a disarmed health report at 0, one reliable 32 KiB message
# over two hops and one message of the prod_lossy_mix shape at budgets. The
# unified relay (DESIGN.md §18): one 64 KiB fan-out-8 broadcast of the
# bcast_fanout8 shape at a budget with nothing per fragment. Armed telemetry
# (DESIGN.md §19, §21): a write to a counter, free-standing or bound, through a
# gauge or histogram handle and a hop record at 0, a relayed fragment at 0 and
# a relayed message at 0 (DESIGN.md §23, §36), unicast and multicast (§37), with
# a registry and a flight recorder armed, and a 64 B message of the mice_stream_observed
# shape at no more than two over what it costs disarmed. The kernel's hand-off
# (DESIGN.md §20): a steady-state Spawn + Join at no more than two, the process
# record and the caller's closure. The aggregated path (DESIGN.md §24): one 64 B message of the
# mice_pingpong shape, a frame of its own, and one of the mice_stream shape, at
# budgets. Buffers that change hands (DESIGN.md §29): a node's endpoint at 0, and
# the five root budgets at their readings plus 15 % — the broadcast's at the race
# detector's reading plus 2 %, as that detector does not pack small
# allocations together. The flight
# recorder (DESIGN.md §31): a record into a wrapped ring and a snapshot at 0, the
# fill phase at exactly one allocation a chunk reached, a ring's footprint at
# ⌈n / ⌈cap/4⌉⌉ chunks of 32-byte entries for n events, and the incast64 shape
# at its reading plus 15 % in allocations and in KiB a message, the one wall on
# allocated bytes. Building a system (DESIGN.md §32, §39): NewSystem of the
# chain under WithPaperFidelity, of the incast64 shape under WithFlowControl and
# of the prod_lossy_mix shape under WithProduction at race-detector readings
# plus 2 %, and a 136- and a 1 040-node cluster of clusters, streaming and under
# WithProduction, in allocated bytes (48 and 56 MiB at 1 040 nodes). One buffer
# pool (DESIGN.md §33): a steady-state take and return, and a ring's worth of
# them, at 0. State built on first use (DESIGN.md §42): bringing up a link of
# an 18-node channel at no more than 4 allocations, and a two-rail K-route
# search at 3, its routes. Handles on the caller's stack and framing records
# reused (DESIGN.md §43): 1 000 messages of the mice_stream shape on a warm
# system at 0, amortised, counted by the receiver, and so are 200 streamed
# 64 KiB messages in the seed framing, 1 000 eager ones of 1 and 8 KiB, 1 000
# coalesced ones of four 1 KiB blocks, and 1 000 multicasts of the
# bcast_fanout8 shape — streamed, compact, and with gw1 a destination too.
# Control datagrams that never park (DESIGN.md §7): a warm control send and its
# delivery at 0, and a warm probe round, request to result, at 0.
allocs:
	$(GO) test ./internal/vtime/... ./internal/fluid ./internal/agg ./internal/route ./internal/health ./internal/obs ./internal/mad ./internal/fwd . -run 'AllocsNothing|AllocatesOnlyRecords' -v
	$(GO) test ./internal/flight -run 'ZeroAllocs|Footprint' -v
	$(GO) test ./internal/vtime ./internal/mad ./internal/route ./internal/fwd . -run 'AllocBudget' -v

# bench-quick is the two-clock ledger's smoke run (benchmark/README.md):
# every workload at 1/20 load with all its self-checks — byte-exact delivery,
# reproducible virtual time — then the benchmark's own tests. About 15 s; the full run is `bash benchmark/run.sh`.
bench-quick:
	bash benchmark/run.sh -quick
	cd benchmark && $(GO) test -short ./...

# bench-pair produces the parent-vs-change rows of a perf PR: it unpacks
# BASE (A) into a temporary directory, runs one workload of the ledger there
# and in the working tree (B) at the same seed, and holds the two results to
# the exact-virtual-time rule (benchmark/README.md). PAIRS=n repeats that n
# times, alternating which side runs first, prints every pair's host-time and
# host-allocation rows and in how many pairs B was ahead — the ten alternating
# pairs a host-time claim needs are one command — and ends on the last pair's
# full comparison. The default is two pairs, one in each order: the first run
# of a series can read faster, so one pair says which side ran first. A side that fails one of the ledger's own checks (exit 1: the
# check is named on stderr and the results are written) is still compared,
# and fails the target at the end — since PR 20 that is what a full-load
# bulk_stream run does (ROADMAP.md, "One measurement harness").
#   make bench-pair BASE=HEAD~1 WL=prod_lossy_mix [SEED=2] [PAIRS=10]
SEED ?= 1
PAIRS ?= 2
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
			awk -v i=$$i '$$2 ~ /^host_(msgs_per_s|cpu_us_per_msg|allocs_per_msg|alloc_KB_per_msg)$$/ { printf "pair %2d  %-21s  A %10s  B %10s\n", i, $$2, $$3, $$4 }' "$$base/pair.txt"; \
			if awk '$$2 == "host_msgs_per_s" && $$4 > $$3 { won = 1 } END { exit !won }' "$$base/pair.txt"; then \
				wins=$$((wins + 1)); \
			fi; \
		done; \
		echo "host_msgs_per_s: B ahead in $$wins of $(PAIRS) pairs"; \
		cat "$$base/pair.txt"; \
		if [ $$verdict = 0 ] && [ $$bad = 1 ]; then echo "bench-pair: a side failed a ledger check (stderr above)"; exit 1; fi; \
		exit $$verdict

# cli-verify is the behaviour oracle at the command line: it unpacks BASE
# into a temporary directory, builds ./cmd/... and ./examples/... there and in
# the working tree, runs CLI_RUNS on both sides — the tools' usual invocations,
# two runs longer than the flight rings' default depth, and every example —
# and `diff -u`s each run's output and exit status. The simulation is
# deterministic, so it fails, naming them, on the runs that differ. About a
# minute.
#   make cli-verify BASE=HEAD
CLI_RUNS = 'madstat' 'madstat -reliable -loss 0.05' 'madstat -json -diagnose -flap 2ms' \
	'madstat -reliable -flow -lanes' 'madping' 'madping -reliable -loss 0.05' \
	'madtrace -loss 0.05' 'madtrace -crash 1ms' 'madtrace -dir m2s -spans' \
	'madstat -count 100 -lanes -noprom' 'madtrace -mtu 4096 -bytes 8388608' \
	'quickstart' 'clusterofclusters' 'multigateway' 'zerocopy' 'allreduce' 'broadcast' 'faulttolerance'
cli-verify:
	@test -n "$(BASE)" || { echo "usage: make cli-verify BASE=<ref>"; exit 2; }
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
		mkdir "$$tmp/src" "$$tmp/a" "$$tmp/b"; \
		git archive "$(BASE)" | tar -x -C "$$tmp/src"; \
		(cd "$$tmp/src" && $(GO) build -o "$$tmp/a/" ./cmd/... ./examples/...); \
		$(GO) build -o "$$tmp/b/" ./cmd/... ./examples/...; \
		differ=""; n=0; \
		for run in $(CLI_RUNS); do \
			for side in a b; do \
				st=0; $$tmp/$$side/$$run > "$$tmp/$$side.out" 2>&1 || st=$$?; \
				echo "exit $$st" >> "$$tmp/$$side.out"; \
			done; \
			n=$$((n + 1)); \
			diff -u --label "$(BASE): $$run" --label "working tree: $$run" "$$tmp/a.out" "$$tmp/b.out" || differ="$$differ '$$run'"; \
		done; \
		if [ -n "$$differ" ]; then echo "cli-verify: output differs from $(BASE):$$differ"; exit 1; fi; \
		echo "cli-verify: $$n runs print the same as $(BASE)"

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
# the many-senders contention wall (2..64 senders x topology x mode,
# byte-identical delivery without deadlock), the relay's
# head-of-line test (a burst stalled on a lost packet holds up no other
# destination's) and the collectives under loss and a gateway crash (the
# failover wall for concurrent relays, DESIGN.md §28) and two processes of one
# sink unpacking the sub-messages of one frame (every frame goes back to the wire
# pool once, poisoned, after its last sub-message is ended, DESIGN.md §29; one
# that takes a frame wakes the other, parked, to share it), and
# the one send daemon a hop has (DESIGN.md §35): a node's own messages and the
# ones it relays sharing it under loss, an end-to-end ack overtaking a bulk
# message on it, a striped send's rail runs and a whole message's pinned run
# re-routed off a dead rail, and unstriped messages sharing a pair's rails, and
# every multicast header a hop takes from the wire pool and the next returns
# (DESIGN.md §37), and every stream shape through two gateways with each
# descriptor pair its final receiver returns poisoned (DESIGN.md §43), and a
# probe whose echo is lost failing at its timeout with no process waiting for
# it (TestHealthProbeWhoseEchoIsDroppedTimesOut, DESIGN.md §7), all with the
# race detector on.
soak:
	$(GO) test -race ./internal/fwd -run '^TestChaosSoakSelfHealing$$|^TestHealth|^TestReliableBufferLedgerUnderFaults$$' -v
	$(GO) test -race ./internal/fwd -run '^TestManySendersContentionWall$$|^TestRelayBurstToOneDestinationDoesNotHoldAnother$$|^TestRelayDoesNotParkOnABusyDestination$$|^TestSinkReturnsDrainedFrames$$|^TestSinkSharesAFrameWithAParkedProcess$$|^TestBracketedHeaderIsHandedOverHopByHop$$|^TestMulticastHeaderIsHandedOverHopByHop$$|^TestStreamShapesAcrossTwoGateways$$' -v
	$(GO) test -race ./internal/fwd -run '^TestReliableOriginAndRelayShareAHop$$|^TestReliableAckOvertakesABulkMessage$$|^TestReliableStripedRailCrash$$|^TestReliableStripedGatewayRailCrash$$|^TestReliableStripedFailover$$|^TestReliableUnstripedMessagesShareRails$$|^TestPinnedRunOnAnExcludedRailLeavesAtOnce$$' -v
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
# fails when a package of LOC_MAX (package:max rows) has more lines than its
# row, or a document of DOC_MAX (file:max rows) more lines than its. A PR that
# makes one smaller lowers its row, so the rows only move down; one whose
# feature needs the lines raises a row by that many and says why in CHANGES.md.
# COMPAT_MAX caps the summed lines of the ledger_compat.go files: what
# benchmark/ still compiles against that the code no longer needs, each a thin
# wrapper or a documented no-op until the ledger stops calling it (ROADMAP 21(b)).
LOC_MAX := .:774 internal/fwd:5743 internal/mad:1922 internal/bench:2414 internal/agg:379 internal/flight:1047 internal/health:748 internal/route:718 internal/flow:391 internal/obs:1100 internal/trace:396
DOC_MAX := DESIGN.md:5778 .claude/skills/verify/SKILL.md:187 README.md:466
COMPAT_MAX := 167
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './.bench_build/*' \
		| xargs wc -l | awk -v rows="$(LOC_MAX)" '$$2 != "total" { d = $$2; sub(/^\.\//, "", d); sub(/\/?[^\/]*$$/, "", d); if (d == "") d = "."; n[d] += $$1; t += $$1 } \
			END { for (d in n) printf "%7d  %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%7d  total\n", t; \
			      k = split(rows, row, " "); \
			      for (i = 1; i <= k; i++) { split(row[i], r, ":"); \
			        if (n[r[1]] > r[2]) { printf "%s has %d non-test lines, over its LOC_MAX row of %d\n", r[1], n[r[1]], r[2]; bad = 1 } } \
			      exit bad }'
	@for row in $(DOC_MAX); do \
		f=$${row%:*}; max=$${row##*:}; n=$$(wc -l < "$$f"); \
		printf "%7d  %s (DOC_MAX %d)\n" $$n "$$f" $$max; \
		if [ $$n -gt $$max ]; then echo "$$f has $$n lines, over its DOC_MAX row of $$max"; bad=1; fi; \
	done; exit $${bad:-0}
	@n=$$(find . -name ledger_compat.go ! -path './benchmark/*' ! -path './.bench_build/*' | xargs cat | wc -l); \
		printf "%7d  ledger_compat.go files (COMPAT_MAX %d)\n" $$n $(COMPAT_MAX); \
		if [ $$n -gt $(COMPAT_MAX) ]; then echo "the ledger_compat.go files have $$n lines, over COMPAT_MAX $(COMPAT_MAX)"; exit 1; fi

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
