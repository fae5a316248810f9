# Development entry points. `make check` is the full gate, and it runs each
# test once: gofmt, vet, the custom static analyzers (gbj-lint), build, every test in
# the module under the race detector (race: the whole oracle matrix, the
# model checker, the certificate re-derivation, the plan-verifier suite, the
# concurrent-execution and query-service oracles), the cluster legs again at
# one and at four processors (sites), a short run of every fuzz target, and
# one iteration of every benchmark (bench-smoke). The oracle matrix is
# TestMatrix in internal/plancheck/modelcheck, one subtest per cell of
# modelcheck.Cells: every run's rows against workload.RefEval (DESIGN.md §7.1).
# The named slices below — plancheck, modelcheck, verify-certs, chaos,
# dist-oracle, recovery-oracle, spill-oracle, serve-oracle — re-run parts of
# race on their own, for working on one of them. Nothing here times anything:
# `make bench` runs the layer benchmarks, `gbj-bench` the paper's
# experiments, and `go run ./benchmark` is the end-to-end measurement
# (BENCHMARK.json).

GO ?= go
FUZZTIME ?= 10s

.PHONY: check docs fmt vet lint plancheck modelcheck verify-certs build test race sites chaos dist-oracle recovery-oracle spill-oracle serve-oracle fuzz bench bench-smoke bench-record bench-trend bench-ab loc

check: docs fmt vet lint build race sites fuzz bench-smoke

# DESIGN.md stays at most 700 lines, and every "DESIGN.md §N" cited in a Go
# file, this Makefile, README.md or EXPERIMENTS.md names one of its numbered
# headings. CHANGES.md and ROADMAP.md are history and are not scanned.
docs:
	@n=$$(wc -l < DESIGN.md); \
	if [ $$n -gt 700 ]; then echo "DESIGN.md is $$n lines, over 700"; exit 1; fi
	@bad=0; \
	for s in $$( { grep -rhoE --include='*.go' 'DESIGN\.md §[0-9]+(\.[0-9]+)*' . ; \
		grep -hoE 'DESIGN\.md §[0-9]+(\.[0-9]+)*' Makefile README.md EXPERIMENTS.md; } | \
		sed 's/.*§//' | sort -u); do \
		re=$$(echo "$$s" | sed 's/\./\\./g'); \
		grep -qE "^#+ $$re[. ]" DESIGN.md || { echo "DESIGN.md has no §$$s"; bad=1; }; \
	done; \
	exit $$bad

# Every Go file is gofmt-clean, except the analyzers' fixtures under
# testdata/, some of which are malformed on purpose (ignorescope is one line).
fmt:
	@out=$$(gofmt -l . | grep -Ev '(^|/)testdata/'); \
	if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# The repository's own multichecker (internal/lint); `go run ./cmd/gbj-lint
# -list` prints its analyzers, each with its rule and the directories it
# covers.
lint:
	$(GO) run ./cmd/gbj-lint ./...

# Bounded-exhaustive plan-equivalence model checking (TestModelCheckGate):
# every tiny database up to 3 rows per table (NULLs and int/float key mixing
# included), every variant of the matrix's fault-free cells one axis at a
# time (lazy vs eager, row vs vectorized, worker counts, strategies, cluster
# sizes) executed by brute force and compared with the reference evaluator.
# Any mismatch prints a minimized counterexample; -v prints the gate's
# scenario, database and plan-pair counts. The unit suite around the checker
# (gauntlet, minimizer, bound validation) runs as well; the matrix has its
# own targets.
modelcheck:
	$(GO) test -v ./internal/plancheck/modelcheck -skip TestMatrix

# Independent certificate re-derivation over the randomized oracle corpus:
# the certifier recomputes FD1/FD2 from the catalog alone and cross-checks
# the optimizer's claimed certificates on every transformed plan.
verify-certs:
	$(GO) test ./internal/core -run TestCertifierOracleCorpus -v

# Static plan verification (internal/plancheck): the verifier's unit suite
# plus the oracle runs over plans the optimizer verified as it emitted them,
# the TestFD certificate of every transformed plan included: the matrix's
# local cell (every strategy, worker count and source form) and the
# public-API engine-mode oracle (the engine verifies every plan it runs);
# and that what EXPLAIN shows is what runs: under every mode, the plan
# EXPLAIN marks as chosen is the plan QueryAnalyzedContext executes, for
# Example 1 and for the Example 5 view (TestEngineExplainForward,
# TestEngineViewsAndReverse).
plancheck:
	$(GO) test ./internal/plancheck
	$(GO) test ./internal/plancheck/modelcheck -run 'TestMatrix/^local$$'
	$(GO) test . -run 'TestEngineModeOracle|TestEngineExplainForward|TestEngineViewsAndReverse'

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# What race does not already run: the cluster's legs of dist-oracle and
# recovery-oracle at one processor, where a fragment's sites run one after
# another, and at four, where they run at once; and sixteen engine sessions
# sharing one cached cluster plan under settings of their own.
sites:
	$(GO) test -race -cpu 1,4 ./internal/plancheck/modelcheck -run 'TestMatrix/^(cluster|recovery|failover)'
	$(GO) test -race -cpu 1,4 ./internal/dist -run 'TestEagerNeverShipsMoreBytes|TestSites|TestOnePlanManyRuns|TestSiteFailure|TestRecovery'
	$(GO) test -race -cpu 1,4 . -run 'TestConcurrentSessionsShareOneClusterPlan'

# The matrix's chaos cell under the race detector: hundreds of corpus
# queries × deterministic cancel/panic/alloc-fail/delay schedules; every run
# must return the fault-free rows in order or a clean typed error, with no
# goroutine leaks.
chaos:
	$(GO) test -race ./internal/plancheck/modelcheck -run 'TestMatrix/^chaos$$'

# The matrix's cluster cells under the race detector: hundreds of corpus
# queries on simulated clusters of 1/2/4/8 nodes (serial and parallel, all
# shipping strategies; a fragment reads its bound rows in row form), the
# reference's rows required and every compiled plan through plancheck's
# distributed rules; and the same
# under link-fault injection (clean typed error or the reference's rows).
# Beside them: the Section 7 regression that the eager plan ships strictly
# fewer bytes, the sites-at-once tests (a second site starts before the first
# ends, one compiled plan under concurrent runs, the same rows, link bytes
# and counts at GOMAXPROCS 1 and 4, a site's panic contained), the
# per-query-budget parity test (1 node vs 4) and the parked-query test that a
# distributed run does not hold the engine lock against writers
# (dist_engine_test.go). The matrix and internal/dist legs here and in
# recovery-oracle run at -cpu 1,4: one processor is the site loop, four is
# sites at once.
dist-oracle:
	$(GO) test -race -cpu 1,4 ./internal/plancheck/modelcheck -run 'TestMatrix/^cluster'
	$(GO) test -race -cpu 1,4 ./internal/dist -run 'TestEagerNeverShipsMoreBytes|TestSites|TestOnePlanManyRuns|TestSiteFailure'
	$(GO) test -race . -run 'TestEngineDistributed|TestQueryOptionsBudgetHonouredDistributed|TestDistributedQueryDoesNotBlockWriter'

# The matrix's recovery cells under the race detector: hundreds of corpus
# queries × bounded link-fault schedules keyed to link ordinals, with and
# without a 64 KiB per-site lease, every run required to return the
# reference's rows with recovery visible only in the retry/failover counters;
# and bursts of drops that must fail nodes over. Beside them: the
# exhausted-budget typed-error sweep, the receiver-dedup seeded-bug
# regression, the failover sweep and the circuit breaker's own tests, a
# re-route the dist-recovery rule rejects among them (internal/dist), and the
# engine-level degradation tests (dist_recovery_engine_test.go).
recovery-oracle:
	$(GO) test -race -cpu 1,4 ./internal/plancheck/modelcheck -run 'TestMatrix/^(recovery|failover)'
	$(GO) test -race -cpu 1,4 ./internal/dist -run 'TestRecovery|TestFailOver'
	$(GO) test -race . -run 'TestEngineRetried|TestEngineDegrad|TestExplainAnalyzeGoldenRecovery'

# The matrix's spill cell under the race detector: hundreds of corpus
# queries × budgets that force spilling × deterministic disk-fault
# schedules (write/short-write/read/close failures); every run must return
# exactly the unbudgeted rows in order or a typed error (*SpillError among
# them), with zero live spill files afterwards, plus the
# per-operator fault sweeps — each external path over a row and over a
# columnar source — and the engine-level spill lifecycle tests; plus the
# spill-capable hash join both ways (internal/exec/spill_join_test.go):
# TestAdmittedSpillJoinStreams (an admitted build is the probe stage, so TopK
# and COUNT(*) over it allocate the same at 10 000 and 160 000 probe rows) and
# TestRefusedSpillJoinCuts (a refused build cuts the pipeline into the grace
# path, rows as the reference evaluator's, no spill file left); the one way
# back into order (internal/exec/spill_order_test.go): TestSpilledOutputStreams
# (a grace join over 100 000 probe rows and a 100 000-group GROUP BY under
# 64 KiB hand their output to the external sorter as runs and stream its merge,
# inside the budget, under 2 MB more heap at the first row) and
# TestExternalSortFanIn (at most fan-in + 1 live files at the first row of a
# sort that wrote thousands of runs); and the two spill analyze goldens.
spill-oracle:
	$(GO) test -race ./internal/plancheck/modelcheck -run 'TestMatrix/^spill$$'
	$(GO) test -race ./internal/exec -run 'TestSpillOperatorDiskFaults|TestAdmittedSpillJoinStreams|TestRefusedSpillJoinCuts|TestSpilledOutputStreams|TestExternalSortFanIn'
	$(GO) test -race . -run 'TestSpillCompletes64KiB|TestSpillFailureFallsBack|TestExplainAnalyzeGolden(SpillJoin|TopK)$$'

# The query-service oracle under the race detector: the 64-session
# HTTP-vs-direct differential (every response cell-for-cell and
# type-for-type identical to the single-caller engine, or provably untorn), the admission-ladder tests
# (degrade, queue, typed 429 — never an OOM), and the mid-query shutdown
# chaos test (clean typed errors, zero leaked goroutines, zero live
# spill files); plus the store's snapshot tests, since a writer appends into
# the slab pages and the key index that live snapshots' rows share
# (concurrent readers against a writer). See DESIGN.md §6.
serve-oracle:
	$(GO) test -race ./internal/server -run 'TestServeOracleDifferential|TestShutdownMidQueryChaos|TestAdmit'
	$(GO) test -race ./internal/storage -run TestSnapshot

# Each fuzz target needs its own invocation (go test allows one -fuzz
# pattern per package run). -run=^$ skips the regular tests.
# FuzzCanonical holds the plan-cache key to re-parsing to the query's own
# tree, so distinct queries never share a cached plan.
# FuzzRepartitionPermutation holds the cluster's shuffle to a permutation of
# its input. The last two are the service boundary: the query response's hand-written encoder and
# decoder held to encoding/json (DESIGN.md §6.3), and arbitrary request
# bodies through the real mux — a well-formed response or a row of the
# status table, never a panic or a leaked goroutine.
# go test shrinks an input that widens coverage by trying every byte range
# it could cut, uncounted, for up to -fuzzminimizetime (60 s by default), so
# one long input used to take a target's whole FUZZTIME (FuzzExternalSort,
# whose inputs cost up to ~0.1 s each, and FuzzLikeMatch among others):
# shrinking is bounded to a second.
fuzz:
	$(GO) test ./internal/core -run '^$$' -fuzz FuzzTestFD -fuzztime $(FUZZTIME) -fuzzminimizetime 1s
	$(GO) test ./internal/sql -run '^$$' -fuzz FuzzParse -fuzztime $(FUZZTIME) -fuzzminimizetime 1s
	$(GO) test ./internal/sql -run '^$$' -fuzz FuzzLex -fuzztime $(FUZZTIME) -fuzzminimizetime 1s
	$(GO) test ./internal/sql -run '^$$' -fuzz FuzzCanonical -fuzztime $(FUZZTIME) -fuzzminimizetime 1s
	$(GO) test ./internal/expr -run '^$$' -fuzz FuzzLikeMatch -fuzztime $(FUZZTIME) -fuzzminimizetime 1s
	$(GO) test ./internal/vec -run '^$$' -fuzz FuzzGroupKeyVector -fuzztime $(FUZZTIME) -fuzzminimizetime 1s
	$(GO) test ./internal/core -run '^$$' -fuzz FuzzEagerCert -fuzztime $(FUZZTIME) -fuzzminimizetime 1s
	$(GO) test ./internal/exec -run '^$$' -fuzz FuzzExternalSort -fuzztime $(FUZZTIME) -fuzzminimizetime 1s
	$(GO) test ./internal/dist -run '^$$' -fuzz FuzzRepartitionPermutation -fuzztime $(FUZZTIME) -fuzzminimizetime 1s
	$(GO) test ./internal/server -run '^$$' -fuzz FuzzQueryResponseWire -fuzztime $(FUZZTIME) -fuzzminimizetime 1s
	$(GO) test ./internal/server -run '^$$' -fuzz FuzzHandleQuery -fuzztime $(FUZZTIME) -fuzzminimizetime 1s

# Every benchmark in the module with allocs/op — the layer benchmarks; the
# paper's figures, examples and sweeps are `gbj-bench` (EXPERIMENTS.md).
# Among them: the paper's Figure 1 (internal/exec: BenchmarkFigure1Row /
# BenchmarkFigure1Vec, the lazy and the eager plan at par1 and par2 — the
# row-vs-batch decision of DESIGN.md §4.7, and the only timing of the batch
# form above one worker —, under Row also the keyless join, the lazy plan's
# join spelled without an equi-key, forced sort grouping and, at 100 000
# employees, the eager plan grouped by hash and by sort); the front end
# (internal/sql: BenchmarkLex, BenchmarkParse and BenchmarkCanonical, over
# Example 1 and serve_mixed's eight reads); the decision procedure
# (internal/core: BenchmarkTestFD, and BenchmarkPredicateExpansion, the
# paper's §6.3 ablation) and the plan cache (BenchmarkPlanCacheGet, a hit and
# a miss among 64 canonical keys); the spill codec (internal/exec:
# BenchmarkSpillCodec, one row written and read back); the grouping decision of DESIGN.md §4.4 (internal/exec:
# BenchmarkOrderByOverGrouping, GroupAuto vs forced GroupSort in the row and
# the columnar source form, the latter also at two workers, and
# BenchmarkSortRowsStable, the sort kernel alone); the row representation of
# DESIGN.md §4.9 (internal/value: BenchmarkConcat, BenchmarkAppendGroupKey,
# BenchmarkCompare; internal/exec: BenchmarkHashGroupSerial, one cluster
# fragment's join-then-group, BenchmarkGroupTable, the group table alone —
# all inserts, all hits at 10 and 1 000 groups, two partials combined —,
# BenchmarkJoinTable, the other hashed stores alone — join build + probe at
# 10 keys, 1 000 keys and 100 keys × 100 rows, par1 and par2, over dense
# INTEGER keys and, under sparse/, hashed ones, DISTINCT's group table,
# COUNT(DISTINCT) over 1 000 groups — and BenchmarkTinyJoinGroup, what a run
# costs before its first row, BenchmarkResultPath, what a finished row costs
# on its way to Run's caller — group → rename, group → column-permuting π,
# scan → rename and the wide scan → filter → probe → permuting π, par1 and
# par2, the wide one also under a cancellable context and streamed to a
# consumer (exec.Shape.Stream) — and
# BenchmarkGovernorTick, the per-row governance check on one goroutine and on
# two sharing a governor; the root package: BenchmarkPlanCacheHit, a cached
# Example 1 query end to end, and BenchmarkBoxSink; internal/storage:
# BenchmarkInsert, 48 000 four-column rows under a primary key;
# internal/dist: BenchmarkRowBytes);
# and the wire encoding of DESIGN.md §6.3 (internal/server:
# BenchmarkEncodeQueryResponse, BenchmarkDecodeQueryResponse, each beside the
# encoding/json path it replaced, and BenchmarkHandleQuery, a served SELECT
# through the handler, serve_wide's two reads).
bench:
	$(GO) test -bench . -benchmem ./...

# Every benchmark once, regular tests skipped: a benchmark that no longer
# runs, or whose row-count assertion fails, breaks the gate. Times nothing.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# One untraced run of all five workloads of the end-to-end benchmark
# (BENCHMARK.json), seed 1, 10 s each, stamped and written to BENCH_pr<N>.json
# at the repository root: `make bench-record PR=<N>`, N the change's number.
# Each change commits its record, so the files are the benchmark's
# trajectory. PR is required.
bench-record:
	@if [ -z "$(PR)" ]; then echo "usage: make bench-record PR=<number>"; exit 2; fi
	$(GO) run ./benchmark -seed 1 -seconds 10 -json BENCH_pr$(PR).json

# The trajectory as ratios: for each workload and end-to-end metric, each
# committed BENCH_pr<N>.json record's value over the previous record's
# (TestBenchTrend, which reads them as the allocation ratchet does). It gates
# nothing: one window per record measures allocation, not time.
bench-trend:
	$(GO) test -run '^TestBenchTrend$$' -count 1 -v .

# The work tree's end-to-end benchmark — or CHANGE's — against BASE's, A/A first:
# `make bench-ab BASE=<rev> [CHANGE=<rev>] [W=<workload,...>] [PAIRS=n] [SECONDS=s] [SEED=n]`
# (internal/bench/ab). BASE, and CHANGE when given, are exported with git
# archive into a temporary directory, removed on exit; ./benchmark is built in
# BASE's tree twice and in the change's once (here, without CHANGE), and the
# runs go one process at a time, alternating which side of a pair starts. Per workload and end-to-end metric it prints BASE's median and
# quartiles, the change's median, the ratio, the pairs won and the A/A band.
# It gates nothing; a perf change's numbers are its output.
bench-ab:
	@if [ -z "$(BASE)" ]; then echo "usage: make bench-ab BASE=<rev> [CHANGE=<rev>] [W=<workload,...>] [PAIRS=n] [SECONDS=s] [SEED=n]"; exit 2; fi
	$(GO) run ./internal/bench/ab -base $(BASE) -change '$(CHANGE)' -w '$(W)' -pairs $(or $(PAIRS),5) -seconds $(or $(SECONDS),20) -seed $(or $(SEED),1)

# Non-test and test Go lines per package — the numbers CHANGES.md reports for
# a change (internal/exec's non-test count is the one ROADMAP tracks).
loc:
	@for d in $$($(GO) list -f '{{.Dir}}' ./...); do \
		n=$$(ls $$d/*.go | grep -v _test.go | xargs cat 2>/dev/null | wc -l); \
		t=$$(ls $$d/*_test.go 2>/dev/null | xargs cat 2>/dev/null | wc -l); \
		rel=$${d#$(CURDIR)}; rel=$${rel#/}; \
		printf '%-40s %7d %7d\n' $${rel:-.} $$n $$t; \
	done | awk '{print; n += $$2; t += $$3} END {printf "%-40s %7d %7d\n", "total (non-test, test)", n, t}'
