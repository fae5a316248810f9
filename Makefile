# Development entry points. `make check` is the full gate: vet, the custom
# static analyzers (gbj-lint), build, race-enabled tests (which include the
# row-vs-vectorized differential oracles, the concurrent-execution smoke
# tests and the plan-verifier suite), the bounded-exhaustive plan-equivalence
# model checker, the independent certificate re-derivation gate
# (verify-certs), the chaos oracle, the fault-recovery oracle
# (recovery-oracle), the disk-chaos spill oracle (spill-oracle), the
# query-service oracle (serve-oracle: concurrent-session differential,
# admission ladder, shutdown chaos), and a short run of every fuzz target.
# Nothing here times anything: `make bench` runs the layer benchmarks, and
# `go run ./benchmark` is the end-to-end measurement (BENCHMARK.json).

GO ?= go
FUZZTIME ?= 10s
MODELCHECK_K ?= 3

.PHONY: check vet lint plancheck modelcheck verify-certs build test race chaos dist-oracle recovery-oracle spill-oracle serve-oracle fuzz bench loc

check: vet lint build race plancheck modelcheck verify-certs chaos dist-oracle recovery-oracle spill-oracle serve-oracle fuzz

vet:
	$(GO) vet ./...

# The repository's own multichecker (internal/lint): map-iteration
# determinism in row paths, cost-model purity, atomic shared counters,
# the accumulator Merge contract, exec.Options immutability, the
# copy-on-write dictionary protocol, governed row and batch loops (the
# pipeline runner's chunk loop in either source form), memory-budget
# accounting of the one join table and the one group table, %w error
# wrapping and selection-vector access.
lint:
	$(GO) run ./cmd/gbj-lint ./...

# Bounded-exhaustive plan-equivalence model checking: every tiny database
# up to MODELCHECK_K rows per table (NULLs and int/float key mixing
# included), every claimed-equivalent plan pair (lazy vs eager, row vs
# vectorized, serial vs parallel, local vs distributed) executed by brute
# force and compared. Any mismatch prints a minimized counterexample. The
# gate runs through the gbj-lint CLI (exercising the -modelcheck wiring);
# the single tiny package argument keeps the lint half of the run trivial
# since `make lint` already covers the whole module. The unit suite around
# the checker (gauntlet, minimizer, bound validation) runs as well.
modelcheck:
	$(GO) run ./cmd/gbj-lint -modelcheck -k $(MODELCHECK_K) ./internal/cliutil
	$(GO) test ./internal/plancheck/modelcheck

# Independent certificate re-derivation over the randomized oracle corpus:
# the certifier recomputes FD1/FD2 from the catalog alone and cross-checks
# the optimizer's claimed certificates on every transformed plan.
verify-certs:
	$(GO) test ./internal/core -run TestCertifierOracleCorpus -v

# Static plan verification (internal/plancheck): the verifier's unit suite
# plus the oracle runs that audit every optimizer-emitted plan — including
# the TestFD certificate on transformed plans — via the CheckPlans gate.
plancheck:
	$(GO) test ./internal/plancheck
	$(GO) test ./internal/exec -run TestSerialVsParallelOracle
	$(GO) test . -run TestEngineModeOracle

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The fault-injection chaos oracle under the race detector: hundreds of
# randomized queries × deterministic cancel/panic/alloc-fail/delay
# schedules; every run must return the oracle's rows or a clean typed
# error, with no goroutine leaks (internal/exec/chaos_oracle_test.go).
chaos:
	$(GO) test -race ./internal/exec -run TestChaosOracle

# The distributed oracle under the race detector: hundreds of randomized
# queries executed locally and on simulated clusters of 1/2/4/8 nodes
# (serial and parallel, all shipping strategies), byte-identical rows
# required; plus the distributed chaos runs with link-fault injection and
# the Section 7 regression that the eager plan ships strictly fewer bytes,
# the sites-at-once tests (a second site starts before the first ends, one
# compiled plan under concurrent runs, the same rows, link bytes and counts
# at GOMAXPROCS 1 and 4, a site's panic contained), the per-query-budget
# parity test (1 node vs 4) and the parked-query test that a distributed
# run does not hold the engine lock against writers (internal/dist,
# dist_engine_test.go). The internal/dist legs here and in recovery-oracle
# run at -cpu 1,4: one processor is the site loop, four is sites at once.
dist-oracle:
	$(GO) test -race -cpu 1,4 ./internal/dist -run 'TestLocalVsDistributedOracle|TestDistributedChaosOracle|TestEagerNeverShipsMoreBytes|TestSites|TestOnePlanManyRuns|TestSiteFailure'
	$(GO) test -race . -run 'TestEngineDistributed|TestQueryOptionsBudgetHonouredDistributed|TestDistributedQueryDoesNotBlockWriter'

# The recovery chaos oracle under the race detector: hundreds of seeded
# queries × bounded link-fault schedules keyed to link ordinals, every run
# required to produce oracle-identical rows with recovery visible only in
# the retry/failover counters; plus the exhausted-budget typed-error sweep,
# the receiver-dedup seeded-bug regression, the failover equivalence sweep
# (internal/dist/recovery_oracle_test.go) and the engine-level
# degradation tests (dist_recovery_engine_test.go).
recovery-oracle:
	$(GO) test -race -cpu 1,4 ./internal/dist -run TestRecovery
	$(GO) test -race . -run 'TestEngineRetried|TestEngineDegrad|TestExplainAnalyzeGoldenRecovery'

# The disk-chaos spill oracle under the race detector: hundreds of seeded
# queries × budgets that force spilling × deterministic disk-fault
# schedules (write/short-write/read/close failures); every run must return
# exactly the unbudgeted rows or a typed *SpillError, with zero live spill
# files afterwards (internal/exec/disk_chaos_oracle_test.go), plus the
# per-operator fault sweeps — each external path over a row and over a
# columnar source — and the engine-level spill lifecycle tests; plus the
# spill-capable hash join both ways (internal/exec/spill_join_test.go):
# TestAdmittedSpillJoinStreams (an admitted build is the probe stage, so TopK
# and COUNT(*) over it allocate the same at 10 000 and 160 000 probe rows) and
# TestRefusedSpillJoinCuts (a refused build cuts the pipeline into the grace
# path, rows as the reference evaluator's, no spill file left), and the two
# spill analyze goldens.
spill-oracle:
	$(GO) test -race ./internal/exec -run 'TestDiskChaosOracle|TestSpillOperatorDiskFaults|TestAdmittedSpillJoinStreams|TestRefusedSpillJoinCuts'
	$(GO) test -race . -run 'TestSpillCompletes64KiB|TestSpillFailureFallsBack|TestExplainAnalyzeGolden(SpillJoin|TopK)$$'

# The query-service oracle under the race detector: the 64-session
# HTTP-vs-direct differential (every response cell-for-cell and
# type-for-type identical to the single-caller engine, or provably untorn), the admission-ladder tests
# (degrade, queue, typed 429 — never an OOM), and the mid-query shutdown
# chaos test (clean typed errors, zero leaked goroutines, zero live
# spill files); plus the store's snapshot tests, since a writer appends into
# the slab pages and the key index that live snapshots' rows share
# (concurrent readers against a writer). See DESIGN.md §17.
serve-oracle:
	$(GO) test -race ./internal/server -run 'TestServeOracleDifferential|TestShutdownMidQueryChaos|TestAdmit'
	$(GO) test -race ./internal/storage -run TestSnapshot

# Each fuzz target needs its own invocation (go test allows one -fuzz
# pattern per package run). -run=^$ skips the regular tests.
# FuzzRepartitionPermutation holds the cluster's shuffle to a permutation of
# its input. The last two are the service boundary: the query response's hand-written encoder and
# decoder held to encoding/json (DESIGN.md §17.5), and arbitrary request
# bodies through the real mux — a well-formed response or a row of the
# status table, never a panic or a leaked goroutine.
fuzz:
	$(GO) test ./internal/core -run '^$$' -fuzz FuzzTestFD -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sql -run '^$$' -fuzz FuzzParse -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sql -run '^$$' -fuzz FuzzLex -fuzztime $(FUZZTIME)
	$(GO) test ./internal/expr -run '^$$' -fuzz FuzzLikeMatch -fuzztime $(FUZZTIME)
	$(GO) test ./internal/vec -run '^$$' -fuzz FuzzGroupKeyVector -fuzztime $(FUZZTIME)
	$(GO) test ./internal/core -run '^$$' -fuzz FuzzEagerCert -fuzztime $(FUZZTIME)
	$(GO) test ./internal/exec -run '^$$' -fuzz FuzzExternalSort -fuzztime $(FUZZTIME)
	$(GO) test ./internal/dist -run '^$$' -fuzz FuzzRepartitionPermutation -fuzztime $(FUZZTIME)
	$(GO) test ./internal/server -run '^$$' -fuzz FuzzQueryResponseWire -fuzztime $(FUZZTIME)
	$(GO) test ./internal/server -run '^$$' -fuzz FuzzHandleQuery -fuzztime $(FUZZTIME)

# Every benchmark in the module with allocs/op — among them the layer
# benchmarks behind the grouping decision of DESIGN.md §19 (internal/exec:
# BenchmarkOrderByOverGrouping, GroupAuto vs forced GroupSort in the row and
# the columnar source form, the latter also at two workers, and
# BenchmarkSortRowsStable, the sort kernel alone), behind the row-vs-batch
# decision of §13.5 (BenchmarkFigure1Row / BenchmarkFigure1Vec, par1 and par2:
# the only timing of the batch form above one worker)
# and behind the row representation of §19.1 (internal/value: BenchmarkConcat,
# BenchmarkAppendGroupKey, BenchmarkCompare; internal/exec:
# BenchmarkHashGroupSerial, one cluster fragment's join-then-group,
# BenchmarkGroupTable, the group table alone — all inserts, all hits at 10 and
# 1 000 groups, two partials absorbed —, BenchmarkJoinTable, the other hashed
# stores alone — join build + probe at 10 keys, 1 000 keys and 100 keys × 100
# rows, par1 and par2, DISTINCT's set, COUNT(DISTINCT) over 1 000 groups — and
# BenchmarkTinyJoinGroup, what a run costs before its first row,
# BenchmarkResultPath, what a finished row costs on its way to Run's caller —
# group → rename, group → column-permuting π, scan → rename and the wide
# scan → filter → probe → permuting π, par1 and par2, the wide one also under a
# cancellable context — and BenchmarkGovernorTick, the per-row governance
# check on one goroutine and on two sharing a governor; internal/storage:
# BenchmarkInsert, 48 000 four-column rows under a primary key;
# internal/dist: BenchmarkRowBytes) and behind the wire encoding of §17.5
# (internal/server: BenchmarkEncodeQueryResponse, BenchmarkDecodeQueryResponse,
# each beside the encoding/json path it replaced).
bench:
	$(GO) test -bench . -benchmem ./...

# Non-test and test Go lines per package — the numbers CHANGES.md reports for
# a change (internal/exec's non-test count is the one ROADMAP tracks).
loc:
	@for d in $$($(GO) list -f '{{.Dir}}' ./...); do \
		n=$$(ls $$d/*.go | grep -v _test.go | xargs cat 2>/dev/null | wc -l); \
		t=$$(ls $$d/*_test.go 2>/dev/null | xargs cat 2>/dev/null | wc -l); \
		rel=$${d#$(CURDIR)}; rel=$${rel#/}; \
		printf '%-40s %7d %7d\n' $${rel:-.} $$n $$t; \
	done | awk '{print; n += $$2; t += $$3} END {printf "%-40s %7d %7d\n", "total (non-test, test)", n, t}'
