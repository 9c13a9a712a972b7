GO ?= go

# The full gate: everything CI (and the trace-compatibility suite) needs. No
# step is timed: what a hosted sync op allocates is counted exactly
# (TestSyncOpsAllocateNothing, in alloc-bounds), and a performance claim is
# alternating parent/change pairs of `bash benchmark/run.sh`
# (benchmark/README.md).
.PHONY: check
check: build fmt vet race shuffle cpu-matrix alloc-bounds soak-smoke explore-smoke controlplane-smoke

# Scheduler tests at -cpu 1, 2 and 4: the turn lease, and the condition
# variable the goroutines of a direct internal/core user wait on for their
# grant, behave differently with no parallelism, with more turn-waiters than
# Ps (2 is the reference host's real shape), and with Ps to spare, so all
# three are exercised; the handoff stress test compares its schedule across
# the three values and against the same script hosted. The multi-domain
# determinism loop and the lease-neutrality loop additionally run under -race
# at -cpu 4, where domains really overlap. Hosted runs (DESIGN.md §4.6: every
# domain of a deterministic run on one goroutine) are held to the same matrix
# under -race — one goroutine must behave the same with Ps to spare: the
# stress script, the off-turn queue, the 705 goldens in one pass, and the
# lifetime, hosting-edge, leftover-goroutine, PCS and replay-divergence tests
# of the root package.
# A hosted scheduler is its goroutine's alone (DESIGN.md §4.1): the same lane
# runs a hosted script with the entry lock held (TestHostedSchedulerTakesNoLock)
# and checkpoints beside a busy domain, which must not read that domain's
# scheduler.
.PHONY: cpu-matrix
cpu-matrix:
	$(GO) test -cpu 1,2,4 -count=1 ./internal/core ./internal/domain
	$(GO) test -race -cpu 1,2,4 -count=1 -run 'TestHandoffStress|TestHosted' ./internal/core
	$(GO) test -race -cpu 4 -count=1 -run 'TestDomainsDeterministic|TestLeaseTraceNeutral' ./internal/harness
	$(GO) test -race -cpu 1,2,4 -count=1 -run 'TestTraceCompatibility' ./internal/harness
	$(GO) test -race -cpu 1,2,4 -count=1 -run 'TestHosted|TestRunLeavesNoGoroutines|TestPCSRunHosted|TestPCSOffTurnDeadlock|TestPCSCondBypass|TestReplayUnknownThreadDiverges|TestDestroyCondWithParkedWaiters|TestDestroyMutexRecycled|TestPipeCloseWithBlockedReaders|TestCreateAfterExit|TestGrantRecycling|TestCheckpointRefusesActiveDomain' .

# The single-copy schedule path (DESIGN.md §4.7): a retained trace and a
# loaded binary schedule each allocate about 1x their own size, and replay
# only reads the schedule it borrows (two runtimes share one under -race).
# Named here so that a reintroduced regrowing append or defensive copy fails
# the gate rather than a benchmark run. The construction budget (DESIGN.md
# §4.13) is held the same way: three allocations for a runtime that ran an
# empty main, at most 1.5 per created-and-joined thread, nothing retained per
# exited thread but its table slot, inline thread table and chooser scratch,
# and — at -cpu 1 and 4, two runtimes at once — coroutines and host records
# recycled across schedulers without a granted flag ever left set. TestRecordSizesPinned holds
# the records the byte metrics depend on inside their allocation size classes
# (Thread 240 exactly, Cond and Sem 64, RWMutex and Barrier <= 96, Runtime
# <= 320, core.Scheduler <= 1152). An
# explored run is held to its budget here too (41 allocations for the seeded
# control-plane race, two of them the gateway; hosted, so none of them a
# goroutine's), with the tests that keep its recycled scaffolding safe:
# nothing recycled after a deadlock, a panic — main's or a child's — or a
# hang, no late report and no stale watchdog tick ever classifying another run.
# Steady state is held to zero: TestSyncOpsAllocateNothing counts the
# allocations of a lock/unlock pair, a condition-variable ping-pong, a Yield
# among four threads, a logical Sleep and a broadcast round to eight waiters
# in a hosted run, with and without the lease and under all five policies.
.PHONY: alloc-bounds
alloc-bounds:
	$(GO) test -race -count=1 -run 'TestTraceRetentionAllocBound|TestChunkedTraceRetention|TestInlineTables|TestHostRecordsRecycled' ./internal/core
	$(GO) test -race -count=1 -run 'TestBinaryLoadAllocBound|TestBinaryLoadErrors' ./internal/trace
	$(GO) test -race -count=1 -run 'TestSyncOpsAllocateNothing|TestReplayBorrowsSchedule|TestRecordSizesPinned|TestRuntimeAllocBudget|TestThreadAllocBudget|TestThreadChurnRetention|TestGatewayAllocBudget' .
	$(GO) test -race -cpu 1,4 -count=1 -run 'TestGrantRecycling' .
	$(GO) test -race -count=1 -run 'TestCollectorStageSizedFromLastSnapshot|TestAdmissionQueueSizedFromFirstSnapshot' ./internal/ingress
	$(GO) test -race -count=1 -run 'TestParseEventMatchesFields|TestGroupSlabs' ./internal/workload/controlplane
	$(GO) test -race -count=1 -run 'TestExploredRunAllocBudget|TestScaffoldNotRecycledAfterAbnormalEnd|TestLateDeadlockCannotClassifyNextRun|TestWatchdogNoStaleTick|TestFrontierRetention' ./internal/explore

# Every fuzz target in the tree for 10 s each on top of its seed corpus. The
# targets are found with `go test -list`, package by package, so a new Fuzz*
# function is fuzzed in CI without an edit here or in the workflow (-fuzz takes
# one target of one package per run). -fuzzminimizetime is cut from its 60 s
# default: shrinking one new corpus entry of a kilobyte-sized log otherwise
# takes the whole run (FuzzLoadLog made 10 executions in 30 s, E28).
.PHONY: fuzz-smoke
fuzz-smoke:
	@set -e; for pkg in $$($(GO) list ./...); do \
		for target in $$($(GO) test -list '^Fuzz' $$pkg | grep '^Fuzz' || true); do \
			echo "fuzz-smoke: $$pkg $$target"; \
			$(GO) test -run '^$$' -fuzz "^$$target\$$" -fuzztime 10s -fuzzminimizetime 1s $$pkg; \
		done; \
	done

.PHONY: build
build:
	$(GO) build ./...

# Any file gofmt would rewrite fails the gate (PR 17 found three at its
# parent).
.PHONY: fmt
fmt:
	@out="$$(gofmt -l .)"; [ -z "$$out" ] || { echo "gofmt -l:"; echo "$$out"; exit 1; }

.PHONY: vet
vet:
	$(GO) vet ./...

# Lines of non-test Go outside benchmark/: the size the simplicity PRs quote.
.PHONY: loc
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' | xargs cat | wc -l

.PHONY: test
test:
	$(GO) test ./...

.PHONY: race
race:
	$(GO) test -race ./...

# Shuffled test order: catches inter-test state leaks (shared runtimes,
# leftover goroutines) that a fixed order can mask.
.PHONY: shuffle
shuffle:
	$(GO) test -shuffle=on ./...

# E19 million-event soak: streaming (bounded-memory) record of a ~2M-event
# ingress run with epoch checkpoints, then binary-vs-text size and load-time
# ratios and a streamed replay equality check. soak-smoke is the same
# experiment at a size small enough for every `make check`.
.PHONY: soak
soak:
	$(GO) run ./cmd/qibench -experiment soak

.PHONY: soak-smoke
soak-smoke:
	$(GO) run ./cmd/qibench -experiment soak -soak-events 8000

# Bounded schedule-space exploration (EXPERIMENTS.md E20): a few hundred
# DPOR runs over the seeded-bug program MUST find the atomicity bug and emit
# a minimized repro (-require-bug exits nonzero otherwise), and the repro
# must replay 20/20 through qireplay. Well under 10s end to end.
.PHONY: explore-smoke
explore-smoke:
	@rm -rf .explore_smoke
	$(GO) run ./cmd/qiexplore -program buggy -dir .explore_smoke -budget 400 -workers 4 -require-bug
	$(GO) run ./cmd/qireplay -program buggy -runs 20 \
		-schedule "$$(ls .explore_smoke/repro-*.sched | head -1)"
	@rm -rf .explore_smoke

# The control-plane pipeline end to end (EXPERIMENTS.md E22): the detcluster
# example records a live cluster, replays it, and injects faults
# deterministically; then qiexplore MUST find the seeded missing-recheck race
# within the smoke budget, the minimized repro MUST reproduce it 20/20, and
# the SAME schedule replayed against the fixed program MUST run clean
# (-expect ok) — the fix proven on the exact interleaving that failed.
.PHONY: controlplane-smoke
controlplane-smoke:
	@rm -rf .controlplane_smoke
	$(GO) run ./examples/detcluster -smoke
	$(GO) run ./cmd/qiexplore -program controlplane-race -dir .controlplane_smoke -budget 400 -workers 4 -require-bug
	$(GO) run ./cmd/qireplay -program controlplane-race -runs 20 \
		-schedule "$$(ls .controlplane_smoke/repro-*.sched | head -1)"
	$(GO) run ./cmd/qireplay -program controlplane-fixed -runs 20 -expect ok \
		-schedule "$$(ls .controlplane_smoke/repro-*.sched | head -1)"
	@rm -rf .controlplane_smoke

# The micro-benchmarks no benchmark/ probe measures: the arm pairs of
# BenchmarkMechanismLockUnlock (native vs turn, lease vs none, the policy
# hooks' cost: EXPERIMENTS.md E9/E13/E18), E14's parked-population rows, PCT
# throughput with a long DPOR search's memory, and E21's worker scaling. Compare
# arms within one run, never against a number recorded on another day.
.PHONY: bench
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkMechanismLockUnlock|BenchmarkBroadcastStorm|BenchmarkTimedWaitChurn|BenchmarkExplore|BenchmarkExploreParallel' -benchmem -count 5 -benchtime 1s .
