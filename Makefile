GO ?= go

# The full gate, and what CI runs after fuzz-smoke. Every test of every
# package runs in a shuffled order at -cpu 1, 2 and 4 (no parallelism, the
# reference host's two Ps, Ps to spare), once plain and once under -race. The
# only selector is the package list: go test fails on a package that does not
# exist, where a -run list of test names silently matches nothing once a test
# is renamed. No step is timed: allocations are counted exactly by tests
# (TestSyncOpsAllocateNothing and the budget tests), and a performance claim is
# alternating parent/change pairs of `bash benchmark/run.sh`
# (benchmark/README.md).
.PHONY: check
check: build fmt vet
	$(GO) test -shuffle=on -cpu 1,2,4 ./...
	$(GO) test -race -shuffle=on -cpu 1,2,4 ./...

.PHONY: build
build:
	$(GO) build ./...

# Any file gofmt would rewrite fails the gate.
.PHONY: fmt
fmt:
	@out="$$(gofmt -l .)"; [ -z "$$out" ] || { echo "gofmt -l:"; echo "$$out"; exit 1; }

.PHONY: vet
vet:
	$(GO) vet ./...

.PHONY: test
test:
	$(GO) test ./...

# Lines of non-test Go outside benchmark/, and how many of them are code (not
# blank, not a // comment): the two sizes the simplicity PRs quote, since a
# deleted comment is not a simpler program.
.PHONY: loc
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' | xargs cat | \
		awk '{ n++ } !/^[ \t]*(\/\/.*)?$$/ { c++ } END { printf "%d lines, %d of them code\n", n, c }'

# The micro-benchmarks, the rows no benchmark/ probe isolates: in the root
# package the arm pairs of BenchmarkMechanismLockUnlock (native vs turn, lease
# vs none, the policy hooks' cost: EXPERIMENTS.md E9/E13/E18), E14's
# parked-population rows, PCT throughput with a long DPOR search's memory,
# E21's worker scaling, BenchmarkWorkOffload's inline against offloaded
# Work at 16 to 1,024 units, the measurement the offload threshold rests on
# (E44), and BenchmarkCreateJoinLive's 64 live threads each joined while it
# runs (E46); in internal/logio the fingerprint fold in its event
# and delivery shapes (E42); in internal/ingress one admission slot with an
# empty queue and behind a standing backlog, whose difference is the admission
# queue's copy compaction (E43), and BenchmarkLogLoad's 200k-event v2b ingress
# log load, whose allocs/op count slabs, not batches (E47); in internal/trace
# BenchmarkScheduleLoad's 100k-event schedule in the text and binary formats;
# in internal/explore BenchmarkExploreRun's B/op for one untraced search run
# of controlplane-race (5,712 B and 31 allocs/op, the counts
# TestExploredRunAllocBudget holds, E56) and for one 150-decision expand
# (8,776 B, 4 allocs), the explorer's own cost per explored schedule (E48).
# Compare arms within one run, never against a number recorded on another day.
.PHONY: bench
bench:
	$(GO) test -run '^$$' -bench . -benchmem -count 5 -benchtime 1s . ./internal/logio ./internal/ingress ./internal/trace ./internal/explore

# E19 million-event soak: streaming (bounded-memory) record of a ~2M-event
# ingress run with epoch checkpoints, then binary-vs-text size and load-time
# ratios and a streamed replay equality check. TestExperiments runs the same
# arm at 8,000 events.
.PHONY: soak
soak:
	$(GO) run ./cmd/qibench -experiment soak

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
