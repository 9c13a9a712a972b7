#!/usr/bin/env bash
# The benchmark's single entry point; BENCHMARK.json names it.
#
#   bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       One invocation, as the driver makes it: build the binary (cached
#       after the first time) and run it with these flags. The last line of
#       standard output is the result object.
#
#   bash benchmark/run.sh [--seed N] [--seconds S]
#       The full run: build once, run the four workloads as separate
#       processes (so heap and allocation counts do not leak from one
#       workload into the next), then the traced run of each, and collect
#       every result line in .bench_build/results.json.
#
# Everything the build and the runs write stays under .bench_build/ in the
# checkout: the Go build cache, the binary, temporary files, results.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

out=.bench_build
mkdir -p "$out"
export GOCACHE="$PWD/$out/gocache" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off
bin="$out/qibenchmark"
go build -o "$bin" ./benchmark

for arg in "$@"; do
	case "$arg" in
	--workload | -workload | --workload=* | -workload=*) exec "$bin" "$@" ;;
	esac
done

results="$out/results.json"
log="$out/last-run.txt"
status=0
sep='['
: >"$results"
for trace in 0 1; do
	for w in catalog server_record replay explore; do
		if ! "$bin" --workload "$w" --trace "$trace" "$@" | tee "$log"; then
			status=1
		fi
		printf '%s\n{"workload":"%s","trace":%d,"result":%s}' "$sep" "$w" "$trace" "$(tail -n 1 "$log")" >>"$results"
		sep=','
	done
done
printf '\n]\n' >>"$results"
echo "results: $results"
exit "$status"
