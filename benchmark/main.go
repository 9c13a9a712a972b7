// Command benchmark is the QiThread-Go benchmark: four workloads, six
// end-to-end metrics and an outside-in per-layer ledger. See README.md in
// this directory for the definitions; BENCHMARK.json at the repository root
// declares the same vocabulary for the driver.
//
//	benchmark -workload catalog -seed 1 -seconds 20 -trace 0   end-to-end metrics of one workload
//	benchmark -workload catalog -trace 1                        the per-layer ledger, traced on that workload
//	benchmark [-trace 1]                                        every workload [then the traced run]
//	benchmark -selfcheck                                        every workload twice, spreads against the bounds
//
// The last line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics. The exit code is non-zero when any output
// check failed; the metrics are printed either way.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"qithread/internal/stats"
)

// tmpRoot is where workloads create their temporary directories.
var tmpRoot string

// loadGoroutines is the number of load-generating goroutines a workload may
// use: never more than the host has processors (2 on the reference host).
func loadGoroutines() int {
	n := runtime.NumCPU()
	if n > 2 {
		n = 2
	}
	return n
}

func newWorkload(name string) workload {
	switch name {
	case "catalog":
		return &catalogWorkload{}
	case "server_record":
		return &serverRecord{}
	case "replay":
		return &replayWorkload{}
	case "explore":
		return &exploreWorkload{}
	}
	return nil
}

// result is the last-line JSON object.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func (r result) print() {
	b, err := json.Marshal(r)
	if err != nil {
		panic(err)
	}
	fmt.Println(string(b))
}

// plan is how much a run measures. The command line derives it from -seed
// and -seconds; the smoke test uses a tiny one.
type plan struct {
	seed uint64
	// size scales ops per trial (1 = the sizes calibrated for refSeconds).
	size float64
	// trials is the number of timed trials; once budget (if positive) is
	// spent the run stops early, but never before minTrials.
	trials, minTrials int
	budget            time.Duration
	tracedTrials      int
	// setupReps is the number of set-ups the trials are spread behind.
	setupReps int
}

func planFor(seed uint64, seconds int) plan {
	return plan{
		seed: seed, size: float64(seconds) / refSeconds,
		trials: fullTrials, minTrials: minTrials, budget: time.Duration(seconds) * time.Second,
		tracedTrials: tracedTrials, setupReps: setupReps,
	}
}

// measure runs a workload's timed, untraced trials in p.setupReps chunks,
// each behind a set-up of its own, and reports the median set-up time.
func measure(name string, p plan) (runStats, error) {
	w := newWorkload(name)
	defer w.close()
	rs := runStats{workload: name}
	reps := p.setupReps
	setups := make([]time.Duration, reps)
	for rep := range setups {
		var err error
		if setups[rep], err = setUp(w, p); err != nil {
			return rs, err
		}
		n := p.trials*(rep+1)/reps - p.trials*rep/reps
		rs.timeTrials(w, n, (p.minTrials+reps-1)/reps, p.budget/time.Duration(reps), nil)
	}
	rs.setup = stats.Median(setups)
	return rs, nil
}

// endToEndMetrics derives the six end-to-end metrics from a timed run.
func endToEndMetrics(rs *runStats) *metricSet {
	m := newMetricSet(endToEnd)
	m.emit("setup_s", rs.setup.Seconds())
	m.emit("ops_per_s", rs.opsPerSec())
	m.emit("allocs_per_op", rs.perOpOf(float64(rs.mallocs)))
	m.emit("alloc_bytes_per_op", rs.perOpOf(float64(rs.bytes)))
	m.emit("vtime_per_op", rs.perOpOf(float64(rs.total.vtime)))
	m.emit("ok_share", 1-rs.failShare())
	return m
}

func printHeader(name string, p plan) {
	fmt.Printf("== %s  seed=%d size=%.3g  nproc=%d GOMAXPROCS=%d load-goroutines=%d\n",
		name, p.seed, p.size, runtime.NumCPU(), runtime.GOMAXPROCS(0), loadGoroutines())
}

func printMetrics(m *metricSet) {
	for _, n := range m.order {
		v := m.values[n]
		fmt.Printf("  %-34s %16.6g %s\n", n, v.Value, v.Unit)
	}
}

// printRun prints a timed run for people: the metrics by name and unit, then
// the spread information that is not gated.
func printRun(rs *runStats, m *metricSet) {
	printMetrics(m)
	sec := make([]float64, len(rs.walls))
	for i, d := range rs.walls {
		sec[i] = d.Seconds()
	}
	fmt.Printf("  trials=%d ops=%d failed=%d fail_share=%g  timed=%.2fs\n",
		rs.trials, rs.total.ops, rs.total.failed, rs.failShare(), rs.wall.Seconds())
	fmt.Printf("  trial wall: q1=%.4fs median=%.4fs q3=p75=%.4fs (%d samples)\n",
		quantile(sec, 0.25), quantile(sec, 0.5), quantile(sec, 0.75), len(sec))
	for _, e := range rs.errs {
		fmt.Printf("  CHECK FAILED: %s\n", e)
	}
}

// runOne is the driver's untraced invocation: one workload, its end-to-end
// metrics, the result line.
func runOne(name string, p plan) bool {
	printHeader(name, p)
	rs, err := measure(name, p)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return false
	}
	m := endToEndMetrics(&rs)
	printRun(&rs, m)
	ok := rs.total.failed == 0 && len(rs.errs) == 0
	result{Correct: ok, Attempted: rs.total.ops, Failed: rs.total.failed, Metrics: m.values}.print()
	return ok
}

func main() {
	var (
		name      = flag.String("workload", "", "workload to run (catalog, server_record, replay, explore); empty runs all four")
		seed      = flag.Uint64("seed", defaultSeed, "input seed")
		seconds   = flag.Int("seconds", refSeconds, "time one run measures for; trial sizes scale with it")
		traced    = flag.Int("trace", 0, "1 runs the traced run and prints the per-layer metrics instead")
		traceOut  = flag.String("trace-out", "", "with -trace 1: write the recorded spans to this file as JSON")
		selfcheck = flag.Bool("selfcheck", false, "run every workload twice and compare the spread of each end-to-end metric with its bound")
		spec      = flag.String("spec", "BENCHMARK.json", "with -selfcheck: the benchmark declaration holding the bounds")
		tmp       = flag.String("tmp", filepath.Join(".bench_build", "tmp"), "directory for temporary files (created if missing)")
		list      = flag.Bool("list", false, "print the metric vocabulary with what each per-layer metric should move, and exit")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "benchmark: unexpected arguments:", strings.Join(flag.Args(), " "))
		os.Exit(2)
	}
	if *list {
		printVocabulary()
		return
	}
	if *name != "" && newWorkload(*name) == nil {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be at least 1 and -trace 0 or 1")
		os.Exit(2)
	}
	if err := os.MkdirAll(*tmp, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	tmpRoot = *tmp
	o := planFor(*seed, *seconds)

	ok := true
	switch {
	case *selfcheck:
		ok = runSelfcheck(*spec, o)
	case *name != "" && *traced == 1:
		ok = runTraced(*name, o, *traceOut)
	case *name != "":
		ok = runOne(*name, o)
	default:
		for _, w := range workloadDefs {
			ok = runOne(w.Name, o) && ok
		}
		if *traced == 1 {
			ok = runTraced(workloadDefs[0].Name, o, *traceOut) && ok
		}
	}
	if !ok {
		os.Exit(1)
	}
}

func printVocabulary() {
	fmt.Println("workloads:")
	for _, w := range workloadDefs {
		fmt.Printf("  %-14s %s\n", w.Name, w.Why)
	}
	fmt.Printf("seeds: default %d, held-out %d\n", defaultSeed, heldOutSeed)
	fmt.Println("end-to-end (every workload, tracing off):")
	for _, d := range endToEnd {
		fmt.Printf("  %-34s %-14s better=%-6s bound=%g\n", d.Name, d.Unit, d.Better, d.Bound)
	}
	fmt.Println("per-layer (traced run and probes):")
	for _, d := range perLayer {
		fmt.Printf("  %-34s %-14s better=%-6s moves %s\n", d.Name, d.Unit, d.Better, d.Moves)
	}
}
