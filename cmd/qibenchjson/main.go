// Command qibenchjson converts `go test -bench` output on stdin into a
// machine-readable JSON baseline: benchmark name → {ns/op, allocs/op, B/op,
// gomaxprocs}. Repetitions of the same benchmark (-count N) are averaged for
// ns/op so the emitted numbers are less noisy than any single run. The
// GOMAXPROCS suffix the testing package appends to names is kept (and also
// recorded as a structured field), so one baseline can hold the same
// benchmark at several -cpu values side by side. The result is written
// to stdout; `make bench-json` redirects it to BENCH_sched.json, the
// committed scheduler-performance baseline referenced by EXPERIMENTS.md E14.
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem . | qibenchjson > BENCH_sched.json
//
// With -compare FILE the command instead re-runs the benchmarks named in the
// committed baseline (via `go test -bench` on -pkg) and exits non-zero if any
// benchmark's ns/op regressed by more than -threshold percent, or its
// allocs/op or B/op by more than -allocthreshold percent. This is the
// CI performance gate: it catches large scheduler regressions while the
// generous threshold plus -short benchtime keeps shared-runner noise from
// flaking the build.
//
//	qibenchjson -compare BENCH_sched.json -short
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Result is one benchmark's aggregated measurement. GOMAXPROCS is the proc
// count the benchmark ran at, recovered from the -N suffix the testing
// package appends when GOMAXPROCS != 1 (absent suffix means 1). It is kept
// as a structured field — and the suffix kept in the key — so single-core
// and multi-core baselines of the same benchmark coexist in one file
// instead of colliding under a stripped name.
type Result struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op,omitempty"`
	Reps        int     `json:"reps"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
}

// gomaxprocsSuffix is the -N the testing package appends to benchmark names
// when GOMAXPROCS != 1. It is parsed into Result.GOMAXPROCS (and left in the
// map key); it is only stripped when deriving the top-level -bench pattern
// in -compare mode. No sub-benchmark in this repo ends in "-<digits>" (they
// use "key=value" parts), so the suffix is unambiguous.
var gomaxprocsSuffix = regexp.MustCompile(`-(\d+)$`)

func main() {
	compare := flag.String("compare", "", "baseline JSON to compare a fresh benchmark run against")
	pkg := flag.String("pkg", ".", "package whose benchmarks are re-run in -compare mode")
	short := flag.Bool("short", false, "in -compare mode, use a short benchtime (50ms, 1 rep)")
	threshold := flag.Float64("threshold", 25, "in -compare mode, maximum tolerated ns/op regression in percent")
	allocThreshold := flag.Float64("allocthreshold", 25, "in -compare mode, maximum tolerated allocs/op and B/op regression in percent")
	flag.Parse()

	if *compare != "" {
		os.Exit(runCompare(*compare, *pkg, *short, *threshold, *allocThreshold))
	}

	results, err := parseBench(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "qibenchjson:", err)
		os.Exit(1)
	}
	enc, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "qibenchjson:", err)
		os.Exit(1)
	}
	fmt.Println(string(enc))
}

// parseBench reads `go test -bench` output and aggregates repetitions.
// Benchmarks may report extra metrics (e.g. vunits) after the standard pair,
// so values are selected by unit, not position.
func parseBench(r io.Reader) (map[string]Result, error) {
	type acc struct {
		nsSum  float64
		allocs int64
		bytes  int64
		reps   int
		procs  int
	}
	sums := make(map[string]*acc)

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 {
			continue
		}
		name := fields[0]
		procs := 1
		if m := gomaxprocsSuffix.FindStringSubmatch(name); m != nil {
			procs, _ = strconv.Atoi(m[1])
		}
		a := sums[name]
		if a == nil {
			a = &acc{procs: procs}
			sums[name] = a
		}
		ok := false
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				break
			}
			switch fields[i+1] {
			case "ns/op":
				a.nsSum += v
				ok = true
			case "allocs/op":
				a.allocs = int64(v)
			case "B/op":
				a.bytes = int64(v)
			}
		}
		if ok {
			a.reps++
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(sums) == 0 {
		return nil, fmt.Errorf("no benchmark lines on stdin")
	}

	out := make(map[string]Result, len(sums))
	for name, a := range sums {
		out[name] = Result{
			NsPerOp:     round2(a.nsSum / float64(a.reps)),
			AllocsPerOp: a.allocs,
			BytesPerOp:  a.bytes,
			Reps:        a.reps,
			GOMAXPROCS:  a.procs,
		}
	}
	return out, nil
}

// runCompare re-runs the benchmarks named in the baseline and reports every
// ns/op regression beyond threshold and every allocs/op or B/op regression
// beyond allocThreshold. Allocation counts and sizes are near-deterministic,
// so the alloc gates catch garbage-producing changes that wall-clock noise on
// shared runners would hide — B/op the ones that allocate bigger rather than
// more often. Rows recorded before B/op was kept carry no bytes_per_op and
// are not byte-gated. Returns the process exit code.
func runCompare(baselinePath, pkg string, short bool, threshold, allocThreshold float64) int {
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "qibenchjson:", err)
		return 1
	}
	baseline := make(map[string]Result)
	if err := json.Unmarshal(raw, &baseline); err != nil {
		fmt.Fprintf(os.Stderr, "qibenchjson: %s: %v\n", baselinePath, err)
		return 1
	}
	if len(baseline) == 0 {
		fmt.Fprintf(os.Stderr, "qibenchjson: %s: empty baseline\n", baselinePath)
		return 1
	}

	// The baseline keys are full sub-benchmark paths (with any GOMAXPROCS
	// suffix); -bench matches on the top-level function name, so each lane
	// runs the union of those with the suffix stripped. A lane is one
	// GOMAXPROCS value and one `go test` process, holding exactly the
	// benchmarks the baseline has at that value — the way `make bench-json`
	// records them: a single `-cpu 1,2` process would interleave the lanes,
	// and a row measured right after its GOMAXPROCS 2 sibling reads up to 2x
	// slower than the same row measured alone. Legacy baselines without
	// gomaxprocs fields form one lane (0) run at the host default.
	lanes := make(map[int]map[string]bool)
	for name, res := range baseline {
		top := strings.SplitN(name, "/", 2)[0]
		if lanes[res.GOMAXPROCS] == nil {
			lanes[res.GOMAXPROCS] = make(map[string]bool)
		}
		lanes[res.GOMAXPROCS][gomaxprocsSuffix.ReplaceAllString(top, "")] = true
	}
	procs := make([]int, 0, len(lanes))
	for p := range lanes {
		procs = append(procs, p)
	}
	sort.Ints(procs)

	benchtime, count := "300ms", "3"
	if short {
		benchtime, count = "50ms", "1"
	}
	fresh := make(map[string]Result)
	for _, p := range procs {
		names := make([]string, 0, len(lanes[p]))
		for t := range lanes[p] {
			names = append(names, t)
		}
		sort.Strings(names)
		args := []string{"test", "-run", "^$",
			"-bench", "^(" + strings.Join(names, "|") + ")$", "-benchmem", "-benchtime", benchtime, "-count", count}
		if p > 0 {
			args = append(args, "-cpu", strconv.Itoa(p))
		}
		args = append(args, pkg)
		cmd := exec.Command("go", args...)
		var out bytes.Buffer
		cmd.Stdout = &out
		cmd.Stderr = os.Stderr
		fmt.Fprintf(os.Stderr, "qibenchjson: re-running %s (gomaxprocs %d, benchtime %s, count %s)\n",
			strings.Join(names, " "), p, benchtime, count)
		if err := cmd.Run(); err != nil {
			fmt.Fprintln(os.Stderr, "qibenchjson: benchmark run failed:", err)
			return 1
		}
		lane, err := parseBench(&out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "qibenchjson:", err)
			return 1
		}
		for name, res := range lane {
			fresh[name] = res
		}
	}

	keys := make([]string, 0, len(baseline))
	for name := range baseline {
		keys = append(keys, name)
	}
	sort.Strings(keys)
	regressed := 0
	for _, name := range keys {
		base := baseline[name]
		cur, ok := fresh[name]
		if !ok {
			// A benchmark that disappeared is a baseline-staleness error, not
			// a perf regression; flag it so `make bench-json` gets re-run.
			fmt.Fprintf(os.Stderr, "qibenchjson: FAIL %-55s in baseline but not produced by this run\n", name)
			regressed++
			continue
		}
		if base.NsPerOp <= 0 {
			continue
		}
		delta := (cur.NsPerOp - base.NsPerOp) / base.NsPerOp * 100
		status := "ok  "
		if delta > threshold {
			status = "FAIL"
			regressed++
		}
		fmt.Fprintf(os.Stderr, "qibenchjson: %s %-55s %12.0f -> %12.0f ns/op  (%+.1f%%)\n",
			status, name, base.NsPerOp, cur.NsPerOp, delta)
		for _, m := range []struct {
			unit      string
			base, cur int64
		}{
			{"allocs/op", base.AllocsPerOp, cur.AllocsPerOp},
			{"B/op", base.BytesPerOp, cur.BytesPerOp},
		} {
			// A row with 0 allocs/op has nothing to gate: whatever B/op it
			// shows is the benchmark's set-up amortized over b.N, which
			// moves with the benchtime, not with the code.
			if m.base <= 0 || base.AllocsPerOp == 0 {
				continue
			}
			adelta := float64(m.cur-m.base) / float64(m.base) * 100
			astatus := "ok  "
			if adelta > allocThreshold {
				astatus = "FAIL"
				regressed++
			}
			fmt.Fprintf(os.Stderr, "qibenchjson: %s %-55s %12d -> %12d %s  (%+.1f%%)\n",
				astatus, name, m.base, m.cur, m.unit, adelta)
		}
	}
	if regressed > 0 {
		fmt.Fprintf(os.Stderr, "qibenchjson: %d measurement(s) regressed beyond thresholds (ns/op %.0f%%, allocs/op and B/op %.0f%%) against %s\n",
			regressed, threshold, allocThreshold, baselinePath)
		return 1
	}
	fmt.Fprintf(os.Stderr, "qibenchjson: all %d benchmarks within thresholds (ns/op %.0f%%, allocs/op and B/op %.0f%%) of %s\n",
		len(keys), threshold, allocThreshold, baselinePath)
	return 0
}

func round2(v float64) float64 {
	return float64(int64(v*100+0.5)) / 100
}
