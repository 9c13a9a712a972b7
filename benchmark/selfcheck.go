package main

import (
	"fmt"
	"math"
	"os"
)

// runSelfcheck is the repeatability self-check: every workload runs twice in
// one invocation and, for each end-to-end metric, the relative distance
// between the two runs is compared with the metric's bound in BENCHMARK.json.
// The printed spreads are what the README's repeatability table records.
func runSelfcheck(specPath string, p plan) bool {
	spec, err := loadSpec(specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: selfcheck:", err)
		return false
	}
	ok := true
	fmt.Printf("%-14s %-20s %14s %14s %9s %9s\n", "workload", "metric", "run 1", "run 2", "spread", "bound")
	for _, w := range spec.Workloads {
		var runs [2]*metricSet
		for i := range runs {
			rs, err := measure(w.Name, p)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark: selfcheck:", err)
				return false
			}
			for _, e := range rs.errs {
				fmt.Printf("%s run %d: CHECK FAILED: %s\n", w.Name, i+1, e)
				ok = false
			}
			runs[i] = endToEndMetrics(&rs)
		}
		for _, d := range spec.EndToEnd {
			a, b := runs[0].values[d.Name].Value, runs[1].values[d.Name].Value
			spread := 0.0
			if m := math.Max(math.Abs(a), math.Abs(b)); m > 0 {
				spread = math.Abs(a-b) / m
			}
			verdict := ""
			if spread > d.Bound {
				verdict = "  EXCEEDS BOUND"
				ok = false
			}
			fmt.Printf("%-14s %-20s %14.6g %14.6g %8.3f%% %8.3f%%%s\n", w.Name, d.Name, a, b, 100*spread, 100*d.Bound, verdict)
		}
	}
	return ok
}
