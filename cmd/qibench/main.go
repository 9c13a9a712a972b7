// Command qibench regenerates the paper's evaluation (Section 5) and the
// repository's own experiments: one arm per row of harness.Experiments, which
// `qibench -h` enumerates.
//
// Usage:
//
//	qibench -experiment NAME [-suite phoenix | -program x264] [-scale 0.25] [-o table.csv]
//	qibench -experiment all
//	qibench -list
//
// A tabular arm prints a title line and its table; -o writes the same table
// as CSV and `qistat table.csv` prints it again, aggregate lines included.
// Apart from the wall-clock columns all measurements are virtual makespans
// (critical-path model, see DESIGN.md) and therefore deterministic: the same
// invocation prints the same numbers.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"

	"qithread/internal/harness"
	"qithread/internal/programs"
	"qithread/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "qibench:", err)
		os.Exit(1)
	}
}

// run is qibench. Its deferred calls stop the CPU profile and write the heap
// profile on every return, a failing run's included, and an error of theirs
// is run's.
func run() (err error) {
	const all = "all"
	var names, skipped []string
	for _, e := range harness.Experiments {
		names = append(names, e.Name)
		if e.NotInAll != "" {
			skipped = append(skipped, e.Name)
		}
	}
	var (
		experiment = flag.String("experiment", names[0], strings.Join(names, " | ")+" | "+all+" (every one but "+strings.Join(skipped, ", ")+")")
		suite      = flag.String("suite", "", "restrict to one suite (splash2x npb parsec phoenix realworld imagemagick stl)")
		program    = flag.String("program", "", "restrict to one program (Figure 8 label)")
		scale      = flag.Float64("scale", 0.25, "workload scale factor (1.0 = paper-sized)")
		threads    = flag.Int("threads", 0, "override worker thread count (0 = per-program default)")
		out        = flag.String("o", "", "write the experiment's table as CSV to this path (-experiment "+all+": the first table, Figure 8's)")
		chart      = flag.Bool("chart", false, "render Figure 8 as ASCII bars")
		verbose    = flag.Bool("v", false, "log every measurement")
		list       = flag.Bool("list", false, "list catalog programs and exit")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this path")
		memprofile = flag.String("memprofile", "", "write a heap profile to this path on exit")
		soakEvents = flag.Int("soak-events", 200000, "requests for -experiment soak (the trace is several events per request)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "qibench: unexpected arguments:", strings.Join(flag.Args(), " "))
		os.Exit(2)
	}

	if *cpuprofile != "" {
		f, ferr := os.Create(*cpuprofile)
		if ferr != nil {
			return ferr
		}
		if ferr := pprof.StartCPUProfile(f); ferr != nil {
			return ferr
		}
		defer func() {
			pprof.StopCPUProfile()
			err = errors.Join(err, f.Close())
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, ferr := os.Create(*memprofile)
			if ferr == nil {
				runtime.GC() // settle the heap so the profile shows live objects
				ferr = errors.Join(pprof.WriteHeapProfile(f), f.Close())
			}
			err = errors.Join(err, ferr)
		}()
	}

	if *list {
		for _, s := range programs.All() {
			hints := ""
			if s.Hints.SoftBarrier {
				hints += "+"
			}
			if s.Hints.PCS {
				hints += "*"
			}
			fmt.Printf("%-28s %-12s %2d threads %s\n", s.Name, s.Suite, s.Threads, hints)
		}
		return nil
	}

	var arms []*harness.Experiment
	for i := range harness.Experiments {
		if e := &harness.Experiments[i]; e.Name == *experiment || (*experiment == all && e.NotInAll == "") {
			arms = append(arms, e)
		}
	}
	if len(arms) == 0 {
		return fmt.Errorf("unknown experiment %q (want %s or %s)", *experiment, strings.Join(names, ", "), all)
	}
	if *out != "" && !slices.ContainsFunc(arms, (*harness.Experiment).Tabular) {
		return fmt.Errorf("-o: -experiment %s prints no table", *experiment)
	}
	args := harness.Args{Specs: programs.All(), Chart: *chart, SoakEvents: *soakEvents}
	if *program != "" {
		s, ok := programs.Find(*program)
		if !ok {
			return fmt.Errorf("unknown program %q", *program)
		}
		args.Specs = []programs.Spec{s}
	} else if *suite != "" {
		args.Specs = programs.BySuite(*suite)
	}
	if len(args.Specs) == 0 {
		return fmt.Errorf("no programs selected")
	}
	r := &harness.Runner{Params: workload.Params{Scale: *scale, Threads: *threads, InputSeed: 42}}
	if *verbose {
		r.Log = os.Stderr
	}

	for i, e := range arms {
		if i > 0 {
			fmt.Println()
		}
		t, err := e.Run(os.Stdout, r, args)
		if t != nil && *out != "" {
			if err := writeCSV(*out, t); err != nil {
				return err
			}
			*out = "" // -experiment all: the first table only
		}
		if err != nil {
			return fmt.Errorf("%s: %w", e.Name, err)
		}
	}
	return nil
}

func writeCSV(path string, t *harness.Table) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
