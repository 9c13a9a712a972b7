// qiexplore searches the schedule space of a registered program: instead of
// replaying one recorded execution, it enumerates many distinct legal
// executions through the runtime's choice-point hook, classifies each run
// (new fingerprint / deadlock / panic / assertion failure), and emits a
// minimized repro schedule for every failure found. Repros replay with
// qireplay -schedule; `qistat dir` summarizes a results directory.
//
// Usage:
//
//	qiexplore -program buggy -dir results/ [-strategy dpor|pct] [-budget N]
//	          [-workers N] [-hb] [-depth N] [-d N] [-seed N] [-watchdog D]
//	          [-rediscover N] [-v]
//	qiexplore -list
//
// Exploration resumes: re-running with the same -dir continues from the
// persisted frontier instead of restarting. -workers N (default GOMAXPROCS)
// explores with a pool of in-process workers, each running candidate
// schedules in its own isolated Runtime; -workers 1 reproduces the serial
// search order byte-for-byte. -hb enables happens-before flip pruning: turn
// flips that provably commute with the displaced window are dropped instead
// of run. -rediscover N exits nonzero unless at least N divergent
// policy-variant fingerprints were rediscovered.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"qithread/internal/explore"
)

func main() {
	var (
		program    = flag.String("program", "", "registered program to explore (see -list)")
		list       = flag.Bool("list", false, "list registered programs and exit")
		strategy   = flag.String("strategy", "dpor", "search strategy: dpor (fingerprint-pruned branching) or pct (seeded priority walk)")
		dir        = flag.String("dir", "", "results directory (persists frontier, runs, repros; enables resume)")
		budget     = flag.Int("budget", 2000, "exploration runs this invocation")
		workers    = flag.Int("workers", runtime.GOMAXPROCS(0), "concurrent exploration workers (1 = serial, byte-identical search order)")
		hb         = flag.Bool("hb", false, "prune turn flips by happens-before independence instead of running them")
		depth      = flag.Int("depth", 0, "dpor: bound branching depth into the decision log (0 = unbounded)")
		d          = flag.Int("d", 3, "pct: priority-change points per run")
		seed       = flag.Uint64("seed", 0, "pct: walk seed (0 = derive from the baseline schedule hash)")
		watchdog   = flag.Duration("watchdog", explore.DefaultWatchdog, "real-time bound per run")
		rediscover = flag.Int("rediscover", 0, "exit nonzero unless this many divergent policy-variant fingerprints were rediscovered")
		verbose    = flag.Bool("v", false, "log every run")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "qiexplore: unexpected arguments:", strings.Join(flag.Args(), " "))
		os.Exit(2)
	}

	if *list {
		for _, name := range explore.Names() {
			fmt.Println(name)
		}
		return
	}
	if *program == "" {
		fmt.Fprintf(os.Stderr, "qiexplore: -program required (known: %s)\n", strings.Join(explore.Names(), ", "))
		os.Exit(2)
	}
	p := explore.Lookup(*program)
	if p == nil {
		fmt.Fprintf(os.Stderr, "qiexplore: unknown program %q (known: %s)\n", *program, strings.Join(explore.Names(), ", "))
		os.Exit(2)
	}

	s, err := explore.NewSession(p, *dir, *watchdog)
	if err != nil {
		fmt.Fprintln(os.Stderr, "qiexplore:", err)
		os.Exit(1)
	}
	s.Workers = *workers
	s.HB = *hb
	if *verbose {
		s.Verbose = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	if n := s.LoadWarnings(); n > 0 {
		fmt.Fprintf(os.Stderr, "qiexplore: resume: skipped %d corrupt results line(s) in %s\n", n, *dir)
	}
	resumedFrom := s.Runs()

	start := time.Now()
	switch *strategy {
	case "dpor":
		err = s.ExploreDPOR(*budget, *depth)
	case "pct":
		err = s.ExplorePCT(*budget, *d, *seed)
	default:
		fmt.Fprintf(os.Stderr, "qiexplore: unknown strategy %q (want dpor or pct)\n", *strategy)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "qiexplore:", err)
		os.Exit(1)
	}
	elapsed := time.Since(start)

	ran := s.Runs() - resumedFrom
	rate := float64(ran) / elapsed.Seconds()
	fmt.Printf("program:    %s\n", p.Name)
	fmt.Printf("strategy:   %s\n", *strategy)
	if resumedFrom > 0 {
		fmt.Printf("resumed:    %d prior runs\n", resumedFrom)
	}
	fmt.Printf("workers:    %d\n", *workers)
	fmt.Printf("runs:       %d (%.0f schedules/sec)\n", ran, rate)
	fmt.Printf("distinct:   %d fingerprints\n", s.Distinct())
	if *hb {
		fmt.Printf("hb-pruned:  %d flips dropped without running\n", s.Pruned())
	}
	fmt.Printf("frontier:   %d unexplored prefixes (max depth %d)\n", s.FrontierLen(), s.MaxDepth())
	fmt.Printf("failures:   %d\n", s.Failures())
	for i, st := range s.WorkerStats() {
		if *workers <= 1 {
			break
		}
		sec := st.Elapsed.Seconds()
		wrate := 0.0
		if sec > 0 {
			wrate = float64(st.Runs) / sec
		}
		fmt.Printf("worker %-2d   %d runs (%.0f/sec), %d new, %d branched, %d pruned\n",
			i, st.Runs, wrate, st.New, st.Branched, st.Pruned)
	}
	repros := s.Repros()
	for i, r := range repros {
		if i == 5 {
			fmt.Printf("repro:      ... %d more in %s\n", len(repros)-i, *dir)
			break
		}
		fmt.Printf("repro:      %s\n", r)
	}

	found := 0
	if len(p.Variants) > 0 {
		for _, r := range s.Rediscoveries() {
			status := "baseline-equal"
			if r.Divergent {
				status = "NOT FOUND"
				if r.Found {
					status = "rediscovered"
					found++
				}
			} else if r.Found {
				status = "baseline-equal (found)"
			}
			fmt.Printf("divergence: %-14s %s\n", r.Variant, status)
		}
	}

	if *rediscover > 0 && found < *rediscover {
		fmt.Fprintf(os.Stderr, "qiexplore: FAIL: rediscovered %d divergent fingerprints, want %d\n", found, *rediscover)
		os.Exit(1)
	}
}
