// Command qidoctor diagnoses scheduling imbalance: it records a program's
// schedule under vanilla round robin, detects the imbalance patterns behind
// the paper's policies (Figures 1–3, Section 3.3), recommends a policy set,
// and validates the recommendation by measurement — the automated version of
// the paper's own diagnostic process, in the spirit of Pegasus.
//
// Usage:
//
//	qidoctor -program pbzip2_compress
//	qidoctor -all           # diagnose the whole catalog
package main

import (
	"flag"
	"fmt"
	"os"

	"qithread"
	"qithread/internal/advisor"
	"qithread/internal/policy"
	"qithread/internal/programs"
	"qithread/internal/workload"
)

func main() {
	var (
		program = flag.String("program", "", "catalog program to diagnose")
		all     = flag.Bool("all", false, "diagnose every catalog program")
		scale   = flag.Float64("scale", 0.2, "workload scale")
		threads = flag.Int("threads", 0, "thread override")
	)
	flag.Parse()

	var specs []programs.Spec
	switch {
	case *all:
		specs = programs.All()
	case *program != "":
		s, ok := programs.Find(*program)
		if !ok {
			fmt.Fprintf(os.Stderr, "qidoctor: unknown program %q\n", *program)
			os.Exit(1)
		}
		specs = []programs.Spec{s}
	default:
		fmt.Fprintln(os.Stderr, "qidoctor: need -program NAME or -all")
		os.Exit(1)
	}

	p := workload.Params{Scale: *scale, Threads: *threads, InputSeed: 7}
	for _, spec := range specs {
		recs, res := advisor.AutoTune(spec.Build(p))
		verdict := "no significant change"
		if res.Helped() {
			verdict = fmt.Sprintf("%.2fx faster", res.Improvement())
		}
		fmt.Printf("%-28s recommend %-50s -> %s\n", spec.Name, res.Recommended, verdict)
		if !*all {
			for _, r := range recs {
				fmt.Printf("  %s\n", r)
			}
			fmt.Printf("  vanilla makespan %d, tuned makespan %d\n", res.VanillaMakespan, res.TunedMakespan)
			// The diagnose -> configure -> rerun loop: the trial already ran
			// under this exact configuration, so the line below reproduces
			// the tuned measurement as-is.
			fmt.Printf("  stack: %s\n", res.Stack)
			fmt.Printf("  ready to run: qithread.Config{Mode: qithread.RoundRobin, Policies: %s}\n", goSetExpr(res.Recommended))
			fmt.Println("  tuned-run policy decisions:")
			for _, m := range res.Metrics {
				fmt.Printf("    %s\n", m)
			}
		}
	}
}

// goSetExpr renders a policy set as the Go expression that reconstructs it.
func goSetExpr(set qithread.Policy) string {
	if set == qithread.NoPolicies {
		return "qithread.NoPolicies"
	}
	if set == qithread.AllPolicies {
		return "qithread.AllPolicies"
	}
	expr := ""
	for _, name := range policy.Names() {
		if p, ok := policy.SetForName(name); ok && set.Has(p) {
			if expr != "" {
				expr += "|"
			}
			expr += "qithread." + name
		}
	}
	return expr
}
