// Package harness runs the paper's experiments: it measures catalog programs
// under the scheduling configurations of Figure 8, computes normalized
// overheads, and reproduces the per-policy effectiveness study (Section 5.2),
// the scalability study (Section 5.3), and the schedule-stability comparison
// against logical-clock scheduling (Section 2).
package harness

import (
	"fmt"
	"io"
	"time"

	"qithread"
	"qithread/internal/programs"
	"qithread/internal/workload"
)

// Mode is a named runtime configuration of the evaluation.
type Mode struct {
	// Name matches the artifact's row labels (non-det, no-hint, hinted,
	// no-pcs-hint, all-policies, ...).
	Name string
	Cfg  qithread.Config
}

// Standard evaluation modes. "non-det" is the ideal-parallel baseline
// (deterministic virtual-time simulation of the paper's nondeterministic
// pthreads runs), "no-pcs-hint" is the paper's "Parrot w/o PCS" (round robin
// + soft-barrier hints), "hinted" is "Parrot w/ PCS", "all-policies" is the
// QiThread default, "logical-clock" is the Kendo/CoreDet baseline. The names
// match the artifact's results.csv rows.
func Nondet() Mode { return Mode{"non-det", qithread.Config{Mode: qithread.VirtualParallel}} }
func VanillaRR() Mode {
	return Mode{"no-hint", qithread.Config{Mode: qithread.RoundRobin}}
}
func ParrotSoft() Mode {
	return Mode{"no-pcs-hint", qithread.Config{Mode: qithread.RoundRobin, SoftBarriers: true}}
}
func ParrotPCS() Mode {
	return Mode{"hinted", qithread.Config{Mode: qithread.RoundRobin, SoftBarriers: true, PCS: true}}
}
func QiThread() Mode {
	return Mode{"all-policies", qithread.Config{Mode: qithread.RoundRobin, Policies: qithread.AllPolicies}}
}
func QiThreadWith(p qithread.Policy) Mode {
	return Mode{"policies:" + p.String(), qithread.Config{Mode: qithread.RoundRobin, Policies: p}}
}
func Kendo() Mode {
	return Mode{"logical-clock", qithread.Config{Mode: qithread.LogicalClock}}
}

// ModeByName returns the standard evaluation mode a tool's -mode argument
// names: each mode's own Name plus the aliases the command-line tools have
// always accepted for it.
func ModeByName(name string) (Mode, bool) {
	switch name {
	case "non-det", "nondet", "virtual-parallel":
		return Nondet(), true
	case "no-hint", "vanilla", "round-robin":
		return VanillaRR(), true
	case "no-pcs-hint", "parrot":
		return ParrotSoft(), true
	case "hinted", "parrot-pcs":
		return ParrotPCS(), true
	case "all-policies", "qithread":
		return QiThread(), true
	case "logical-clock", "kendo":
		return Kendo(), true
	}
	return Mode{}, false
}

// Runner measures programs.
type Runner struct {
	// Params sizes every execution (scale, input seed, thread override).
	Params workload.Params
	// Log, when non-nil, receives progress lines.
	Log io.Writer
}

func (r *Runner) logf(format string, args ...any) {
	if r.Log != nil {
		fmt.Fprintf(r.Log, format, args...)
	}
}

// Measure runs one program once under one mode and returns its virtual
// makespan expressed as a duration (1 work unit = 1ns). Virtual makespans are
// the critical-path model of parallel execution time (see the virtual-time
// notes in internal/core), so results reproduce the paper's parallelism
// effects on any host, including single-core machines. Every mode yields the
// same makespan every run, the non-det baseline too (it is VirtualParallel's
// native-cost model, not a Nondet run); only canneal and x264, which
// busy-wait on atomics, move between runs (DESIGN.md §4.14).
func (r *Runner) Measure(spec programs.Spec, mode Mode) time.Duration {
	rt := qithread.New(mode.Cfg)
	spec.Build(r.Params)(rt)
	return time.Duration(rt.VirtualMakespan())
}
