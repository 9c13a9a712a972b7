package advisor

import (
	"qithread"
	"qithread/internal/policy"
	"qithread/internal/workload"
)

// TrialResult reports the empirical validation of a recommendation set —
// Pegasus's trial step: recommendations are only advice until a measurement
// confirms them.
type TrialResult struct {
	// Recommended is the policy set under trial.
	Recommended qithread.Policy
	// Stack describes the policy stack the tuned run executed through: the
	// round-robin base plus the recommended policies in canonical order. It
	// is built from Recommended and has counted nothing; Metrics holds the
	// tuned run's counters.
	Stack *policy.Stack
	// Metrics is the per-policy decision counter snapshot of the tuned run,
	// attributing the trial's speedup to the policies that earned it.
	Metrics []policy.Metrics
	// VanillaMakespan and TunedMakespan are virtual makespans without and
	// with the recommended policies.
	VanillaMakespan int64
	TunedMakespan   int64
}

// Improvement returns the speedup factor of the tuned configuration
// (>1 means the recommendations helped).
func (t TrialResult) Improvement() float64 {
	if t.TunedMakespan == 0 {
		return 0
	}
	return float64(t.VanillaMakespan) / float64(t.TunedMakespan)
}

// Helped reports whether the tuned configuration beat vanilla round robin by
// more than 10%, the paper's significance threshold.
func (t TrialResult) Helped() bool {
	return float64(t.TunedMakespan) < 0.9*float64(t.VanillaMakespan)
}

// AutoTune runs the full advisor pipeline on a program: record a vanilla
// round-robin schedule, analyze it, and trial the recommended policy set. The
// returned TrialResult carries the tuned run's stack and its per-policy
// decision metrics, closing the diagnose → configure → rerun loop.
func AutoTune(app workload.App) (recs []Recommendation, result TrialResult) {
	rec := qithread.New(qithread.Config{Mode: qithread.RoundRobin, Record: true})
	app(rec)
	recs = Analyze(rec.Trace())
	result.Recommended = Policies(recs)
	result.VanillaMakespan = rec.VirtualMakespan()

	tuned := qithread.New(qithread.Config{Mode: qithread.RoundRobin, Policies: result.Recommended})
	app(tuned)
	result.Stack = new(policy.Stack)
	result.Stack.Init(policy.RoundRobin, result.Recommended)
	result.TunedMakespan = tuned.VirtualMakespan()
	result.Metrics = tuned.Stats().PolicyMetrics
	return recs, result
}
