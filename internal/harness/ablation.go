package harness

import (
	"fmt"
	"io"

	"qithread/internal/policy"
	"qithread/internal/programs"
	"qithread/internal/stats"
)

// runAblation measures each program under every single-policy and every
// leave-one-out configuration, quantifying each policy's isolated
// contribution and its marginal contribution to the default configuration —
// the ablation the paper's Section 5.2 approximates with its cumulative
// study. A program's first row is policy "none": only no policy is vanilla
// round robin, all but none is the all-policies default. Cells are times
// normalized to nondeterministic execution.
//
// It ablates the selected programs, or — when the selection is a whole suite
// or the catalog — one representative program per policy target: a
// producer-consumer (WakeAMAP), a create loop (CreateAll), a lock-heavy task
// queue (CSWhole), an OpenMP program (BranchedWake/BoostBlocked), and the
// vips pathology (nothing helps).
func runAblation(e *Experiment, w io.Writer, r *Runner, a Args) (*Table, error) {
	specs := a.Specs
	if len(specs) > 8 {
		specs = nil
		for _, name := range []string{"pbzip2_compress", "histogram-pthread", "pfscan", "convert_blur", "vips"} {
			s, _ := programs.Find(name)
			specs = append(specs, s)
		}
	}
	fmt.Fprintf(w, "=== Ablation: normalized time with ONLY the policy / with all policies EXCEPT it (%d programs) ===\n", len(specs))
	t := e.newTable()
	for _, spec := range specs {
		base := r.Measure(spec, Nondet())
		norm := func(m Mode) string { return ftoa(stats.Normalized(r.Measure(spec, m), base), 4) }
		t.add(spec.Name, policy.NoPolicies, norm(VanillaRR()), norm(QiThread()))
		for _, name := range policy.Names() {
			p, _ := policy.SetForName(name)
			only, without := norm(QiThreadWith(p)), norm(QiThreadWith(policy.AllPolicies&^p))
			t.add(spec.Name, name, only, without)
			r.logf("ablation %-24s %-14s only %s without %s\n", spec.Name, name, only, without)
		}
	}
	t.Fprint(w)
	return t, nil
}
