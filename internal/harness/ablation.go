package harness

import (
	"fmt"
	"io"

	"qithread/internal/policy"
	"qithread/internal/programs"
	"qithread/internal/stats"
)

// AblationRow reports one program's normalized time under single-policy and
// leave-one-out configurations, quantifying each policy's isolated
// contribution and its marginal contribution to the default configuration —
// the ablation the paper's Section 5.2 approximates with its cumulative
// study.
type AblationRow struct {
	Program string
	// Vanilla and AllPolicies are normalized times (baseline = 1.0).
	Vanilla     float64
	AllPolicies float64
	// Only[p] is the normalized time with policy p alone.
	Only map[string]float64
	// Without[p] is the normalized time with every policy except p.
	Without map[string]float64
}

// Ablation measures each program under vanilla round robin, the all-policies
// default, each policy alone, and each leave-one-out configuration.
func (r *Runner) Ablation(specs []programs.Spec) []AblationRow {
	rows := make([]AblationRow, 0, len(specs))
	for _, spec := range specs {
		base := r.Measure(spec, Nondet())
		row := AblationRow{
			Program:     spec.Name,
			Vanilla:     stats.Normalized(r.Measure(spec, VanillaRR()), base),
			AllPolicies: stats.Normalized(r.Measure(spec, QiThread()), base),
			Only:        map[string]float64{},
			Without:     map[string]float64{},
		}
		for _, name := range policy.Names() {
			p, _ := policy.SetForName(name)
			only := QiThreadWith(p)
			without := QiThreadWith(policy.AllPolicies &^ p)
			row.Only[name] = stats.Normalized(r.Measure(spec, only), base)
			row.Without[name] = stats.Normalized(r.Measure(spec, without), base)
			r.logf("ablation %-24s %-14s only %.2f without %.2f\n", spec.Name, name, row.Only[name], row.Without[name])
		}
		rows = append(rows, row)
	}
	return rows
}

// runAblation ablates the selected programs, or — when the selection is a
// whole suite or the catalog — one representative program per policy target:
// a producer-consumer (WakeAMAP), a create loop (CreateAll), a lock-heavy task
// queue (CSWhole), an OpenMP program (BranchedWake/BoostBlocked), and the
// vips pathology (nothing helps).
func runAblation(_ *Experiment, w io.Writer, r *Runner, a Args) (*Table, error) {
	specs := a.Specs
	if len(specs) > 8 {
		specs = nil
		for _, name := range []string{"pbzip2_compress", "histogram-pthread", "pfscan", "convert_blur", "vips"} {
			s, _ := programs.Find(name)
			specs = append(specs, s)
		}
	}
	fmt.Fprintf(w, "=== Ablation: single-policy and leave-one-out configurations (%d programs) ===\n", len(specs))
	fmt.Fprintln(w, "(each cell: normalized time with ONLY that policy / with all policies EXCEPT it)")
	FprintAblation(w, r.Ablation(specs))
	return nil, nil
}

// FprintAblation renders ablation rows as a table.
func FprintAblation(w io.Writer, rows []AblationRow) {
	fmt.Fprintf(w, "%-24s %8s %8s", "program", "vanilla", "all")
	for _, name := range policy.Names() {
		fmt.Fprintf(w, " %13s", "only/-"+abbrev(name))
	}
	fmt.Fprintln(w)
	for _, row := range rows {
		fmt.Fprintf(w, "%-24s %8.2f %8.2f", row.Program, row.Vanilla, row.AllPolicies)
		for _, name := range policy.Names() {
			fmt.Fprintf(w, " %6.2f/%6.2f", row.Only[name], row.Without[name])
		}
		fmt.Fprintln(w)
	}
}

func abbrev(name string) string {
	switch name {
	case "BoostBlocked":
		return "BB"
	case "CreateAll":
		return "CA"
	case "CSWhole":
		return "CSW"
	case "WakeAMAP":
		return "WAM"
	case "BranchedWake":
		return "BW"
	}
	return name
}
