package harness

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"qithread"
	"qithread/internal/core"
	"qithread/internal/programs"
	"qithread/internal/stats"
	"qithread/internal/trace"
	"qithread/internal/workload"
)

// Experiment is one row of the registry below: everything `qibench
// -experiment NAME` is. A tabular arm declares its CSV schema here, once —
// header names the columns of the Table it returns, the first labels of them
// are text and the rest numeric, summary prints the aggregate lines under the
// table — and prints a title line followed by the table; a prose arm leaves
// the three empty, prints its own report and returns no table.
type Experiment struct {
	Name string
	// Entry is the EXPERIMENTS.md entry (or entries) recording its numbers.
	Entry string
	// Doc is the one line `qibench -h`, README.md and DESIGN.md §4.14 show.
	Doc string
	// NotInAll says why `-experiment all` skips the arm; empty when it runs.
	NotInAll string

	header  string
	labels  int
	summary func(w io.Writer, t *Table)
	run     func(e *Experiment, w io.Writer, r *Runner, a Args) (*Table, error)
}

// Args carries the qibench flags that select what an arm runs on.
type Args struct {
	// Specs is the -suite / -program selection of catalog programs.
	Specs []programs.Spec
	// Chart adds Figure 8's ASCII bars (-chart).
	Chart bool
	// SoakEvents sizes the soak (-soak-events).
	SoakEvents int
}

// Tabular reports whether the arm returns a table (what `qibench -o` needs).
func (e *Experiment) Tabular() bool { return e.header != "" }

// Run executes the arm, printing to w. The table is nil for a prose arm.
func (e *Experiment) Run(w io.Writer, r *Runner, a Args) (*Table, error) {
	return e.run(e, w, r, a)
}

// Experiments is the only list of experiment names: qibench's help text, its
// unknown-name error and its `all` loop iterate it, ReadCSV recognizes a file
// by the headers declared in it, and TestInventory holds README.md's command
// block and the DESIGN.md §4.14 table to it.
var Experiments = []Experiment{
	{Name: "fig8", Entry: "E2, E3", Doc: "Figure 8: normalized execution times + the §5.1 aggregates (-chart for ASCII bars)",
		header: "program,suite,non-det_ms,no-hint_ms,no-hint_norm,no-pcs-hint_ms,no-pcs-hint_norm,hinted_ms,hinted_norm,all-policies_ms,all-policies_norm",
		labels: 2, summary: fig8Summary, run: runFig8},
	{Name: "policies", Entry: "E4", Doc: "§5.2: per-policy effectiveness, the five policies enabled cumulatively", run: runPolicies},
	{Name: "scalability", Entry: "E6", Doc: "§5.3: five programs at 4, 8, 16 and 32 threads", run: runScalability},
	{Name: "stability", Entry: "E7", Doc: "§2: distinct schedules across 8 pbzip2 inputs", run: runStability},
	{Name: "x264", Entry: "E5", Doc: "§5.2: x264 with BoostBlocked toggled", run: runX264},
	{Name: "ablation", Entry: "E10", Doc: "single-policy and leave-one-out configurations", run: runAblation},
	{Name: "counters", Entry: "E24", Doc: "per-policy decision counters: which policy decided what, per program",
		NotInAll: "648 rows of per-program detail; policies and ablation carry the headline",
		header:   "program,policy,picks,wake_boosts,lease_extends,keep_turn_arms,dummy_syncs",
		labels:   2, summary: countersSummary, run: runCounters},
	{Name: "domains", Entry: "E15, E16", Doc: "scheduler domains: makespan vs shard count, and the boundary batch sweep",
		header: "workload,domains,batch,makespan_ms,wall_ms,speedup",
		labels: 1, run: runDomains},
	{Name: "ingress", Entry: "E17", Doc: "ingress admission: batch sweep, overload shedding, record/replay gate",
		header:  "max_batch,queue_cap,events,admitted,shed,epochs,wall_ms,admit_per_sec,ev_per_epoch,shed_pct",
		summary: ingressSummary, run: runIngress},
	{Name: "controlplane", Entry: "E22", Doc: "control-plane sweep with gateway and scheduler snapshots, replay gate",
		header:  "entities,controllers,shards,transitions,conflicts,requeues,installed,anomalies,admitted,shed,max_queue,turns,max_waiting,wall_ms,trans_per_ms",
		summary: controlPlaneSummary, run: runControlPlane},
	{Name: "soak", Entry: "E19", Doc: "million-event streaming record: flat heap, binary vs text, streamed replay (-soak-events)",
		NotInAll: "fixed size whatever -scale says, 30 MB of temporary files, host-dependent numbers; `make soak`, and `TestExperiments` at 8,000 events", run: runSoak},
}

// Figure8 measures every program in specs under the Figure 8 configurations:
// Parrot without PCS hints (round robin + soft barriers), Parrot with PCS
// hints where applicable, and QiThread with all policies, all normalized to
// nondeterministic execution. It returns the rows in catalog order.
func (r *Runner) Figure8(specs []programs.Spec) []Row {
	rows := make([]Row, 0, len(specs))
	for _, spec := range specs {
		modes := []Mode{VanillaRR(), ParrotSoft()}
		if spec.Hints.PCS {
			modes = append(modes, ParrotPCS())
		}
		modes = append(modes, QiThread())
		rows = append(rows, r.MeasureRow(spec, modes))
	}
	return rows
}

func runFig8(e *Experiment, w io.Writer, r *Runner, a Args) (*Table, error) {
	fmt.Fprintf(w, "=== Figure 8: normalized execution times (%d programs, scale %.2f) ===\n", len(a.Specs), r.Params.Scale)
	rows := r.Figure8(a.Specs)
	t := fig8Table(e, rows)
	t.Fprint(w)
	if a.Chart {
		FprintChart(w, rows, []Mode{VanillaRR(), ParrotSoft(), QiThread()}, 16)
	}
	return t, nil
}

// fig8Table lays Figure 8 rows out in the results.csv schema: the baseline
// makespan, then makespan and normalized time per configuration, "-" where a
// program was not measured under one (no PCS hint to apply).
func fig8Table(e *Experiment, rows []Row) *Table {
	t := e.newTable()
	for _, row := range rows {
		cells := []any{row.Program, row.Suite, row.Base}
		for _, m := range []Mode{VanillaRR(), ParrotSoft(), ParrotPCS(), QiThread()} {
			if d, ok := row.Times[m.Name]; ok {
				cells = append(cells, d, ftoa(row.Norm[m.Name], 4))
			} else {
				cells = append(cells, "-", "-")
			}
		}
		t.add(cells...)
	}
	return t
}

// section51 computes the headline comparisons of Section 5.1 from a Figure 8
// table: how many programs QiThread runs within 110% of Parrot w/o PCS, how
// many enjoy non-negligible (>10%) speedups, which exceed 110%, and which
// have more than 400% overhead under QiThread (normalized time > 5.0).
func section51(t *Table) (c stats.Counts, slower, highOverhead []string) {
	var ratios []float64
	for _, row := range t.rows {
		parrot := t.num(row, ParrotSoft().Name+"_ms")
		if parrot == 0 {
			continue
		}
		ratio := t.num(row, QiThread().Name+"_ms") / parrot
		ratios = append(ratios, ratio)
		if ratio > 1.10 {
			slower = append(slower, row[0])
		}
		if t.num(row, QiThread().Name+"_ms")/t.num(row, Nondet().Name+"_ms") > 5.0 {
			highOverhead = append(highOverhead, row[0])
		}
	}
	return stats.Compare(ratios), slower, highOverhead
}

// fig8Summary prints the per-suite mean normalized times and the Section 5.1
// aggregates.
func fig8Summary(w io.Writer, t *Table) {
	var suites []string
	parrot, qi := map[string][]float64{}, map[string][]float64{}
	for _, row := range t.rows {
		s := row[t.col("suite")]
		if _, seen := parrot[s]; !seen {
			suites = append(suites, s)
		}
		parrot[s] = append(parrot[s], t.num(row, ParrotSoft().Name+"_norm"))
		qi[s] = append(qi[s], t.num(row, QiThread().Name+"_norm"))
	}
	means := [][]string{{"suite mean", "parrot", "qithread"}}
	for _, s := range suites {
		means = append(means, []string{s, ftoa(stats.Mean(parrot[s]), 2), ftoa(stats.Mean(qi[s]), 2)})
	}
	fprintAligned(w, 1, means)
	c, slower, high := section51(t)
	fmt.Fprintf(w, "\nQiThread vs Parrot w/o PCS over %d programs:\n", c.Total)
	fmt.Fprintf(w, "  comparable (<=110%%): %d\n", c.Comparable)
	fmt.Fprintf(w, "  speedup    (<90%%):   %d\n", c.Speedup)
	fmt.Fprintf(w, "  slower     (>110%%):  %d  %v\n", c.Slower, slower)
	fmt.Fprintf(w, "  QiThread overhead >400%%: %d  %v\n", len(high), high)
}

// PolicyStep is one entry of the Section 5.2 incremental study.
type PolicyStep struct {
	Name string
	// Policies is the cumulative policy set of this step.
	Policies qithread.Policy
	// Benefited lists programs whose time dropped below 90% of the previous
	// step's time.
	Benefited []string
	// Hurt lists programs whose time rose above 110% of the previous
	// step's time (the paper reports three such instances).
	Hurt []string
}

// PolicySteps returns the enablement order of Section 5.2.
func PolicySteps() []PolicyStep {
	return []PolicyStep{
		{Name: "BoostBlocked", Policies: qithread.BoostBlocked},
		{Name: "CreateAll", Policies: qithread.BoostBlocked | qithread.CreateAll},
		{Name: "CSWhole", Policies: qithread.BoostBlocked | qithread.CreateAll | qithread.CSWhole},
		{Name: "WakeAMAP", Policies: qithread.BoostBlocked | qithread.CreateAll | qithread.CSWhole | qithread.WakeAMAP},
		{Name: "BranchedWake", Policies: qithread.AllPolicies},
	}
}

// PolicyEffectiveness applies the five policies cumulatively in the paper's
// order (BoostBlocked, CreateAll, CSWhole, WakeAMAP, BranchedWake), starting
// from vanilla round robin, and records which programs each step benefits
// (time < 90% of the previous configuration) and hurts (> 110%).
func (r *Runner) PolicyEffectiveness(specs []programs.Spec) []PolicyStep {
	steps := PolicySteps()
	prev := make(map[string]float64, len(specs)) // previous step's makespan
	for _, spec := range specs {
		prev[spec.Name] = float64(r.Measure(spec, VanillaRR()))
	}
	for si := range steps {
		mode := QiThreadWith(steps[si].Policies)
		for _, spec := range specs {
			t := float64(r.Measure(spec, mode))
			p := prev[spec.Name]
			if p > 0 {
				switch {
				case t < 0.90*p:
					steps[si].Benefited = append(steps[si].Benefited, spec.Name)
				case t > 1.10*p:
					steps[si].Hurt = append(steps[si].Hurt, spec.Name)
				}
			}
			prev[spec.Name] = t
			r.logf("policy step %-14s %-28s %10.0f (prev %10.0f)\n", steps[si].Name, spec.Name, t, p)
		}
		sort.Strings(steps[si].Benefited)
		sort.Strings(steps[si].Hurt)
	}
	return steps
}

func runPolicies(_ *Experiment, w io.Writer, r *Runner, a Args) (*Table, error) {
	fmt.Fprintf(w, "=== Section 5.2: per-policy effectiveness (%d programs) ===\n", len(a.Specs))
	for _, st := range r.PolicyEffectiveness(a.Specs) {
		fmt.Fprintf(w, "+%-13s benefited %3d programs, hurt %d\n", st.Name, len(st.Benefited), len(st.Hurt))
		if len(st.Benefited) > 0 {
			fmt.Fprintf(w, "    benefited: %s\n", strings.Join(st.Benefited, " "))
		}
		if len(st.Hurt) > 0 {
			fmt.Fprintf(w, "    hurt:      %s\n", strings.Join(st.Hurt, " "))
		}
	}
	return nil, nil
}

// ScalabilityResult holds one program's overheads across thread counts
// (Section 5.3).
type ScalabilityResult struct {
	Program string
	Threads []int
	// Norm[mode][k] is the normalized time at Threads[k].
	Norm map[string][]float64
	// MaxDeviationPct[mode] is the maximum deviation from the mean
	// normalized overhead across thread counts, the paper's variation
	// metric.
	MaxDeviationPct map[string]float64
}

// Scalability measures the given programs at each thread count under Parrot
// (w/o PCS) and QiThread, normalizing to nondeterministic execution at the
// same thread count. The paper's five scalability programs are barnes,
// bodytrack, histogram, convert_shear and pbzip2_decompress at 4–32 threads.
func (r *Runner) Scalability(names []string, threadCounts []int) []ScalabilityResult {
	modes := []Mode{ParrotSoft(), QiThread()}
	var out []ScalabilityResult
	for _, name := range names {
		spec, ok := programs.Find(name)
		if !ok {
			panic("harness: unknown program " + name)
		}
		res := ScalabilityResult{
			Program:         name,
			Threads:         threadCounts,
			Norm:            map[string][]float64{},
			MaxDeviationPct: map[string]float64{},
		}
		for _, tc := range threadCounts {
			sub := *r
			sub.Params.Threads = tc
			base := sub.Measure(spec, Nondet())
			for _, m := range modes {
				t := sub.Measure(spec, m)
				res.Norm[m.Name] = append(res.Norm[m.Name], stats.Normalized(t, base))
			}
			r.logf("scalability %-24s %2d threads done\n", name, tc)
		}
		for _, m := range modes {
			res.MaxDeviationPct[m.Name] = stats.MaxDeviationPct(res.Norm[m.Name])
		}
		out = append(out, res)
	}
	return out
}

func runScalability(_ *Experiment, w io.Writer, r *Runner, _ Args) (*Table, error) {
	// The five randomly selected programs of Section 5.3.
	names := []string{"barnes", "bodytrack", "histogram", "convert_shear", "pbzip2_decompress"}
	threadCounts := []int{4, 8, 16, 32}
	fmt.Fprintf(w, "=== Section 5.3: scalability (%v threads) ===\n", threadCounts)
	worst := map[string]float64{}
	for _, re := range r.Scalability(names, threadCounts) {
		fmt.Fprintf(w, "%-24s", re.Program)
		for _, mode := range []string{ParrotSoft().Name, QiThread().Name} {
			fmt.Fprintf(w, "  %s:", mode)
			for _, n := range re.Norm[mode] {
				fmt.Fprintf(w, " %.2f", n)
			}
			fmt.Fprintf(w, " (dev %.0f%%)", re.MaxDeviationPct[mode])
			worst[mode] = max(worst[mode], re.MaxDeviationPct[mode])
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "max variation from mean overhead: qithread %.0f%%, parrot %.0f%%\n",
		worst[QiThread().Name], worst[ParrotSoft().Name])
	return nil, nil
}

// StabilityResult reports how many distinct schedules a policy produced
// across a set of program inputs (Section 2: CoreDet uses five different
// schedules to process eight different pbzip2 files; round robin uses one).
type StabilityResult struct {
	Mode      string
	Inputs    int
	Distinct  int
	PrefixLen []int // common-prefix length of each input's schedule vs input 0
}

// Stability runs spec once per input under the given mode, recording
// schedules, and counts prefix-distinct schedules.
func (r *Runner) Stability(spec programs.Spec, mode Mode, inputs []workload.Params) StabilityResult {
	cfg := mode.Cfg
	cfg.Record = true
	var schedules [][]core.Event
	for _, in := range inputs {
		app := spec.Build(in)
		rt := qithread.New(cfg)
		app(rt)
		schedules = append(schedules, rt.Trace())
	}
	res := StabilityResult{Mode: mode.Name, Inputs: len(inputs), Distinct: trace.DistinctSchedules(schedules)}
	for _, s := range schedules {
		res.PrefixLen = append(res.PrefixLen, trace.CommonPrefix(schedules[0], s))
	}
	return res
}

// StabilityInputs builds n input variants with the same structure (block
// count) but different content: per-block compute amounts are perturbed the
// way different input files perturb instruction counts. Round-robin policies
// schedule all variants identically — their schedules depend only on the
// synchronization structure — while the logical-clock policy's schedules
// follow the perturbed instruction counts (Section 2: "minor input or code
// changes can perturb instruction counts and subsequently the schedules").
// Inputs of different sizes additionally differ in schedule length for every
// policy, so the controlled experiment varies content at fixed size.
func StabilityInputs(base workload.Params, n int) []workload.Params {
	out := make([]workload.Params, n)
	for i := range out {
		p := base
		p.InputSeed = base.InputSeed + uint64(i*131)
		p.InputSkew = int64(i)
		out[i] = p
	}
	return out
}

func runStability(_ *Experiment, w io.Writer, r *Runner, _ Args) (*Table, error) {
	fmt.Fprintln(w, "=== Section 2: schedule stability across 8 inputs (pbzip2) ===")
	spec, _ := programs.Find("pbzip2_compress")
	inputs := StabilityInputs(workload.Params{Scale: r.Params.Scale, InputSeed: 7, Threads: r.Params.Threads}, 8)
	for _, mode := range []Mode{VanillaRR(), QiThread(), Kendo()} {
		res := r.Stability(spec, mode, inputs)
		fmt.Fprintf(w, "%-22s distinct schedules: %d of %d inputs (prefix agreement vs input 0: %v)\n",
			mode.Name, res.Distinct, res.Inputs, res.PrefixLen)
	}
	return nil, nil
}

func runX264(_ *Experiment, w io.Writer, r *Runner, _ Args) (*Table, error) {
	fmt.Fprintln(w, "=== Section 5.2: x264 with BoostBlocked toggled ===")
	spec, _ := programs.Find("x264")
	base := r.Measure(spec, Nondet())
	for _, mode := range []Mode{ParrotSoft(), QiThread(), QiThreadWith(qithread.AllPolicies &^ qithread.BoostBlocked)} {
		n := stats.Normalized(r.Measure(spec, mode), base)
		fmt.Fprintf(w, "%-40s %.2fx (overhead %+.0f%%)\n", mode.Name, n, stats.OverheadPct(n))
	}
	return nil, nil
}

// runCounters runs each program once under the full QiThread stack and
// reports every policy's decision counters — which policy picked turns,
// boosted wake-ups, or retained the turn, and how often. This is the
// attribution view behind the Section 5.2 effectiveness numbers: a policy
// with zero decisions on a program cannot be the source of its speedup.
func runCounters(e *Experiment, w io.Writer, r *Runner, a Args) (*Table, error) {
	fmt.Fprintf(w, "=== Per-policy decision counters (all-policies stack, %d programs) ===\n", len(a.Specs))
	t := e.newTable()
	for _, spec := range a.Specs {
		rt := qithread.New(QiThread().Cfg)
		spec.Build(r.Params)(rt)
		for _, m := range rt.Stats().PolicyMetrics {
			if m.Policy == "" {
				break // the zero entries after the base policy
			}
			t.add(spec.Name, m.Policy, m.Picks, m.WakeBoosts, m.LeaseExtends, m.Arms, m.DummySyncs)
		}
	}
	t.Fprint(w)
	return t, nil
}

// countersSummary totals the counters per policy and names, per policy, the
// program where it made the most decisions.
func countersSummary(w io.Writer, t *Table) {
	type agg struct {
		sums     []float64
		programs int
		top      string
		topTotal float64
	}
	var order []string
	byPolicy := map[string]*agg{}
	counters := t.cols[t.exp.labels:]
	for _, row := range t.rows {
		policy := row[t.col("policy")]
		a := byPolicy[policy]
		if a == nil {
			a = &agg{sums: make([]float64, len(counters)), top: "-"}
			byPolicy[policy] = a
			order = append(order, policy)
		}
		total := 0.0
		for i, c := range counters {
			v := t.num(row, c)
			a.sums[i] += v
			total += v
		}
		a.programs++
		if total > a.topTotal {
			a.topTotal, a.top = total, row[0]
		}
	}
	lines := [][]string{append(append([]string{"policy total", "busiest program"}, counters...), "programs")}
	for _, policy := range order {
		a := byPolicy[policy]
		line := []string{policy, a.top}
		for _, s := range a.sums {
			line = append(line, ftoa(s, 0))
		}
		lines = append(lines, append(line, fmt.Sprint(a.programs)))
	}
	fprintAligned(w, 2, lines)
}
