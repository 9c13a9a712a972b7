package harness

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"qithread"
	"qithread/internal/core"
	"qithread/internal/policy"
	"qithread/internal/programs"
	"qithread/internal/stats"
	"qithread/internal/trace"
	"qithread/internal/workload"
)

// Experiment is one row of the registry below: everything `qibench
// -experiment NAME` is. The arm declares its CSV schema here, once — header
// names the columns of the Table it returns, the first labels of them are
// text and the rest numeric, summary prints the aggregate lines under the
// table — and prints a title line followed by the table.
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

// Run executes the arm, printing to w, and returns the table it printed.
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
	{Name: "policies", Entry: "E4", Doc: "§5.2: the five policies enabled cumulatively; benefited/hurt per step",
		header: "program,no-hint_ms,+BoostBlocked_ms,+CreateAll_ms,+CSWhole_ms,+WakeAMAP_ms,+BranchedWake_ms",
		labels: 1, summary: policiesSummary, run: runPolicies},
	{Name: "scalability", Entry: "E6", Doc: "§5.3: five programs at 4, 8, 16 and 32 threads; max deviation",
		header: "program,threads,non-det_ms,no-pcs-hint_ms,no-pcs-hint_norm,all-policies_ms,all-policies_norm",
		labels: 1, summary: scalabilitySummary, run: runScalability},
	{Name: "stability", Entry: "E7", Doc: "§2: 8 pbzip2 inputs' schedules; distinct ones per mode",
		header: "mode,input,events,prefix,schedule",
		labels: 1, summary: stabilitySummary, run: runStability},
	{Name: "x264", Entry: "E5", Doc: "§5.2: x264 with BoostBlocked toggled",
		header: "mode,makespan_ms,norm",
		labels: 1, run: runX264},
	{Name: "ablation", Entry: "E10", Doc: "per program and policy: time with it only, with all but it",
		header: "program,policy,only,without",
		labels: 2, run: runAblation},
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
		NotInAll: "fixed size whatever -scale says, 30 MB of temporary files, host-dependent numbers; `make soak`, and `TestExperiments` at 8,000 events",
		header:   "requests,admitted,epochs,wall_ms,events,bin_bytes,text_bytes,bin_load_ms,text_load_ms,ckpts,ckpt_epoch,ckpt_bytes,heap_first_mb,heap_max_mb,heap_last_mb,heap_samples",
		summary:  soakSummary, run: runSoak},
}

// runFig8 is Figure 8 in the results.csv schema: each program's makespan
// under nondeterministic execution (the baseline), then its makespan and
// normalized time under vanilla round robin, Parrot without PCS hints (round
// robin + soft barriers), Parrot with PCS hints where the program has one to
// apply ("-" where not) and QiThread with all policies.
func runFig8(e *Experiment, w io.Writer, r *Runner, a Args) (*Table, error) {
	fmt.Fprintf(w, "=== Figure 8: normalized execution times (%d programs, scale %.2f) ===\n", len(a.Specs), r.Params.Scale)
	t := e.newTable()
	for _, spec := range a.Specs {
		base := r.Measure(spec, Nondet())
		cells := []any{spec.Name, spec.Suite, base}
		for _, m := range []Mode{VanillaRR(), ParrotSoft(), ParrotPCS(), QiThread()} {
			if m.Cfg.PCS && !spec.Hints.PCS {
				cells = append(cells, "-", "-")
				continue
			}
			d := r.Measure(spec, m)
			norm := stats.Normalized(d, base)
			cells = append(cells, d, ftoa(norm, 4))
			r.logf("%-28s %-22s %10v  %.2fx\n", spec.Name, m.Name, d, norm)
		}
		t.add(cells...)
	}
	t.Fprint(w)
	if a.Chart {
		fprintChart(w, t)
	}
	return t, nil
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

// runPolicies is the Section 5.2 incremental study: each program under
// vanilla round robin, then with the five policies enabled one at a time in
// the paper's order (BoostBlocked, CreateAll, CSWhole, WakeAMAP,
// BranchedWake), each step keeping the policies before it. A row holds one
// program's makespan at every step.
func runPolicies(e *Experiment, w io.Writer, r *Runner, a Args) (*Table, error) {
	fmt.Fprintf(w, "=== Section 5.2: per-policy effectiveness (%d programs, makespan as each policy is added) ===\n", len(a.Specs))
	t := e.newTable()
	for _, spec := range a.Specs {
		cells := []any{spec.Name, r.Measure(spec, VanillaRR())}
		var set qithread.Policy
		for _, name := range policy.Names() {
			p, _ := policy.SetForName(name)
			set |= p
			d := r.Measure(spec, QiThreadWith(set))
			cells = append(cells, d)
			r.logf("policy step +%-13s %-28s %v\n", name, spec.Name, d)
		}
		t.add(cells...)
	}
	t.Fprint(w)
	return t, nil
}

// policyShifts compares every step column of a policies table with the
// column before it: a program benefits from a step when its makespan drops
// below 90% of the previous step's and is hurt when it rises above 110% (the
// paper reports three such instances). It returns the step names and, per
// step, the benefited and hurt programs in name order.
func policyShifts(t *Table) (steps []string, benefited, hurt [][]string) {
	cols := t.cols[t.exp.labels:]
	for k := 1; k < len(cols); k++ {
		var b, h []string
		for _, row := range t.rows {
			p, d := float64(t.dur(row, cols[k-1])), float64(t.dur(row, cols[k]))
			switch {
			case p <= 0:
			case d < 0.90*p:
				b = append(b, row[0])
			case d > 1.10*p:
				h = append(h, row[0])
			}
		}
		sort.Strings(b)
		sort.Strings(h)
		steps = append(steps, strings.TrimSuffix(cols[k], "_ms"))
		benefited, hurt = append(benefited, b), append(hurt, h)
	}
	return steps, benefited, hurt
}

// policiesSummary prints, per step, how many programs it benefited and hurt
// and which.
func policiesSummary(w io.Writer, t *Table) {
	steps, benefited, hurt := policyShifts(t)
	for k, step := range steps {
		fmt.Fprintf(w, "%-14s benefited %3d programs, hurt %d\n", step, len(benefited[k]), len(hurt[k]))
		if len(benefited[k]) > 0 {
			fmt.Fprintf(w, "    benefited: %s\n", strings.Join(benefited[k], " "))
		}
		if len(hurt[k]) > 0 {
			fmt.Fprintf(w, "    hurt:      %s\n", strings.Join(hurt[k], " "))
		}
	}
}

// runScalability is Section 5.3: the five randomly selected programs of the
// paper at 4, 8, 16 and 32 threads under Parrot (w/o PCS) and QiThread, each
// normalized to nondeterministic execution at the same thread count.
func runScalability(e *Experiment, w io.Writer, r *Runner, _ Args) (*Table, error) {
	threadCounts := []int{4, 8, 16, 32}
	fmt.Fprintf(w, "=== Section 5.3: scalability (%v threads) ===\n", threadCounts)
	t := e.newTable()
	for _, name := range []string{"barnes", "bodytrack", "histogram", "convert_shear", "pbzip2_decompress"} {
		spec, _ := programs.Find(name)
		for _, tc := range threadCounts {
			sub := *r
			sub.Params.Threads = tc
			base := sub.Measure(spec, Nondet())
			cells := []any{name, tc, base}
			for _, m := range []Mode{ParrotSoft(), QiThread()} {
				d := sub.Measure(spec, m)
				cells = append(cells, d, ftoa(stats.Normalized(d, base), 4))
			}
			t.add(cells...)
			r.logf("scalability %-24s %2d threads done\n", name, tc)
		}
	}
	t.Fprint(w)
	return t, nil
}

// scalabilityDeviations returns, per program of a scalability table in row
// order, each configuration's maximum deviation from its mean normalized
// overhead across the thread counts — the paper's variation metric —
// computed from the makespan cells, which are exact.
func scalabilityDeviations(t *Table) (names []string, dev map[string][]float64) {
	norms := map[string]map[string][]float64{}
	for _, row := range t.rows {
		if norms[row[0]] == nil {
			names = append(names, row[0])
			norms[row[0]] = map[string][]float64{}
		}
		for _, m := range []string{ParrotSoft().Name, QiThread().Name} {
			norms[row[0]][m] = append(norms[row[0]][m], stats.Normalized(t.dur(row, m+"_ms"), t.dur(row, Nondet().Name+"_ms")))
		}
	}
	dev = map[string][]float64{}
	for _, name := range names {
		for m, ns := range norms[name] {
			dev[m] = append(dev[m], stats.MaxDeviationPct(ns))
		}
	}
	return names, dev
}

// scalabilitySummary prints every program's deviation per configuration and
// the worst of them.
func scalabilitySummary(w io.Writer, t *Table) {
	names, dev := scalabilityDeviations(t)
	modes := []string{ParrotSoft().Name, QiThread().Name}
	lines := [][]string{append([]string{"max deviation from mean"}, modes...)}
	worst := map[string]float64{}
	for i, name := range names {
		line := []string{name}
		for _, m := range modes {
			line = append(line, ftoa(dev[m][i], 0)+"%")
			worst[m] = max(worst[m], dev[m][i])
		}
		lines = append(lines, line)
	}
	fprintAligned(w, 1, lines)
	fmt.Fprintf(w, "max variation from mean overhead: qithread %.0f%%, parrot %.0f%%\n",
		worst[QiThread().Name], worst[ParrotSoft().Name])
}

// stabilityInputs builds n input variants with the same structure (block
// count) but different content: per-block compute amounts are perturbed the
// way different input files perturb instruction counts. Round-robin policies
// schedule all variants identically — their schedules depend only on the
// synchronization structure — while the logical-clock policy's schedules
// follow the perturbed instruction counts (Section 2: "minor input or code
// changes can perturb instruction counts and subsequently the schedules").
// Inputs of different sizes additionally differ in schedule length for every
// policy, so the controlled experiment varies content at fixed size.
func stabilityInputs(base workload.Params, n int) []workload.Params {
	out := make([]workload.Params, n)
	for i := range out {
		p := base
		p.InputSeed = base.InputSeed + uint64(i*131)
		p.InputSkew = int64(i)
		out[i] = p
	}
	return out
}

// runStability is the Section 2 comparison: how many distinct schedules each
// policy produces across eight pbzip2 inputs (CoreDet uses five different
// schedules to process eight different pbzip2 files; round robin uses one).
// A row is one input's schedule under one mode: its length, its common
// prefix with input 0's, and which of the mode's prefix-stability classes it
// falls in (1 is input 0's).
func runStability(e *Experiment, w io.Writer, r *Runner, _ Args) (*Table, error) {
	fmt.Fprintln(w, "=== Section 2: schedule stability across 8 inputs (pbzip2) ===")
	spec, _ := programs.Find("pbzip2_compress")
	inputs := stabilityInputs(workload.Params{Scale: r.Params.Scale, InputSeed: 7, Threads: r.Params.Threads}, 8)
	t := e.newTable()
	for _, mode := range []Mode{VanillaRR(), QiThread(), Kendo()} {
		cfg := mode.Cfg
		cfg.Record = true
		schedules := make([][]core.Event, len(inputs))
		for i, in := range inputs {
			rt := qithread.New(cfg)
			spec.Build(in)(rt)
			schedules[i] = rt.Trace()
		}
		for i, class := range trace.ScheduleClasses(schedules) {
			t.add(mode.Name, i, len(schedules[i]), trace.CommonPrefix(schedules[0], schedules[i]), class)
		}
	}
	t.Fprint(w)
	return t, nil
}

// stabilityDistinct counts, per mode of a stability table in row order, its
// inputs and its distinct schedules.
func stabilityDistinct(t *Table) (modes []string, inputs, distinct map[string]int) {
	classes := map[string]map[string]bool{}
	inputs = map[string]int{}
	for _, row := range t.rows {
		if classes[row[0]] == nil {
			modes = append(modes, row[0])
			classes[row[0]] = map[string]bool{}
		}
		inputs[row[0]]++
		classes[row[0]][row[t.col("schedule")]] = true
	}
	distinct = map[string]int{}
	for m, c := range classes {
		distinct[m] = len(c)
	}
	return modes, inputs, distinct
}

// stabilitySummary prints every mode's distinct schedule count.
func stabilitySummary(w io.Writer, t *Table) {
	modes, inputs, distinct := stabilityDistinct(t)
	lines := [][]string{{"mode", "inputs", "distinct schedules"}}
	for _, m := range modes {
		lines = append(lines, []string{m, fmt.Sprint(inputs[m]), fmt.Sprint(distinct[m])})
	}
	fprintAligned(w, 1, lines)
}

// runX264 is the x264 case of Section 5.2: its overhead under Parrot, under
// QiThread, and under QiThread without BoostBlocked, each normalized to
// nondeterministic execution (the first row).
func runX264(e *Experiment, w io.Writer, r *Runner, _ Args) (*Table, error) {
	fmt.Fprintln(w, "=== Section 5.2: x264 with BoostBlocked toggled ===")
	spec, _ := programs.Find("x264")
	base := r.Measure(spec, Nondet())
	t := e.newTable()
	t.add(Nondet().Name, base, ftoa(1, 4))
	for _, mode := range []Mode{ParrotSoft(), QiThread(), QiThreadWith(qithread.AllPolicies &^ qithread.BoostBlocked)} {
		d := r.Measure(spec, mode)
		t.add(mode.Name, d, ftoa(stats.Normalized(d, base), 4))
	}
	t.Fprint(w)
	return t, nil
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
