package main

import (
	"errors"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// tinyPlan runs every workload at the smallest size that still exercises
// every layer: one catalog pass, a few thousand events, a few dozen schedules.
func tinyPlan() plan {
	return plan{seed: defaultSeed, size: 0.01, trials: 2, minTrials: 2, tracedTrials: 2, setupReps: 2}
}

// TestSpecMatchesVocabulary keeps BENCHMARK.json and the Go metric table in
// step: same workloads, same metrics, same units, directions and bounds, all
// inside the limits the driver enforces.
func TestSpecMatchesVocabulary(t *testing.T) {
	spec, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", spec.Paths)
	}
	if spec.RunSeconds != refSeconds {
		t.Errorf("run_seconds = %d, trial sizes are calibrated for %d", spec.RunSeconds, refSeconds)
	}
	if len(spec.Workloads) != len(workloadDefs) {
		t.Fatalf("%d workloads declared, %d defined", len(spec.Workloads), len(workloadDefs))
	}
	seen := map[string]bool{}
	checkName := func(kind, name string) {
		t.Helper()
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q does not match %s", kind, name, nameRE)
		}
		if seen[name] {
			t.Errorf("%s name %q is used twice", kind, name)
		}
		seen[name] = true
	}
	for i, w := range spec.Workloads {
		checkName("workload", w.Name)
		if w != workloadDefs[i] {
			t.Errorf("workload %d: declared %+v, defined %+v", i, w, workloadDefs[i])
		}
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\r\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters (has %d)", w.Name, len(w.Why))
		}
		if newWorkload(w.Name) == nil {
			t.Errorf("workload %s is declared but cannot be run", w.Name)
		}
	}
	compare := func(kind string, declared, defined []metricDef) {
		t.Helper()
		if len(declared) != len(defined) {
			t.Fatalf("%d %s metrics declared, %d defined", len(declared), kind, len(defined))
		}
		for i, d := range declared {
			checkName(kind, d.Name)
			if !unitRE.MatchString(d.Unit) {
				t.Errorf("%s: unit %q does not match %s", d.Name, d.Unit, unitRE)
			}
			if d.Better != "higher" && d.Better != "lower" {
				t.Errorf("%s: better = %q", d.Name, d.Better)
			}
			want := defined[i]
			want.Moves = ""
			if d != want {
				t.Errorf("%s metric %d: declared %+v, defined %+v", kind, i, d, want)
			}
		}
	}
	compare("end-to-end", spec.EndToEnd, endToEnd)
	compare("per-layer", spec.PerLayer, perLayer)
	for _, d := range spec.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if d, ok := findMetric(spec.EndToEnd, "setup_s"); !ok || d.Unit != "s" || d.Better != "lower" {
		t.Errorf("setup_s must be declared with unit s, better lower (have %+v)", d)
	}
	for _, d := range perLayer {
		if d.Moves == "" {
			t.Errorf("%s: no statement of what it should move", d.Name)
		}
	}
}

// TestSmoke runs every workload and the traced run at a tiny size and checks
// what the benchmark promises about its own output.
func TestSmoke(t *testing.T) {
	tmpRoot = t.TempDir()
	saved := probeSize
	probeSize.calls, probeSize.dur = 2000, 5*time.Millisecond
	defer func() { probeSize = saved }()
	p := tinyPlan()

	// End to end: every declared metric once, with its unit, nothing failed.
	for _, def := range workloadDefs {
		rs, err := measure(def.Name, p)
		if err != nil {
			t.Fatal(err)
		}
		if len(rs.errs) > 0 || rs.total.failed != 0 || rs.total.ops == 0 {
			t.Errorf("%s: ops=%d failed=%d errs=%v", def.Name, rs.total.ops, rs.total.failed, rs.errs)
		}
		if rs.trials != p.trials {
			t.Errorf("%s: ran %d trials, want %d", def.Name, rs.trials, p.trials)
		}
		m := endToEndMetrics(&rs)
		checkEmitted(t, def.Name, m, endToEnd)
	}

	// Traced: every per-layer metric once, spans well formed. The replay
	// workload's trial check is the record → replay fingerprint equality.
	led, err := traceAll("replay", p)
	if err != nil {
		t.Fatal(err)
	}
	if led.failed != 0 || len(led.errs) > 0 {
		t.Errorf("traced run: failed=%d errs=%v", led.failed, led.errs)
	}
	checkEmitted(t, "traced", led.metrics, perLayer)
	for name, tr := range led.runs {
		if err := checkSpans(tr.spans); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if tr.tot.count["trial"] != p.tracedTrials {
			t.Errorf("%s: %d trial spans, want %d", name, tr.tot.count["trial"], p.tracedTrials)
		}
		for span, self := range tr.tot.self {
			if self < 0 {
				t.Errorf("%s: span %s has negative self time %d", name, span, self)
			}
		}
		known := map[string]bool{}
		for _, n := range spanNames {
			known[n] = true
		}
		for span := range tr.tot.count {
			if !known[span] {
				t.Errorf("%s: span name %q is not in spanNames", name, span)
			}
		}
	}
	rp := led.runs["replay"].w.(*replayWorkload)
	if rp.recorded == 0 || len(rp.fp.DomainHashes) != serverShards+1 {
		t.Errorf("replay: recorded %d events, fingerprint %v", rp.recorded, rp.fp)
	}
	led.close()
}

func checkEmitted(t *testing.T, what string, m *metricSet, defs []metricDef) {
	t.Helper()
	if missing := m.missing(); len(missing) > 0 {
		t.Errorf("%s: metrics not emitted: %v", what, missing)
	}
	if len(m.values) != len(defs) || len(m.order) != len(defs) {
		t.Errorf("%s: %d metrics emitted, %d declared", what, len(m.values), len(defs))
	}
	for name, v := range m.values {
		d, ok := findMetric(defs, name)
		if !ok || v.Unit == "" || v.Unit != d.Unit {
			t.Errorf("%s: metric %s emitted with unit %q, declared %q", what, name, v.Unit, d.Unit)
		}
		if v.Value != v.Value {
			t.Errorf("%s: metric %s is NaN", what, name)
		}
	}
}

// TestSelfTime pins the self-time definition on a hand-built tree: children
// of concurrent goroutines overlap, and coverage is their union clipped to
// the parent.
func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "trial", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 50},
		{ID: 3, Parent: 1, Name: "a", Start: 40, End: 70},  // overlaps span 2
		{ID: 4, Parent: 1, Name: "b", Start: 90, End: 120}, // sticks out of the parent
		{ID: 5, Parent: 2, Name: "c", Start: 20, End: 30},
	}
	if err := checkSpans(spans); err != nil {
		t.Fatal(err)
	}
	tot := totals(spans)
	if got := tot.self["trial"]; got != 100-(60+10) {
		t.Errorf("trial self = %d, want 30", got)
	}
	if got := tot.self["a"]; got != (40-10)+30 {
		t.Errorf("a self = %d, want 60", got)
	}
	if err := checkSpans([]span{{ID: 1, Parent: 7, Name: "x"}}); err == nil {
		t.Error("orphan parent not detected")
	}
}

// flakyWorkload fails trial 1 as a whole and 3 ops of trial 2.
type flakyWorkload struct{}

func (flakyWorkload) name() string                { return "flaky" }
func (flakyWorkload) setup(uint64, float64) error { return nil }
func (flakyWorkload) close()                      {}
func (flakyWorkload) trial(tc trialCtx) (counts, time.Duration, error) {
	c := counts{ops: 10}
	switch tc.id {
	case 1:
		return c, time.Millisecond, errors.New("fingerprint mismatch")
	case 2:
		c.failed = 3
		return c, time.Millisecond, opFailures{errors.New("3 checksums differ")}
	}
	return c, time.Millisecond, nil
}

// TestFailureAccounting: a trial whose check fails counts all its ops as
// failed, op-by-op failures count as reported, and the run goes on so that
// fail_share covers every trial.
func TestFailureAccounting(t *testing.T) {
	rs := runStats{workload: "flaky"}
	rs.timeTrials(flakyWorkload{}, 4, 0, 0, nil)
	if rs.trials != 4 || rs.total.ops != 40 || rs.total.failed != 13 || len(rs.errs) != 2 {
		t.Fatalf("trials=%d ops=%d failed=%d errs=%v, want 4 trials, 40 ops, 13 failed, 2 errors", rs.trials, rs.total.ops, rs.total.failed, rs.errs)
	}
	if got := endToEndMetrics(&rs).values["ok_share"].Value; got != 1-13.0/40 {
		t.Errorf("ok_share = %g, want %g", got, 1-13.0/40)
	}
}
