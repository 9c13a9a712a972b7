package explore

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"
	"unicode/utf8"
	"unsafe"

	"qithread"
	"qithread/internal/core"
	"qithread/internal/trace"
)

const testWatchdog = 10 * time.Second

// TestBuggyBaselinePasses pins the seeded-bug contract: under its default
// BoostBlocked configuration the buggy program is correct — the bug must be
// invisible until exploration perturbs the schedule.
func TestBuggyBaselinePasses(t *testing.T) {
	p := Lookup("buggy")
	if p == nil {
		t.Fatal("buggy program not registered")
	}
	res := RunForced(p, nil, testWatchdog)
	if res.Outcome != OutcomeOK {
		t.Fatalf("baseline run: outcome %s (err %q), want ok", res.Outcome, res.Err)
	}
	if res.Output != 1 {
		t.Fatalf("baseline output %#x, want 1", res.Output)
	}
	if len(res.Choices) == 0 {
		t.Fatal("baseline run resolved no choice points; nothing to explore")
	}
}

// TestDPORFindsSeededBug is the tentpole's ground truth: a bounded DPOR
// exploration of the buggy program must surface the seeded atomicity bug and
// emit a minimized repro that replays to the same failure.
func TestDPORFindsSeededBug(t *testing.T) {
	p := Lookup("buggy")
	dir := t.TempDir()
	s, err := NewSession(p, dir, testWatchdog)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ExploreDPOR(400, 0); err != nil {
		t.Fatal(err)
	}
	t.Logf("runs=%d distinct=%d failures=%d frontier=%d", s.Runs(), s.Distinct(), s.Failures(), s.FrontierLen())
	if s.Failures() == 0 {
		t.Fatal("DPOR exploration found no failure within 400 runs")
	}
	repros := s.Repros()
	if len(repros) == 0 {
		t.Fatal("failures found but no repro emitted")
	}

	// The minimized repro must reproduce deterministically: 20/20 replays
	// with identical outcome and fingerprint.
	events, choices, err := LoadRepro(repros[0])
	if err != nil {
		t.Fatal(err)
	}
	first := ReplayRepro(p, events, choices, testWatchdog)
	if !first.Outcome.Failure() {
		t.Fatalf("repro replay: outcome %s, want a failure", first.Outcome)
	}
	if got, want := trace.Hash(first.Trace), trace.Hash(events); got != want {
		t.Fatalf("repro replay schedule hash %#x, want recorded %#x", got, want)
	}
	for i := 1; i < 20; i++ {
		r := ReplayRepro(p, events, choices, testWatchdog)
		if r.Outcome != first.Outcome || r.Fingerprint != first.Fingerprint {
			t.Fatalf("replay %d: outcome %s fp %s, want %s / %s", i, r.Outcome, r.Fingerprint, first.Outcome, first.Fingerprint)
		}
	}
}

// TestWakeraceRediscoversDivergences pins the other half of the ground
// truth: exploring the wakerace program from its NoPolicies baseline must
// reach the distinct fingerprints the paper's policies produce by
// construction.
func TestWakeraceRediscoversDivergences(t *testing.T) {
	p := Lookup("wakerace")
	if p == nil {
		t.Fatal("wakerace program not registered")
	}
	s, err := NewSession(p, "", testWatchdog)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ExploreDPOR(12000, 0); err != nil {
		t.Fatal(err)
	}
	reds := s.Rediscoveries()
	divergent, found := 0, 0
	for _, r := range reds {
		t.Logf("variant %s: divergent=%v found=%v fp=%s", r.Variant, r.Divergent, r.Found, r.Fingerprint)
		if r.Divergent {
			divergent++
			if r.Found {
				found++
			}
		}
	}
	if divergent < 2 {
		t.Fatalf("only %d policy variants diverge from baseline; the seed program is too tame", divergent)
	}
	if found < 2 {
		t.Fatalf("rediscovered %d of %d divergent policy fingerprints, want >= 2 (runs=%d distinct=%d)",
			found, divergent, s.Runs(), s.Distinct())
	}
}

// TestPCTFindsSeededBug checks the second strategy end to end: the seeded,
// d-bounded priority walk also surfaces the bug within a modest budget.
func TestPCTFindsSeededBug(t *testing.T) {
	p := Lookup("buggy")
	s, err := NewSession(p, "", testWatchdog)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ExplorePCT(200, 3, 0); err != nil {
		t.Fatal(err)
	}
	t.Logf("runs=%d distinct=%d failures=%d", s.Runs(), s.Distinct(), s.Failures())
	if s.Failures() == 0 {
		t.Fatal("PCT walk found no failure within 200 runs")
	}
}

// TestSessionResume pins frontier persistence: a budgeted exploration, run
// to exhaustion in two invocations over the same directory, must continue
// (not restart) — run ids keep counting and the frontier drains.
func TestSessionResume(t *testing.T) {
	p := Lookup("buggy")
	dir := t.TempDir()
	s1, err := NewSession(p, dir, testWatchdog)
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.ExploreDPOR(5, 0); err != nil {
		t.Fatal(err)
	}
	if s1.Runs() != 5 {
		t.Fatalf("first invocation ran %d, want 5", s1.Runs())
	}
	if s1.FrontierLen() == 0 {
		t.Fatal("budget 5 exhausted the frontier; cannot test resume")
	}
	s2, err := NewSession(p, dir, testWatchdog)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Runs() != 5 || s2.FrontierLen() != s1.FrontierLen() || s2.Distinct() != s1.Distinct() {
		t.Fatalf("resume loaded runs=%d frontier=%d distinct=%d, want %d/%d/%d",
			s2.Runs(), s2.FrontierLen(), s2.Distinct(), s1.Runs(), s1.FrontierLen(), s1.Distinct())
	}
	if err := s2.ExploreDPOR(5, 0); err != nil {
		t.Fatal(err)
	}
	if s2.Runs() != 10 {
		t.Fatalf("second invocation ended at %d total runs, want 10", s2.Runs())
	}
}

// TestDecisionIs16Bytes: a logged decision is half a core.Choice. Every run's
// log, every expanded run's log the frontier shares and every minimization
// probe's log is a slice of them.
func TestDecisionIs16Bytes(t *testing.T) {
	if got := unsafe.Sizeof(decision{}); got != 16 {
		t.Errorf("decision is %d bytes, want 16", got)
	}
}

// TestMinimizeProbesSizedOnce: every minimization probe of a failing
// controlplane-race run ends with the decision log it was allocated, sized
// for the failing run's log — not one regrown by doubling from its prefix.
func TestMinimizeProbesSizedOnce(t *testing.T) {
	p := Lookup("controlplane-race")
	failing := firstSingleFlipFailure(t, p)
	type caps struct{ sized, final int }
	var probes []caps
	testHookLogCap = func(sized, final int) { probes = append(probes, caps{sized, final}) }
	defer func() { testHookLogCap = nil }()
	_, final, runs := Minimize(p, failing, testWatchdog)
	if !final.Outcome.Failure() {
		t.Fatalf("minimized to %s, want a failure", final.Outcome)
	}
	if len(probes) != runs || runs == 0 {
		t.Fatalf("%d probes seen for %d minimization runs", len(probes), runs)
	}
	for i, c := range probes {
		if c.final != c.sized || c.sized < len(failing.Choices) {
			t.Errorf("probe %d: log sized %d for a %d-decision failing run, ended at capacity %d", i, c.sized, len(failing.Choices), c.final)
		}
	}
}

// TestMinimizationRunBudget counts every program execution of the 300-run
// serial controlplane-race search TestExploreOrderPinned pins: 300 explored
// schedules and the minimizations of their 10 failures. A DPOR failure starts
// its minimization at the depth it was forced to, so no run searches for its
// cut, and the greedy pass's last failing run is its final result: in memory
// the 10 minimizations cost 15 runs, and a results directory adds the one
// traced run per repro file. Searching every cut and tracing every final run
// cost 95. A failure that minimizes to an emitted repro's prefix gets no
// traced run: a 1,000-run serial search of buggy keeps 121 repros of its 210
// failures, and tracing all 210 cost 1,729.
func TestMinimizationRunBudget(t *testing.T) {
	for _, tc := range []struct {
		name, program    string
		dir              string
		budget, failures int
		want             int64
	}{
		{"in-memory", "controlplane-race", "", 300, 10, 315},
		{"results-dir", "controlplane-race", t.TempDir(), 300, 10, 325},
		{"results-dir-duplicates", "buggy", t.TempDir(), 1000, 210, 1640},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := *Lookup(tc.program)
			var runs atomic.Int64
			run := p.Run
			p.Run = func(rt *qithread.Runtime) uint64 {
				runs.Add(1)
				return run(rt)
			}
			s := exploreSerial(t, &p, tc.dir, tc.budget)
			if got := runs.Load(); got != tc.want || s.Failures() != tc.failures {
				t.Errorf("%d program runs for %d schedules and %d failures, want %d and %d", got, tc.budget, s.Failures(), tc.want, tc.failures)
			}
		})
	}
}

// TestKnownCutMatchesSearch: a DPOR failure's minimization starts at the depth
// it was forced to instead of binary-searching its log, because every shorter
// cut replays an expanded, passing ancestor. For every failure of a serial
// 1,000-run search the known cut and the search (cut -1) must end in the same
// prefix and the same final run. A frontier.txt written by hand breaks that
// ancestry: its entry forces a failing run's whole log, or that log and one
// decision more, so the known cut is longer than the search's. The repro it
// yields may be longer too, but it is still verified, and replays to the
// failure.
func TestKnownCutMatchesSearch(t *testing.T) {
	for _, program := range []string{"controlplane-race", "buggy"} {
		for _, hb := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/hb=%v", program, hb), func(t *testing.T) {
				knownCutMatchesSearch(t, Lookup(program), hb)
			})
		}
	}

	// The second hand-written log runs one decision past the program's: the
	// forced prefix is longer than the log of the run it forces.
	p := Lookup("controlplane-race")
	failing := firstSingleFlipFailure(t, p)
	full := decisionsOf(failing.Choices)
	for name, log := range map[string][]decision{
		"hand-written-frontier":      full,
		"hand-written-frontier-long": append(full[:len(full):len(full)], full[len(full)-1]),
	} {
		t.Run(name, func(t *testing.T) {
			last := len(log) - 1
			dir := t.TempDir()
			frontier := fmt.Sprintf("%s\nL %s\nF %d:%d\n", frontierHeader, formatPrefix(log), last, log[last].index)
			if err := os.WriteFile(filepath.Join(dir, frontierFile), []byte(frontier), 0o644); err != nil {
				t.Fatal(err)
			}
			var cuts []int
			testHookMinimize = func(res Result, cut int) { cuts = append(cuts, cut) }
			defer func() { testHookMinimize = nil }()
			s := exploreSerial(t, p, dir, 1)
			repros := s.Repros()
			if len(cuts) != 1 || cuts[0] != len(log) || len(repros) != 1 {
				t.Fatalf("minimized from cuts %v and wrote %d repros, want one from cut %d and one repro", cuts, len(repros), len(log))
			}
			events, choices, err := LoadRepro(repros[0])
			if err != nil {
				t.Fatal(err)
			}
			re := ReplayRepro(p, events, choices, testWatchdog)
			if re.Outcome != failing.Outcome || trace.Hash(re.Trace) != trace.Hash(events) {
				t.Fatalf("repro replays to %s (schedule hash %#x), want %s (%#x)", re.Outcome, trace.Hash(re.Trace), failing.Outcome, trace.Hash(events))
			}
		})
	}
}

// knownCutMatchesSearch minimizes every failure of a serial 1,000-run search
// of p three ways: by the search, which is the reference, and from its known
// cut with and without a repro to write. All three keep the same prefix and
// end in the same run; with a repro the final run carries the same trace.
// With hb the failing runs are traced, so a known-cut minimization that keeps
// no revert returns the failing run itself.
func knownCutMatchesSearch(t *testing.T, p *Program, hb bool) {
	type failure struct {
		res Result
		cut int
	}
	var failures []failure
	testHookMinimize = func(res Result, cut int) { failures = append(failures, failure{res, cut}) }
	defer func() { testHookMinimize = nil }()
	s, err := NewSession(p, "", testWatchdog)
	if err != nil {
		t.Fatal(err)
	}
	s.Workers, s.HB = 1, hb
	if err := s.ExploreDPOR(1000, 0); err != nil {
		t.Fatal(err)
	}
	testHookMinimize = nil
	if len(failures) == 0 {
		t.Fatal("1,000 runs minimized no failure")
	}
	for _, f := range failures {
		if f.cut < 0 {
			t.Fatalf("a DPOR failure was minimized from cut %d", f.cut)
		}
		searched, want, _ := minimize(p, f.res, -1, testWatchdog)
		searched, want, _ = traceRepro(p, f.res, searched, want, testWatchdog)
		for _, repro := range []bool{false, true} {
			known, got, _ := minimize(p, f.res, f.cut, testWatchdog)
			if repro {
				known, got, _ = traceRepro(p, f.res, known, got, testWatchdog)
			}
			if formatPrefix(known) != formatPrefix(searched) || formatPrefix(got.log) != formatPrefix(want.log) ||
				got.Outcome != want.Outcome || got.Fingerprint != want.Fingerprint || (repro && got.Hash() != want.Hash()) {
				t.Errorf("failure at cut %d of %d decisions, repro %v: known cut kept %d decisions and ended %s with %d, the search kept %d and ended %s with %d",
					f.cut, len(f.res.log), repro, len(known), got.Outcome, len(got.log), len(searched), want.Outcome, len(want.log))
			}
		}
	}
	t.Logf("%d failures minimized alike", len(failures))
}

// firstSingleFlipFailure returns the first failing run among the single-flip
// perturbations of p's default schedule.
func firstSingleFlipFailure(t *testing.T, p *Program) Result {
	t.Helper()
	base := RunForced(p, nil, testWatchdog)
	for i, d := range base.Choices {
		for alt := 0; alt < d.N; alt++ {
			if alt == d.Index {
				continue
			}
			prefix := append(append([]core.Choice(nil), base.Choices[:i]...), core.Choice{Kind: d.Kind, N: d.N, Def: d.Def, Index: alt})
			if res := RunForced(p, prefix, testWatchdog); res.Outcome.Failure() {
				return res
			}
		}
	}
	t.Fatalf("no single flip of %s's default schedule fails", p.Name)
	return Result{}
}

// TestCSVEscapeCutsOnRune: runs.csv's err column is cut at 200 bytes, and a
// multi-byte rune straddling the cut is dropped whole rather than split.
func TestCSVEscapeCutsOnRune(t *testing.T) {
	msg := strings.Repeat("a", 199) + "é…"
	got := csvEscape(msg)
	if !utf8.ValidString(got) {
		t.Fatalf("csvEscape(199 ASCII bytes + %q) = %q, not valid UTF-8", "é…", got[190:])
	}
	if want := strings.Repeat("a", 199) + "..."; got != want {
		t.Errorf("csvEscape cut to %q, want %q", got[190:], want[190:])
	}
	if got := csvEscape("a,b\nc"); got != "a;b\\nc" {
		t.Errorf("csvEscape(%q) = %q", "a,b\nc", got)
	}
}

// TestReproKeepsFailureText: runs.csv's err cell is cut at 200 bytes, so a
// deadlock's or a panic's repro keeps its whole failure text beside it, in a
// file of the same name ending .err — for a deadlock, the report with the
// domain's queues and last operations. The directory's reader lists only the
// schedules.
func TestReproKeepsFailureText(t *testing.T) {
	for _, c := range []struct {
		p          *Program
		name, want string
	}{
		{childDeadlockProgram, "repro-deadlock-000", "core: deterministic deadlock in domain 0: all threads blocked without timeout\n" +
			"  turn=6 holder=<nil> stack=round-robin\n  runQ: (empty)\n  wakeQ: (empty)\n" +
			"  waitQ[mutex:m#1]: T1(child)\n  waitQ[thread:child#2]: T0(main)\n" +
			"  last 6 of 6 ops, oldest first:\n" +
			"    turn=0 T0 mutex_init mutex:m#1 (run-queue grant)\n" +
			"    turn=1 T0 create thread:child#2 (kept)\n" +
			"    turn=2 T1 thread_begin (run-queue grant)\n" +
			"    turn=3 T0 join thread:child#2 blocks (run-queue grant)\n" +
			"    turn=4 T1 lock mutex:m#1 (run-queue grant)\n" +
			"    turn=5 T1 lock mutex:m#1 blocks (run-queue grant)\n"},
		{childPanicProgram, "repro-panic-000", "child boom"},
	} {
		dir := t.TempDir()
		s, err := NewSession(c.p, dir, testWatchdog)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.ExploreDPOR(4, 0); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(dir, c.name+".err"))
		if err != nil || string(got) != c.want {
			entries, _ := os.ReadDir(dir)
			t.Errorf("%s: %s.err reads %q (%v), want\n%s\n(the directory holds %v)", c.p.Name, c.name, got, err, c.want, entries)
		}
		res, err := ReadResults(dir)
		if err != nil || len(res.Repros) != 1 || res.Repros[0].Path != filepath.Join(dir, c.name+".sched") {
			t.Errorf("%s: ReadResults lists repros %+v (%v), want only %s.sched", c.p.Name, res.Repros, err, c.name)
		}
	}
}
