package explore

import (
	"strings"
	"testing"
	"time"
	"unicode/utf8"
	"unsafe"

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
