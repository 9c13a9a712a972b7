package explore

import (
	"testing"
	"time"

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
