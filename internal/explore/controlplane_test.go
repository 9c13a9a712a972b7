package explore

import (
	"strings"
	"testing"
)

// TestControlplaneBaselines: all three registered controlplane scenarios pass
// under their default (unexplored) schedules — the seeded race is hidden, the
// way a production race hides until the wrong interleaving ships.
func TestControlplaneBaselines(t *testing.T) {
	for _, name := range []string{"controlplane", "controlplane-race", "controlplane-fixed"} {
		p := Lookup(name)
		if p == nil {
			t.Fatalf("program %q not registered", name)
		}
		res := RunForced(p, nil, DefaultWatchdog)
		if res.Outcome != OutcomeOK {
			t.Fatalf("%s baseline outcome %s (%s), want ok", name, res.Outcome, res.Err)
		}
	}
}

// TestControlplaneRaceFoundAndFixProven is the headline scenario end to end:
// exploration finds the seeded missing-recheck race within 400 runs,
// the minimized repro reproduces it 20/20, and the SAME schedule replayed
// against the fixed program runs clean with a divergent fingerprint — the
// race is gone, proven on the exact interleaving that failed.
func TestControlplaneRaceFoundAndFixProven(t *testing.T) {
	racy := Lookup("controlplane-race")
	fixed := Lookup("controlplane-fixed")
	s, err := NewSession(racy, t.TempDir(), DefaultWatchdog)
	if err != nil {
		t.Fatal(err)
	}
	s.Workers = 4
	if err := s.ExploreDPOR(400, 0); err != nil {
		t.Fatal(err)
	}
	repros := s.Repros()
	if len(repros) == 0 {
		t.Fatalf("no repro found in 400 runs (%d failures)", s.Failures())
	}
	events, choices, err := LoadRepro(repros[0])
	if err != nil {
		t.Fatal(err)
	}

	// The repro must reproduce the corruption 20/20 against the racy program.
	ref := ReplayRepro(racy, events, choices, DefaultWatchdog)
	if ref.Outcome != OutcomeAssertFail {
		t.Fatalf("repro replay outcome %s (%s), want assert-fail", ref.Outcome, ref.Err)
	}
	if !strings.Contains(ref.Err, "corrupted") {
		t.Fatalf("unexpected failure detail: %s", ref.Err)
	}
	for i := 1; i < 20; i++ {
		res := ReplayRepro(racy, events, choices, DefaultWatchdog)
		if res.Outcome != ref.Outcome || res.Fingerprint != ref.Fingerprint {
			t.Fatalf("repro replay %d diverged: outcome=%s fingerprint=%s (ref %s / %s)",
				i, res.Outcome, res.Fingerprint, ref.Outcome, ref.Fingerprint)
		}
	}

	// The fix is synchronization-neutral, so the racy schedule replays
	// structurally unchanged against the fixed program — and runs clean.
	fix := ReplayRepro(fixed, events, choices, DefaultWatchdog)
	if fix.Outcome != OutcomeOK {
		t.Fatalf("fixed program still fails under the racy schedule: %s (%s)", fix.Outcome, fix.Err)
	}
	if fix.Fingerprint == ref.Fingerprint {
		t.Fatal("fixed replay fingerprint identical to the racy one; the fix changed nothing observable")
	}
	for i := 1; i < 20; i++ {
		res := ReplayRepro(fixed, events, choices, DefaultWatchdog)
		if res.Outcome != OutcomeOK || res.Fingerprint != fix.Fingerprint {
			t.Fatalf("fixed replay %d diverged: outcome=%s fingerprint=%s", i, res.Outcome, res.Fingerprint)
		}
	}
}

// TestControlplaneHealthyReferences: the healthy scenario's policy variants
// run clean and report their reference fingerprints (the ground truth the
// registry ships for ingress-fed workloads).
func TestControlplaneHealthyReferences(t *testing.T) {
	p := Lookup("controlplane")
	if len(p.Variants) == 0 {
		t.Fatal("healthy controlplane program registers no variants")
	}
	for _, v := range p.Variants {
		res := RunVariant(p, v.Base, DefaultWatchdog)
		if res.Outcome != OutcomeOK {
			t.Fatalf("variant %s outcome %s (%s)", v.Name, res.Outcome, res.Err)
		}
		if res.Fingerprint == "" {
			t.Fatalf("variant %s produced no fingerprint", v.Name)
		}
	}
}
