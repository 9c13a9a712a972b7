package explore

import (
	"bytes"
	"testing"
	"testing/quick"
	"time"

	"qithread"
	"qithread/internal/trace"
)

// TestChoiceDeterminismQuick is the choice-point determinism property: the
// explored schedule is a function of (program, decision sequence) and nothing
// else. For random seeds, a PCT walk's recorded decision log, replayed as a
// forced prefix, must reproduce a byte-identical schedule file and an
// identical fingerprint — under both the round-robin all-policies
// configuration and the logical-clock (Kendo-style) mode. Exploration is
// meaningless without this: a frontier prefix that did not pin the schedule
// would make every "new fingerprint" unreproducible.
func TestChoiceDeterminismQuick(t *testing.T) {
	bases := map[string]func() qithread.Config{
		"rr-all-policies": func() qithread.Config {
			return qithread.Config{Mode: qithread.RoundRobin, Policies: qithread.AllPolicies}
		},
		"logical-clock": func() qithread.Config {
			return qithread.Config{Mode: qithread.LogicalClock, Policies: qithread.AllPolicies}
		},
	}
	orig := Lookup("wakerace")
	if orig == nil {
		t.Fatal("wakerace program not registered")
	}
	for name, base := range bases {
		base := base
		t.Run(name, func(t *testing.T) {
			p := &Program{Name: orig.Name, Base: base, Run: orig.Run, Check: orig.Check}
			prop := func(seed uint64, d uint8) bool {
				// A seeded priority walk perturbs every choice kind; its
				// decision log is the complete forced prefix of the run.
				walk := newPCTChooser(seed, int(d%4)+1, 64)
				first := runOnce(p, nil, walk, 10*time.Second, new(eventLog))
				first.Choices = choicesOf(walk.Log())
				if first.Outcome != OutcomeOK {
					t.Fatalf("seed %#x: wakerace is correct under every schedule, got %s (%s)", seed, first.Outcome, first.Err)
				}
				second := RunForced(p, first.Choices, 10*time.Second)
				if second.Fingerprint != first.Fingerprint {
					t.Logf("seed %#x: fingerprint %s, want %s", seed, second.Fingerprint, first.Fingerprint)
					return false
				}
				var a, b bytes.Buffer
				if err := trace.SaveExplored(&a, first.Trace, first.Choices); err != nil {
					t.Fatal(err)
				}
				if err := trace.SaveExplored(&b, second.Trace, second.Choices); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(a.Bytes(), b.Bytes()) {
					t.Logf("seed %#x: schedule files differ (%d vs %d bytes)", seed, a.Len(), b.Len())
					return false
				}
				return true
			}
			if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
				t.Fatal(err)
			}
		})
	}
}
