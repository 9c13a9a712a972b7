package harness

import (
	"testing"

	"qithread"
	"qithread/internal/core"
	"qithread/internal/programs"
)

// TestLeaseTraceNeutral runs the full trace-compatibility matrix twice — once
// with the scheduler's turn lease force-enabled (the default) and once
// force-disabled (core.DisableLeases) — and asserts every fingerprint is
// byte-identical. Together with TestTraceCompatibility (which checks the
// leased build against the pre-lease golden file) this pins the lease's
// trace-neutrality claim from both sides: leasing changes no schedule, no
// event count, no makespan, no program output, on any catalog program under
// any mode × policy configuration.
func TestLeaseTraceNeutral(t *testing.T) {
	deep := map[string]bool{}
	for _, p := range deepPrograms {
		deep[p] = true
	}
	base := baseConfigNames()
	checked, mismatched := 0, 0
	for _, spec := range programs.All() {
		for _, cc := range compatConfigs() {
			if !deep[spec.Name] && !base[cc.Name] {
				continue
			}
			onLine := fingerprintLine(spec, cc.Name, cc.Cfg)
			restore := core.DisableLeases()
			offLine := fingerprintLine(spec, cc.Name, cc.Cfg)
			restore()
			checked++
			if onLine != offLine {
				mismatched++
				if mismatched <= 10 {
					t.Errorf("lease changed the schedule of %s/%s:\n  leased:   %s\n  unleased: %s",
						spec.Name, cc.Name, onLine, offLine)
				}
			}
		}
	}
	if mismatched > 10 {
		t.Errorf("... and %d further divergences", mismatched-10)
	}
	if mismatched == 0 {
		t.Logf("%d schedules byte-identical with leasing on and off", checked)
	}
}

func fingerprintLine(spec programs.Spec, config string, cfg qithread.Config) string {
	hash, events, makespan, output := traceFingerprint(spec, cfg)
	return goldenLine(spec.Name, config, hash, events, makespan, output)
}
