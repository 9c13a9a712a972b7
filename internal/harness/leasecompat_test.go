package harness

import (
	"runtime"
	"testing"

	"qithread"
	"qithread/internal/programs"
)

// adHocSyncPrograms are the catalog programs built on ad-hoc busy-wait
// synchronization (workload.adHocBarrier / adHocFlag): a waiter polls an
// atomic the peer stores OUTSIDE any scheduled operation. Hosted, the peer
// runs only when the waiter yields the turn, so the poll loop's iteration
// count is reproducible at any GOMAXPROCS. On the goroutine path — PCS
// configurations — it is only at GOMAXPROCS 1: with real parallelism the
// store lands at a wall-clock-dependent point in the waiter's yield loop, in
// the seed build exactly as much as with leasing; the races are in the
// modeled programs (the paper's sched_yield patch makes the loops
// scheduler-visible, not schedule-ordered), not in the turn mechanism. Their
// PCS configurations are therefore excluded from cross-run schedule
// comparisons when this test runs at -cpu > 1; everything else stays covered.
var adHocSyncPrograms = map[string]bool{"canneal": true, "x264": true}

// TestLeaseTraceNeutral runs the full trace-compatibility matrix twice — once
// with the scheduler's turn lease force-enabled (the default) and once
// force-disabled (Config.NoTurnLease) — and asserts every fingerprint is
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
			if cc.Cfg.PCS && adHocSyncPrograms[spec.Name] && runtime.GOMAXPROCS(0) > 1 {
				continue
			}
			off := cc.Cfg
			off.NoTurnLease = true
			onLine := fingerprintLine(spec, cc.Name, cc.Cfg)
			offLine := fingerprintLine(spec, cc.Name, off)
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
