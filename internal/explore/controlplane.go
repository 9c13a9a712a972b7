package explore

import (
	"qithread"
	"qithread/internal/workload/controlplane"
)

// The control-plane scenarios (internal/workload/controlplane): the
// production-shape workload of EXPERIMENTS.md E22, registered so qiexplore can
// search its schedule space and qireplay can re-execute minimized repros.
//
//   - "controlplane": the healthy scenario — two entities driven through the
//     install lifecycle by a fixed ingress log, reconciled by a
//     generation-rechecking controller pool. Correct under every schedule;
//     its variants pin the reference fingerprints of the paper's policy
//     configurations over an ingress-fed workload.
//   - "controlplane-race": the same store fed the duplicate-nudge log
//     (controlplane.RaceLog) and reconciled WITHOUT the generation re-check —
//     the seeded missing-recheck race. It passes under the default schedule
//     (the duplicate reconciles serially) and corrupts an entity's
//     transition chain only when exploration overlaps two reconciles of the
//     same entity.
//   - "controlplane-fixed": the SAME racy input with the re-check restored.
//     The fix is data-only (no synchronization structure changes), so the
//     racy repro schedule replays against it cleanly: qireplay -expect ok
//     proves the fix on the exact interleaving that failed.

func init() {
	Register(controlplaneProgram("controlplane", true, false))
	Register(controlplaneProgram("controlplane-race", false, true))
	Register(controlplaneProgram("controlplane-fixed", false, false))
}

func controlplaneProgram(name string, healthy, seededRace bool) *Program {
	p := &Program{
		// Like "buggy", the scenarios hide behind BoostBlocked: the wake-up
		// boost hands the queue mutex straight to the woken controller, which
		// keeps the duplicate's reconcile serial by default.
		Name:  name,
		Base:  rrConfig(qithread.BoostBlocked),
		Run:   controlplane.App(controlplane.ScenarioConfig(healthy, seededRace)),
		Check: controlplane.Check,
	}
	if healthy {
		p.Variants = []Variant{
			{Name: "no-policies", Base: rrConfig(qithread.NoPolicies)},
			{Name: "all-policies", Base: rrConfig(qithread.AllPolicies)},
		}
	}
	return p
}
