package explore

import (
	"sort"
	"time"

	"qithread/internal/core"
)

// Minimize shrinks a failing run's forced prefix to a small repro:
//
//  1. The failing run's FULL decision log replaces the original prefix — it
//     reproduces the failure exactly (every decision forced, nothing left to
//     defaults), which makes the search below independent of how the failure
//     was first found (DPOR branch or PCT walk).
//  2. Binary search finds the shortest prefix length whose forced replay
//     still fails (decisions past the cut fall back to policy defaults). The
//     failure predicate is monotone for single-flip bugs — force fewer
//     perturbations and the default schedule passes — and where it is not,
//     the post-verification below catches the miss and falls back.
//  3. A greedy pass then reverts every non-default decision inside the kept
//     prefix back to the default, keeping each reversion that still fails:
//     what remains is (close to) the minimal set of perturbed decisions.
//
// It returns the minimal prefix, the VERIFIED final result of running it
// (whose trace and decision log become the repro file), and the number of
// verification runs spent. Each probe is one bounded run, so the whole
// minimization costs O(log n + flips) runs; only the verifying run is traced
// — the search probes are judged by their outcome alone.
func Minimize(p *Program, failing Result, watchdog time.Duration) ([]core.Choice, Result, int) {
	min, final, runs := minimize(p, decisionsOf(failing.Choices), failing.Outcome, watchdog)
	final.Choices = choicesOf(final.log)
	return choicesOf(min), final, runs
}

// minimize is Minimize on the decision log the search keeps. Every probe
// resolves about as many decisions as the failing run did, so each one's log
// is sized for len(full) up front (runPath), not regrown from its prefix.
func minimize(p *Program, full []decision, outcome Outcome, watchdog time.Duration) ([]decision, Result, int) {
	runs := 0
	run := func(candidate []decision, traced bool) (Result, bool) {
		runs++
		r := runPath(p, prefixFlip(candidate), len(full), watchdog, traced)
		return r, r.Outcome == outcome
	}
	probe := func(candidate []decision) bool {
		_, fails := run(candidate, false)
		return fails
	}

	// Binary search the shortest failing cut of the full log.
	k := sort.Search(len(full), func(k int) bool { return probe(full[:k]) })
	min := append([]decision(nil), full[:k]...)
	if !probe(min) {
		// Non-monotone failure boundary: keep the exact full log.
		min = append([]decision(nil), full...)
	}

	// Greedily revert perturbed decisions to the policy default.
	for i := range min {
		if min[i].index == min[i].def {
			continue
		}
		saved := min[i].index
		min[i].index = min[i].def
		if !probe(min) {
			min[i].index = saved
		}
	}

	final, fails := run(min, true)
	if !fails {
		// Minimization must never lose the bug: fall back to the full log,
		// which reproduced by construction.
		min = append([]decision(nil), full...)
		final, _ = run(min, true)
	}
	return min, final, runs
}
