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
	full := failing.Choices
	runs := 0
	sameFailure := func(r Result) bool {
		return r.Outcome == failing.Outcome
	}
	run := func(candidate []core.Choice, traced bool) (Result, bool) {
		runs++
		r := runPath(p, prefixFlip(candidate), watchdog, traced)
		return r, sameFailure(r)
	}
	probe := func(candidate []core.Choice) bool {
		_, fails := run(candidate, false)
		return fails
	}

	// Binary search the shortest failing cut of the full log.
	k := sort.Search(len(full), func(k int) bool { return probe(full[:k]) })
	min := append([]core.Choice(nil), full[:k]...)
	if !probe(min) {
		// Non-monotone failure boundary: keep the exact full log.
		min = append([]core.Choice(nil), full...)
	}

	// Greedily revert perturbed decisions to the policy default.
	for i := range min {
		if min[i].Index == min[i].Def {
			continue
		}
		saved := min[i].Index
		min[i].Index = min[i].Def
		if !probe(min) {
			min[i].Index = saved
		}
	}

	final, fails := run(min, true)
	if !fails {
		// Minimization must never lose the bug: fall back to the full log,
		// which reproduced by construction.
		min = append([]core.Choice(nil), full...)
		final, _ = run(min, true)
	}
	return min, final, runs
}
