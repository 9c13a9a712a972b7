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
//     the re-check of the cut catches the miss and keeps the full log.
//  3. A greedy pass then reverts every non-default decision inside the kept
//     prefix back to the default, keeping each reversion that still fails:
//     what remains is (close to) the minimal set of perturbed decisions.
//
// It returns the minimal prefix, the VERIFIED final result of running it
// (whose trace and decision log become the repro file), and the number of
// runs spent: the search's probes and the greedy pass's, judged by their
// outcome alone, and one traced run of the minimal prefix unless the last run
// that failed with it already carries a trace.
func Minimize(p *Program, failing Result, watchdog time.Duration) ([]core.Choice, Result, int) {
	failing.log = decisionsOf(failing.Choices)
	min, final, runs := minimize(p, failing, -1, watchdog)
	min, final, traced := traceRepro(p, failing, min, final, watchdog)
	final.Choices = choicesOf(final.log)
	return choicesOf(min), final, runs + traced
}

// minimize is Minimize on the decision log the search keeps, without the
// traced run. A cut >= 0 is a prefix length of failing.log already known to
// be the shortest failing one, and step 2's search is skipped: a DPOR
// failure's is the depth it was forced to, because every shorter cut of its
// log replays an expanded, so passing, ancestor, and the known cut replays
// the failing run itself. A cut < 0 searches.
//
// Every run that fails with min as its forced prefix is remembered — at a
// known cut, the failing run itself — and the last one is returned as the
// final result. Runs are deterministic, so its decision log is the one a
// traced run of min records, and a session can tell a duplicate repro from
// it before tracing anything.
//
// Every probe resolves about as many decisions as the failing run did, so
// each one's log is sized for len(failing.log) up front (runPath), not
// regrown from its prefix.
func minimize(p *Program, failing Result, cut int, watchdog time.Duration) ([]decision, Result, int) {
	full := failing.log
	runs := 0
	run := func(candidate []decision) (Result, bool) {
		runs++
		r := runPath(p, prefixFlip(candidate), len(full), watchdog, false)
		return r, r.Outcome == failing.Outcome
	}

	final := failing
	if cut < 0 {
		// Binary search the shortest failing cut of the full log.
		cut = sort.Search(len(full), func(k int) bool {
			_, fails := run(full[:k])
			return fails
		})
		r, fails := run(full[:cut])
		if fails {
			final = r
		} else {
			// Non-monotone failure boundary: keep the exact full log.
			cut = len(full)
		}
	}
	cut = min(cut, len(full)) // a log shorter than its forced prefix: a hand-edited frontier.txt
	min := append([]decision(nil), full[:cut]...)

	// Greedily revert perturbed decisions to the policy default.
	for i := range min {
		if min[i].index == min[i].def {
			continue
		}
		saved := min[i].index
		min[i].index = min[i].def
		if r, fails := run(min); fails {
			final = r
		} else {
			min[i].index = saved
		}
	}
	return min, final, runs
}

// traceRepro returns the traced run a repro file records for minimize's
// result, and the runs it made. A final result that carries a trace is its
// own; otherwise min is run once more, traced, and if that run passes, the
// full failing log, which reproduced by construction, is run traced instead:
// minimization must never lose the bug.
func traceRepro(p *Program, failing Result, min []decision, final Result, watchdog time.Duration) ([]decision, Result, int) {
	if final.Trace != nil {
		return min, final, 0
	}
	full := failing.log
	if r := runPath(p, prefixFlip(min), len(full), watchdog, true); r.Outcome == failing.Outcome {
		return min, r, 1
	}
	return full, runPath(p, prefixFlip(full), len(full), watchdog, true), 2
}
