package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"qithread"
	"qithread/internal/core"
	"qithread/internal/explore"
)

// exploreBudget is the number of schedules one trial explores at size 1.
const exploreBudget = 1750

// exploreProgram is the registered program the bug-finding loop searches.
const exploreProgram = "controlplane-race"

// exploreWorkload is the bug-finding loop: each trial opens a fresh in-memory
// session on the seeded control-plane race with two workers and explores a
// fixed budget of schedules, minimization of every new failure included, as
// cmd/qiexplore does. One op is one schedule explored.
//
// The work is thousands of short runtime constructions and control-plane
// executions under a Chooser: construction cost, control-plane allocations,
// chooser-consulted turn grants and the search engine dominate, and
// throughput scales with workers, not with handoff latency. The program's
// input is fixed by its registration, so the seed does not reach it.
type exploreWorkload struct {
	base    *explore.Program
	budget  int
	workers int
	// minimizeWall and minimizeRuns describe the set-up's one direct
	// explore.Minimize call (the explore.minimize_* ledger rows).
	minimizeWall time.Duration
	minimizeRuns int
}

func (w *exploreWorkload) name() string { return "explore" }

func lookupExploreProgram() (*explore.Program, error) {
	if p := explore.Lookup(exploreProgram); p != nil {
		return p, nil
	}
	return nil, fmt.Errorf("program %s is not registered", exploreProgram)
}

// findFailure walks the single-flip perturbations of the default schedule in
// the explorer's own branch order until one fails.
func findFailure(p *explore.Program) (explore.Result, error) {
	base := explore.RunForced(p, nil, explore.DefaultWatchdog)
	if base.Outcome != explore.OutcomeOK {
		return base, fmt.Errorf("default schedule is %s, want ok (the race must hide behind it)", base.Outcome)
	}
	for i, d := range base.Choices {
		for alt := 0; alt < d.N; alt++ {
			if alt == d.Index {
				continue
			}
			prefix := append(append([]core.Choice(nil), base.Choices[:i]...),
				core.Choice{Kind: d.Kind, N: d.N, Def: d.Def, Index: alt})
			if res := explore.RunForced(p, prefix, explore.DefaultWatchdog); res.Outcome.Failure() {
				return res, nil
			}
		}
	}
	return base, fmt.Errorf("no single-flip schedule of %s fails", p.Name)
}

func (w *exploreWorkload) setup(seed uint64, size float64) error {
	p, err := lookupExploreProgram()
	if err != nil {
		return err
	}
	*w = exploreWorkload{base: p, budget: scaled(exploreBudget, size), workers: loadGoroutines()}

	// The seeded bug must be findable, minimizable and replayable: the repro
	// (minimized trace + decision log) re-executes to the same outcome and
	// fingerprint, which is what qireplay does with a repro file.
	failing, err := findFailure(p)
	if err != nil {
		return err
	}
	t0 := time.Now()
	_, final, runs := explore.Minimize(p, failing, explore.DefaultWatchdog)
	w.minimizeWall, w.minimizeRuns = time.Since(t0), runs
	if !final.Outcome.Failure() {
		return fmt.Errorf("minimized schedule is %s, want a failure", final.Outcome)
	}
	re := explore.ReplayRepro(p, final.Trace, final.Choices, explore.DefaultWatchdog)
	if re.Outcome != final.Outcome || re.Fingerprint != final.Fingerprint {
		return fmt.Errorf("repro replays to %s [%s], original was %s [%s]", re.Outcome, re.Fingerprint, final.Outcome, final.Fingerprint)
	}
	return nil
}

func (w *exploreWorkload) close() {}

// runTally is what the wrapped Program.Run adds up over one session.
type runTally struct {
	runs, vtime, syncOps, turns, leaseExtends, handoffs, threads atomic.Int64
}

// wrapped returns a copy of the program whose Run reads each runtime's
// counters after the run and, in the traced run, records an explore.run span.
func (w *exploreWorkload) wrapped(tally *runTally, tc trialCtx, session int) *explore.Program {
	p := *w.base
	run := w.base.Run
	p.Run = func(rt *qithread.Runtime) uint64 {
		sp := tc.rec.begin("explore.run", session, tc.id)
		out := run(rt)
		tc.rec.end(sp)
		st := rt.Stats()
		tally.runs.Add(1)
		tally.vtime.Add(rt.VirtualMakespan())
		tally.syncOps.Add(st.Ops)
		tally.turns.Add(st.Turns)
		tally.leaseExtends.Add(st.LeaseExtends)
		tally.handoffs.Add(st.Handoffs)
		tally.threads.Add(rt.ThreadsCreated())
		return out
	}
	return &p
}

func (w *exploreWorkload) trial(tc trialCtx) (counts, time.Duration, error) {
	var c counts
	c.handoffsExact = true
	var tally runTally
	start := time.Now()
	session := tc.rec.begin("explore.session", tc.span, tc.id)
	s, err := explore.NewSession(w.wrapped(&tally, tc, session), "", explore.DefaultWatchdog)
	if err != nil {
		return c, 0, err
	}
	s.Workers = w.workers
	// Hang and panic outcomes are only visible in the progress log.
	var mu sync.Mutex
	bad := map[explore.Outcome]int{}
	s.Verbose = func(format string, args ...any) {
		for _, a := range args {
			if o, ok := a.(explore.Outcome); ok && (o == explore.OutcomeHang || o == explore.OutcomePanic) {
				mu.Lock()
				bad[o]++
				mu.Unlock()
			}
		}
	}
	err = s.ExploreDPOR(w.budget, 0)
	tc.rec.end(session)
	wall := time.Since(start)

	c.ops = int64(s.Runs())
	c.vtime = tally.vtime.Load()
	c.syncOps = tally.syncOps.Load()
	c.turns = tally.turns.Load()
	c.leaseExtends = tally.leaseExtends.Load()
	c.handoffs = tally.handoffs.Load()
	c.threads = tally.threads.Load()
	// Minimization re-runs the program too, so runtimes exceed ops.
	c.runtimes = tally.runs.Load()
	c.domains = c.runtimes
	c.distinct = int64(s.Distinct())
	c.failures = int64(s.Failures())
	switch {
	case err != nil:
		return c, wall, err
	case c.ops < int64(w.budget):
		return c, wall, fmt.Errorf("explored %d schedules, budget %d", c.ops, w.budget)
	case len(bad) > 0:
		return c, wall, fmt.Errorf("hang/panic outcomes: %v", bad)
	case c.failures == 0:
		return c, wall, fmt.Errorf("the seeded bug was not found in %d schedules", c.ops)
	}
	return c, wall, nil
}
