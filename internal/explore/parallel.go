package explore

import (
	"errors"
	"sync"
	"time"
)

// The parallel exploration engine. Every explored run is an isolated
// Runtime — runs share nothing but the program definition — so the search is
// embarrassingly parallel between runs; what needs coordination is the
// frontier (who explores which prefix), the seen set (who branches), and
// persistence. The pool keeps all three behind the session mutex, and keeps
// the expensive part — executing the run — fully outside any lock.
//
// With one worker the pool IS the serial search: pops, records, branch
// appends and minimizations happen in exactly the order the single-threaded
// loop performed them, so runs.csv, the frontier's order and the repro files
// stay identical to the pre-pool explorer. With more workers the
// pop-to-record interleaving is timing-dependent, but the explored SET is
// stable wherever the search runs to frontier exhaustion: branching is a
// pure function of a run's decision log, and a fingerprint dedup race only
// changes which of two equivalent runs expands (the worker-count invariance
// test pins this).

// runPool is the shell both strategies run in: Workers goroutines each call
// step until it reports no more work or an error, every worker's WorkerStat
// slot goes to step and has its Elapsed stamped, and the workers' errors are
// returned, joined, once all have stopped. What a step does, how it
// shares work with the others and how it stops them after an error are the
// strategy's own; the shell knows no strategy.
func (s *Session) runPool(step func(*WorkerStat) (more bool, err error)) error {
	stats := make([]WorkerStat, max(s.Workers, 1))
	errs := make([]error, len(stats))
	var wg sync.WaitGroup
	for w := range stats {
		wg.Add(1)
		go func() {
			defer wg.Done()
			start := time.Now()
			for more := true; more && errs[w] == nil; {
				more, errs[w] = step(&stats[w])
			}
			stats[w].Elapsed = time.Since(start)
		}()
	}
	wg.Wait()
	s.mu.Lock()
	s.workerStats = stats
	s.mu.Unlock()
	return errors.Join(errs...)
}

// runDPORPool executes up to `budget` frontier pops across the session's
// workers. A worker that finds the frontier empty while others are still
// running parks on the cond var — the in-flight runs may branch — and the
// pool terminates when the budget is exhausted (an error exhausts it) or the
// frontier is empty with no run in flight.
func (s *Session) runDPORPool(budget, maxDepth int) error {
	cond := sync.NewCond(&s.mu)
	active := 0 // runs in flight (popped, not yet recorded)
	return s.runPool(func(st *WorkerStat) (bool, error) {
		s.mu.Lock()
		defer s.mu.Unlock()
		for budget > 0 && s.frontier.len() == 0 && active > 0 {
			cond.Wait()
		}
		if budget <= 0 || s.frontier.len() == 0 {
			return false, nil
		}
		f := s.frontier.pop()
		budget--
		active++
		s.mu.Unlock()

		res := runPath(s.P, f, f.logLen(), s.Watchdog, s.HB)

		s.mu.Lock()
		id, isNew := s.recordLocked("dpor", f.depth(), res)
		st.Runs++
		if isNew {
			st.New++
		}
		var err error
		switch {
		case isNew && res.Outcome.Failure():
			// A failing path is a leaf; don't branch past a bug. Minimization
			// re-runs the program — do it off the session lock so the other
			// workers keep exploring. Its cut is known: every shorter cut of
			// the log replays an expanded ancestor, which passed.
			s.mu.Unlock()
			err = s.minimizeAndEmit(f.depth(), res, id)
			s.mu.Lock()
			if err != nil {
				budget = 0
			}
		case isNew:
			kept, pruned := s.expandLocked(f.depth(), &res, maxDepth)
			st.Branched += kept
			st.Pruned += pruned
		}
		active--
		// Every exit condition may have changed: new frontier entries (parked
		// workers should wake), active hitting zero with an empty frontier or
		// the budget gone (everyone should terminate).
		cond.Broadcast()
		return true, err
	})
}

// runPCTPool distributes the walk indices 0..budget-1 across the session's
// workers. Walks are fully independent (each is a fresh seeded chooser), so
// the pool is a plain work counter; with one worker the indices — and
// therefore run ids — are sequential, matching the serial walk exactly.
func (s *Session) runPCTPool(budget, d int, seed uint64, horizon int) error {
	next := 0
	return s.runPool(func(st *WorkerStat) (bool, error) {
		s.mu.Lock()
		i := next
		next++
		s.mu.Unlock()
		if i >= budget {
			return false, nil
		}

		ch := newPCTChooser(seed^uint64(i+1)*0x9e3779b97f4a7c15, d, horizon)
		res := runOnce(s.P, nil, ch, s.Watchdog, nil)
		res.log = ch.Log()

		s.mu.Lock()
		id, isNew := s.recordLocked("pct", d, res)
		s.mu.Unlock()
		st.Runs++
		if isNew {
			st.New++
		}
		if isNew && res.Outcome.Failure() {
			// A PCT run is minimized from its own decision log: the log is a
			// complete forced prefix reproducing the walk without the PRNG.
			// Nothing is known of its shorter cuts, so the cut is searched.
			if err := s.minimizeAndEmit(-1, res, id); err != nil {
				s.mu.Lock()
				next = budget // stops the other workers
				s.mu.Unlock()
				return false, err
			}
		}
		return true, nil
	})
}
