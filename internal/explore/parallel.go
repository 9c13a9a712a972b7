package explore

import (
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
// loop performed them, so runs.csv, seen.txt, frontier.txt and the repro
// files stay byte-identical to the pre-pool explorer. With more workers the
// pop-to-record interleaving is timing-dependent, but the explored SET is
// stable wherever the search runs to frontier exhaustion: branching is a
// pure function of a run's decision log, and a fingerprint dedup race only
// changes which of two equivalent runs expands (the worker-count invariance
// test pins this).

// dporPool drains the frontier with `workers` concurrent workers. A worker
// that finds the frontier empty while others are still running parks on the
// cond var — the in-flight runs may branch — and the pool terminates when
// the budget is exhausted or the frontier is empty with no run in flight.
type dporPool struct {
	s        *Session
	cond     *sync.Cond
	budget   int
	maxDepth int
	active   int // runs in flight (popped, not yet recorded)
	err      error
}

// runDPORPool executes up to `budget` frontier pops across the session's
// workers, leaving the session saved-state dirty (the caller persists).
func (s *Session) runDPORPool(budget, maxDepth int) error {
	workers := s.Workers
	if workers < 1 {
		workers = 1
	}
	p := &dporPool{s: s, cond: sync.NewCond(&s.mu), budget: budget, maxDepth: maxDepth}
	s.mu.Lock()
	s.workerStats = make([]WorkerStat, workers)
	s.mu.Unlock()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p.worker(w)
		}(w)
	}
	wg.Wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	return p.err
}

func (p *dporPool) worker(w int) {
	s := p.s
	start := time.Now()
	st := WorkerStat{}
	s.mu.Lock()
	for p.err == nil {
		for p.budget > 0 && s.frontier.len() == 0 && p.active > 0 {
			p.cond.Wait()
		}
		if p.err != nil || p.budget <= 0 || s.frontier.len() == 0 {
			break
		}
		f := s.frontier.pop()
		p.budget--
		p.active++
		s.mu.Unlock()

		// Only a results directory needs the popped prefix spelled out (the
		// frontier merge of save); rendering it is off-lock work either way.
		var line string
		if s.Dir != "" {
			line = string(f.appendLine(nil))
		}
		res := runPath(s.P, f, s.Watchdog, s.HB)

		s.mu.Lock()
		if s.Dir != "" {
			s.executed[line] = true
		}
		id, isNew := s.recordLocked("dpor", f.depth(), res)
		st.Runs++
		if isNew {
			st.New++
		}
		switch {
		case isNew && res.Outcome.Failure():
			// A failing path is a leaf; don't branch past a bug. Minimization
			// re-runs the program many times — do it off the session lock so
			// the other workers keep exploring.
			s.mu.Unlock()
			err := s.minimizeAndEmit(f.depth(), res, id)
			s.mu.Lock()
			if err != nil && p.err == nil {
				p.err = err
			}
		case isNew:
			kept, pruned := s.expandLocked(f.depth(), &res, p.maxDepth)
			st.Branched += kept
			st.Pruned += pruned
		}
		p.active--
		// Every loop exit condition may have changed: new frontier entries
		// (parked workers should wake), active hitting zero with an empty
		// frontier (everyone should terminate), or an error.
		p.cond.Broadcast()
	}
	s.workerStats[w] = st
	s.workerStats[w].Elapsed = time.Since(start)
	p.cond.Broadcast() // an exiting worker never pops again; let peers re-check
	s.mu.Unlock()
}

// runPCTPool distributes the walk indices 0..budget-1 across the session's
// workers. Walks are fully independent (each is a fresh seeded chooser), so
// the pool is a plain work counter; with one worker the indices — and
// therefore run ids — are sequential, matching the serial walk exactly.
func (s *Session) runPCTPool(budget, d int, seed uint64, horizon int) error {
	workers := s.Workers
	if workers < 1 {
		workers = 1
	}
	s.mu.Lock()
	s.workerStats = make([]WorkerStat, workers)
	next := 0
	var firstErr error
	s.mu.Unlock()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			start := time.Now()
			st := WorkerStat{}
			for {
				s.mu.Lock()
				if firstErr != nil || next >= budget {
					s.mu.Unlock()
					break
				}
				i := next
				next++
				s.mu.Unlock()

				ch := newPCTChooser(seed^uint64(i+1)*0x9e3779b97f4a7c15, d, horizon)
				res := runOnce(s.P, nil, ch, s.Watchdog, false)
				res.Choices = ch.Log()

				s.mu.Lock()
				id, isNew := s.recordLocked("pct", d, res)
				s.mu.Unlock()
				st.Runs++
				if isNew {
					st.New++
				}
				if isNew && res.Outcome.Failure() {
					// A PCT run is minimized from its own decision log: the
					// log is a complete forced prefix reproducing the walk
					// without the PRNG.
					if err := s.minimizeAndEmit(len(res.Choices), res, id); err != nil {
						s.mu.Lock()
						if firstErr == nil {
							firstErr = err
						}
						s.mu.Unlock()
						break
					}
				}
			}
			s.mu.Lock()
			s.workerStats[w] = st
			s.workerStats[w].Elapsed = time.Since(start)
			s.mu.Unlock()
		}(w)
	}
	wg.Wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	return firstErr
}
