package core

import "qithread/internal/policy"

// The chooser: a Config.Chooser is consulted at two choice points, which
// runnable thread a free turn goes to and which waiter a signal wakes. Both
// show it the candidates' ids in queue order, in one reusable buffer, with
// the policy stack's own pick as the default (DESIGN.md §4.8).

// inlineCands is the inline backing size of the candidate buffer. A
// scheduler is built per run (the explorer and the catalog build tens of
// thousands), so it is sized to what a small run touches, three turn or
// wake candidates; larger runs spill to the heap.
const inlineCands = 3

// chooseWakeLocked consults the chooser about which of obj's waiters this
// signal wakes — a choice point with one candidate per waiter, in FIFO park
// order, defaulting to the head (the unhooked behaviour). The caller holds
// the turn, so the wait list is frozen and the decision point is
// deterministic. Unlike turn choices, wake choices are consulted in replay
// runs too: replay enforces the schedule by thread id, which pins who runs
// but not which waiter a recorded signal woke, so reproducing an explored
// run feeds the recorded wake decisions back through a Chooser (see
// internal/explore).
func (s *Scheduler) chooseWakeLocked(q *tqueue) *Thread {
	return s.pickLocked(policy.ChooseWake, q.head, q)
}

// chooseTurnLocked consults the chooser about which runnable thread the free
// turn goes to. It runs at the deterministic grant moment: the turn is free
// and the stack's pick is asking for it — the instant the unhooked scheduler
// would grant. The runnable set is frozen while the turn is free (queues are
// mutated only by the turn holder or by the deterministic idle-expiry path,
// which only runs when nothing is runnable), so the candidate enumeration,
// the default index, and therefore the decision point itself do not depend
// on when the grant loop happens to run. The chosen thread is committed in
// s.chosen until it actually takes the turn: a candidate that is still
// executing user code cannot be granted immediately, but being runnable it
// must eventually ask (every thread's next synchronization operation — and
// its exit — begins with GetTurn), and it cannot block or exit without the
// turn, so the commitment stays valid.
func (s *Scheduler) chooseTurnLocked(def *Thread) *Thread {
	if s.runQ.n+s.wakeQ.n < 2 {
		return def
	}
	// Commit even when the chooser kept the default, so the chooser is asked
	// exactly once per handoff regardless of how many grant attempts follow.
	s.chosen = s.pickLocked(policy.ChooseTurn, def, &s.runQ, &s.wakeQ)
	return s.chosen
}

// pickLocked consults the chooser over the threads of qs, enumerated in
// queue order into chooseIDs, with def's index as the default, and returns
// the thread at the index it answers, found by walking qs again: def for an
// index out of range.
func (s *Scheduler) pickLocked(kind policy.ChoiceKind, def *Thread, qs ...*tqueue) *Thread {
	ids := s.chooseIDs[:0]
	defIdx := 0
	for _, q := range qs {
		for t := q.head; t != nil; t = t.qnext {
			if t == def {
				defIdx = len(ids)
			}
			ids = append(ids, t.id)
		}
	}
	s.chooseIDs = ids
	idx := s.cfg.Chooser.Choose(kind, ids, len(ids), defIdx)
	for _, q := range qs {
		for t := q.head; t != nil; t = t.qnext {
			if idx == 0 {
				return t
			}
			idx--
		}
	}
	return def
}
