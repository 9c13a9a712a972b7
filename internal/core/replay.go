package core

// Schedule replay. DMT systems make record/replay nearly free: because the
// schedule is a deterministic function of the program and input, replaying an
// execution only requires re-running it under the same policy. Replay mode
// goes one step further — it enforces a PREVIOUSLY RECORDED schedule
// directly, so an execution recorded under any policy configuration can be
// reproduced under a scheduler that knows nothing about the policies that
// produced it (the schedule itself embeds their effects), and divergence
// (a different binary or input) is detected at the first mismatching
// operation rather than silently producing a different interleaving.

// SetReplay installs a recorded schedule to enforce. It must be called
// before any thread is registered. While a replay schedule is active, the
// thread eligible for the turn is the one that performed the next recorded
// operation, regardless of base policy; each TraceOp is verified against the
// recording. After the recording is exhausted the base policy resumes (a
// correct same-input replay ends exactly at the recording's end).
//
// The scheduler borrows schedule rather than copying it: replay only ever
// reads it, so one loaded schedule may be enforced by any number of
// schedulers at once. A recording scheduler also retains the verified prefix
// of schedule by reference instead of copying it into its trace (traceLog),
// and Trace may return schedule's prefix itself, so the caller must not
// modify schedule while a run replays it or a trace read from such a run is
// in use, nor modify such a trace. An empty schedule enforces nothing and
// leaves replay off.
func (s *Scheduler) SetReplay(schedule []Event) {
	defer s.unlock(s.lock())
	if s.nextTID != 0 {
		panic("core: SetReplay after threads were registered")
	}
	if len(schedule) == 0 {
		schedule = nil
	}
	s.replay = schedule
	s.replayPos = 0
}

// replayingLocked reports whether a recorded schedule still dictates who
// runs next: one is installed and not yet exhausted.
func (s *Scheduler) replayingLocked() bool {
	return s.replay != nil && s.replayPos < len(s.replay)
}

// ReplayPos returns how many recorded operations have been consumed.
func (s *Scheduler) ReplayPos() int {
	defer s.unlock(s.lock())
	return s.replayPos
}

// replayEligibleLocked returns the thread that must act next according to
// the recording, or nil when the expected thread exists but is not yet
// runnable-and-requesting (the scheduler then waits for it). It panics with
// a divergence diagnostic if the expected thread cannot ever act (blocked in
// a wait list or already exited) — the program being replayed is not the
// program that was recorded. The lookup is O(1) through the scheduler's
// ID-indexed thread table rather than a scan over every queue.
func (s *Scheduler) replayEligibleLocked() *Thread {
	want := s.replay[s.replayPos].TID
	if want < 0 {
		// The loaders reject this; a hand-built Config.Replay passes none.
		panic(s.reportLocked(divergence, "recorded thread id %d is negative", want))
	}
	if int(want) >= s.nextTID {
		// Thread not created yet: its creator's ops come first in any
		// consistent schedule, so the turn waits for the creator. If no thread
		// can run to create it, the run has diverged: the domain's driver
		// finds nothing to resume and panics (Scheduler.stuck).
		return nil
	}
	t := (*s.threads)[want]
	if t == nil {
		// The thread existed and is neither runnable nor waiting: it exited.
		panic(s.reportLocked(divergence, "expected T%d to run %v but it has exited", want, s.replay[s.replayPos].Op))
	}
	switch t.queue {
	case qRun, qWake:
		return t
	case qWait:
		if t.deadline > 0 {
			// Blocked with a pending logical timeout: the caller's idle path
			// will jump time to the deadline heap's top and expire it, after
			// which the thread becomes eligible. This is how a recorded
			// timeout return is reproduced when no other thread's op precedes
			// it (e.g. a lone logical sleep).
			return nil
		}
		// Blocked without a timeout: no future action can make it eligible —
		// the executions have diverged.
		panic(s.reportLocked(divergence, "expected T%d to run %v but it is blocked on %s#%d",
			want, s.replay[s.replayPos].Op, s.labelLocked(t.obj), t.obj))
	}
	panic(s.reportLocked(divergence, "expected T%d to run %v but it has exited", want, s.replay[s.replayPos].Op))
}

// verifyReplayLocked checks one executed operation against the recording and
// advances the cursor. It returns the index of the recorded operation the
// executed one matched, -1 when the recording no longer dictates the order.
// The divergence diagnostic names the domain, the op index, and both
// operations in expected-vs-actual form with object names, then dumps the
// queues — a schedule-space explorer replays thousands of schedules, and
// "which run, which domain, which op, expected what, got what" is the
// minimum needed to act on a failure without re-running it under a debugger.
func (s *Scheduler) verifyReplayLocked(t *Thread, op OpKind, obj uint64, st EventStatus) int {
	if !s.replayingLocked() {
		return -1
	}
	e := s.replay[s.replayPos]
	if int(e.TID) != t.id || e.Op != op || e.Obj != obj || e.Status != st {
		panic(s.reportLocked(divergence, "expected {T%d %v obj=%d(%s) %v}, executed {T%d %v obj=%d(%s) %v}",
			e.TID, e.Op, e.Obj, s.labelLocked(e.Obj), e.Status,
			t.id, op, obj, s.labelLocked(obj), st))
	}
	s.replayPos++
	return s.replayPos - 1
}
