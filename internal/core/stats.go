package core

import (
	"fmt"

	"qithread/internal/policy"
)

// Stats aggregates scheduling activity for analysis and tooling. All
// counters are monotone over one execution. This is the only declaration of
// the scheduler's counters: SchedState (checkpoints) and
// qithread.SchedulerStat (live snapshots) embed it, and DESIGN.md §4.12
// lists who increments each field under which lock.
type Stats struct {
	// Ops is the number of completed synchronization operations (TraceOp
	// calls), whether or not recording was enabled.
	Ops int64
	// Turns is the number of completed scheduling turns (releases + parks).
	Turns int64
	// Waits is the number of times a thread parked on the wait queue.
	Waits int64
	// Signals and Broadcasts count wake-up operations issued.
	Signals    int64
	Broadcasts int64
	// Woken counts threads moved from the wait queue to the runnable set,
	// split by cause.
	WokenBySignal  int64
	WokenByTimeout int64
	// Handoffs counts turn grants to a thread other than the one asking
	// (grantLocked): the scheduler set the holder and the grantee's granted
	// flag in one step, and the grantee resumes holding the turn.
	Handoffs int64
	// LeaseExtends counts turn releases absorbed by the solo lease: PutTurn
	// found the holder the only live thread, advanced logical time and let
	// it keep the turn.
	LeaseExtends int64
	// MaxLiveThreads is the high-water mark of registered live threads.
	MaxLiveThreads int
	// MaxWaiting is the high-water mark of blocked threads across all wait
	// lists: the deepest the scheduler's wait-list population ever got. A
	// long-running server whose MaxWaiting approaches its thread count spent
	// time with nearly everyone parked — the contention shape the
	// observability snapshot (qithread.SchedulerStats) surfaces.
	MaxWaiting int
	// MaxTimedWaiters is the high-water mark of the deadline heap: the most
	// threads simultaneously blocked with a logical timeout.
	MaxTimedWaiters int
	// PolicyMetrics is the per-policy decision counter snapshot of the
	// scheduler's policy stack, in stack order (semantic layers first, base
	// policy last). It attributes scheduling decisions — turn grants,
	// wake-up boosts, turn retentions — to the policy that made them.
	PolicyMetrics []policy.Metrics
}

// String summarizes the stats on one line.
func (st Stats) String() string {
	return fmt.Sprintf("ops=%d turns=%d waits=%d signals=%d broadcasts=%d woken(signal=%d timeout=%d) maxThreads=%d",
		st.Ops, st.Turns, st.Waits, st.Signals, st.Broadcasts,
		st.WokenBySignal, st.WokenByTimeout, st.MaxLiveThreads)
}

// Stats returns a snapshot of the scheduler's activity counters, including
// the per-policy decision metrics of the policy stack. Like every read of a
// hosted scheduler from outside its threads, call it before the run starts
// or after it has finished.
func (s *Scheduler) Stats() Stats {
	defer s.unlock(s.lock())
	st := s.statsLocked()
	st.PolicyMetrics = s.stack.Metrics()
	return st
}

// statsLocked is s.stats with Turns read from logical time. PolicyMetrics is
// left nil (the stack owns it). Stats and CaptureState both read through
// here, so a counter added to Stats is snapshotted and checkpointed without
// being named again.
func (s *Scheduler) statsLocked() Stats {
	st := s.stats
	st.Turns = s.turn
	return st
}

// setStatsLocked is the inverse of statsLocked (RestoreState). The policy
// metrics are not part of it: they are diagnostics of the stack, not
// scheduler state, and a restored run counts its own.
func (s *Scheduler) setStatsLocked(st Stats) {
	s.turn = st.Turns
	st.PolicyMetrics = nil
	s.stats = st
}
