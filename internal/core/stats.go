package core

import (
	"fmt"

	"qithread/internal/policy"
)

// Counters holds the scheduler's activity counters, for analysis and tooling.
// All are monotone over one execution. This is the only declaration of them:
// the scheduler keeps one, Snapshot and a checkpoint's SchedState embed it,
// and DESIGN.md §4.12 lists who increments each field under which lock.
type Counters struct {
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
	// Offloads counts declared computations a hosted thread handed to
	// another goroutine and yielded over (YieldComputing). Whether a thread
	// offloads depends only on the amount it declares, so the count is a
	// function of the program, like the schedule, which it does not change.
	Offloads int64
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
}

// Snapshot is what Scheduler.Stats returns and qithread.SchedulerStat
// embeds: every counter, and the policy stack's decision counters by value,
// so taking one allocates nothing.
type Snapshot struct {
	Counters
	// PolicyMetrics attributes scheduling decisions — turn grants, wake-up
	// boosts, turn retentions — to the policy that made them: the enabled
	// semantic layers in stack order, then the base policy, then zero
	// entries (Policy "") up to policy.Slots. A listing stops at the first
	// entry without a name; a sum can take them all.
	PolicyMetrics [policy.Slots]policy.Metrics
}

// String summarizes the counters on one line, every field of Counters in
// declaration order (TestCountersStringNamesEveryField).
func (st Counters) String() string {
	return fmt.Sprintf("ops=%d turns=%d waits=%d signals=%d broadcasts=%d woken(signal=%d timeout=%d) handoffs=%d leaseExtends=%d offloads=%d maxThreads=%d maxWaiting=%d maxTimedWaiters=%d",
		st.Ops, st.Turns, st.Waits, st.Signals, st.Broadcasts,
		st.WokenBySignal, st.WokenByTimeout, st.Handoffs, st.LeaseExtends, st.Offloads,
		st.MaxLiveThreads, st.MaxWaiting, st.MaxTimedWaiters)
}

// Stats returns a snapshot of the scheduler's activity counters, including
// the per-policy decision metrics of the policy stack. Like every read of a
// hosted scheduler from outside its threads, call it before the run starts
// or after it has finished.
func (s *Scheduler) Stats() Snapshot {
	defer s.unlock(s.lock())
	return Snapshot{Counters: s.countersLocked(), PolicyMetrics: s.stack.Metrics()}
}

// countersLocked is s.stats with Turns read from logical time. Stats and
// CaptureState both read through here, so a counter added to Counters is
// snapshotted and checkpointed without being named again.
func (s *Scheduler) countersLocked() Counters {
	c := s.stats
	c.Turns = s.turn
	return c
}

// setCountersLocked is the inverse of countersLocked (RestoreState).
func (s *Scheduler) setCountersLocked(c Counters) {
	s.turn = c.Turns
	s.stats = c
}
