package core

import (
	"errors"
	"fmt"

	"qithread/internal/policy"
)

// Epoch checkpoints. A checkpoint snapshots one scheduler's deterministic
// state at a QUIESCENT admission boundary — the turn-holding caller is the
// only runnable thread, every other live thread is parked on a wait list,
// and no wake-up or timed deadline is pending — so the snapshot is a plain
// data record: counters, clocks, per-thread policy state, and the wait-list
// membership/order, with no goroutine stacks to serialize. Resuming is
// re-running the program's setup phase with recording muted
// (Config.SuspendRecording) until the structure — threads registered,
// objects created, workers parked on the same objects — matches the
// snapshot, then calling RestoreState to verify that structural equality,
// permute the wait lists into the recorded order, and reinstate every
// counter, clock, and running hash. From that point the execution is
// byte-for-byte the recorded run's continuation: the same threads are
// eligible in the same order, the trace hash continues from the same fold
// state, and replayed ingress batches land on the same epochs.
//
// What is deliberately NOT restored: per-policy decision counters
// (policy.Metrics — diagnostics, not schedule inputs) and the retained
// []Event prefix (a resumed run's schedule, retained or streamed, holds only
// the suffix: its index i is the recording's position TraceLen + i).

// ThreadState is one live thread's checkpointable state.
type ThreadState struct {
	TID    int
	Clock  int64            // logical instruction clock (LogicalClock eligibility)
	VTime  int64            // virtual clock (critical-path model)
	Policy policy.PerThread // lease state of the semantic policies
}

// WaitEntry is one object's wait list: the blocked threads in FIFO order.
type WaitEntry struct {
	Obj     uint64
	Waiters []Waiter
}

// Waiter is one blocked thread and its park sequence number.
type Waiter struct {
	TID int
	Seq uint64
}

// SchedState is the checkpointable snapshot of one scheduler. All fields are
// plain data; internal/ckpt serializes it.
type SchedState struct {
	DomainID int
	WaitSeq  uint64
	NextTID  int
	NextObj  uint64
	Holder   int // the checkpointing thread: the turn holder, sole runnable

	VLastOp   int64
	VMakespan int64

	TraceLen  int64
	TraceHash uint64

	// Counters is every scheduler counter, logical time (Turns) included.
	// The per-policy decision metrics are not part of it: they are
	// diagnostics of the stack, not scheduler state, and a restored run
	// counts its own.
	Counters

	Threads   []ThreadState // live threads in TID order
	WaitLists []WaitEntry   // per-object wait lists in object-id order
}

// ErrNotQuiescent is wrapped by the errors of Quiescent, CaptureState and
// RestoreState that more yields can cure: another thread is runnable or a
// timed waiter is pending.
var ErrNotQuiescent = errors.New("not quiescent")

// quiescentLocked is the checkpoint boundary check: it says why t cannot
// take or restore a snapshot (what) now, or returns nil. t must hold the
// turn, no schedule may be replaying, t must be the sole runnable thread, and
// no timed waiter may be pending.
func (s *Scheduler) quiescentLocked(t *Thread, what string) error {
	switch {
	case s.holder != t:
		return fmt.Errorf("core: %s by %v which does not hold the turn", what, t)
	case s.replay != nil:
		return fmt.Errorf("core: %s during schedule replay is not supported", what)
	case !s.onlyRunnableLocked(t):
		return fmt.Errorf("core: %s requires quiescence: %v is not the sole runnable thread (%w)", what, t, ErrNotQuiescent)
	case s.timers.len() != 0:
		return fmt.Errorf("core: %s requires quiescence: %d timed waiters pending (%w)", what, s.timers.len(), ErrNotQuiescent)
	}
	return nil
}

// Quiescent reports why t's scheduler is not in the state in which
// CaptureState and RestoreState are legal, or nil when it is. A
// checkpointing thread drives the scheduler to quiescence by yielding while
// the error wraps ErrNotQuiescent (each yield lets woken-but-unparked threads
// run until they block), which is deterministic: the number of yields needed
// is a function of the schedule, not of real time.
func (s *Scheduler) Quiescent(t *Thread, what string) error {
	defer s.unlock(s.lock())
	return s.quiescentLocked(t, what)
}

// CaptureState snapshots the scheduler's deterministic state. The scheduler
// must be quiescent for t (see Quiescent); otherwise an error is returned and
// nothing is captured.
func (s *Scheduler) CaptureState(t *Thread) (*SchedState, error) {
	defer s.unlock(s.lock())
	if err := s.quiescentLocked(t, "CaptureState"); err != nil {
		return nil, err
	}
	st := &SchedState{
		DomainID:  s.cfg.DomainID,
		WaitSeq:   s.waitSeq,
		NextTID:   s.nextTID,
		NextObj:   s.nextObj,
		Holder:    t.id,
		VLastOp:   s.vLastOp,
		VMakespan: s.vMakespan,
		TraceLen:  s.traceLen,
		TraceHash: s.traceHash,
		Counters:  s.countersLocked(),
	}
	for _, th := range s.tableLocked() {
		if th == nil {
			continue
		}
		st.Threads = append(st.Threads, ThreadState{
			TID:    th.id,
			Clock:  th.clock,
			VTime:  th.vtime,
			Policy: th.pstate,
		})
	}
	waiting := 0
	for _, obj := range s.waitedObjsLocked() {
		we := WaitEntry{Obj: obj}
		for w := s.objs[obj].waits.head; w != nil; w = w.qnext {
			we.Waiters = append(we.Waiters, Waiter{TID: w.id, Seq: w.seq})
		}
		waiting += len(we.Waiters)
		st.WaitLists = append(st.WaitLists, we)
	}
	if waiting != s.nWaiting {
		return nil, fmt.Errorf("core: CaptureState: wait lists hold %d threads, scheduler counts %d", waiting, s.nWaiting)
	}
	if len(st.Threads) != s.live {
		return nil, fmt.Errorf("core: CaptureState: %d thread records for %d live threads", len(st.Threads), s.live)
	}
	return st, nil
}

// RestoreState verifies that the scheduler's rebuilt structure matches the
// snapshot, permutes the wait lists into the recorded FIFO order, reinstates
// every counter, clock, per-thread policy state and running hash, and unmutes
// recording. The scheduler must be quiescent for t (see Quiescent), it must
// have been created with SuspendRecording (no events recorded yet), and the
// program's setup phase must have re-created exactly the snapshot's
// structure: same thread IDs live, same objects allocated, same threads
// parked on the same objects, the snapshot's holder the caller.
func (s *Scheduler) RestoreState(t *Thread, st *SchedState) error {
	defer s.unlock(s.lock())
	if err := s.quiescentLocked(t, "RestoreState"); err != nil {
		return err
	}
	if s.traceLen != 0 {
		return fmt.Errorf("core: RestoreState after %d events were recorded; create the scheduler with SuspendRecording", s.traceLen)
	}
	if s.cfg.DomainID != st.DomainID {
		return fmt.Errorf("core: RestoreState: snapshot is for domain %d, scheduler is domain %d", st.DomainID, s.cfg.DomainID)
	}
	if s.nextTID != st.NextTID || s.nextObj != st.NextObj || s.live != len(st.Threads) {
		return fmt.Errorf("core: RestoreState: structure mismatch: have %d threads ever/%d objects/%d live, snapshot has %d/%d/%d (setup phase diverged)",
			s.nextTID, s.nextObj, s.live, st.NextTID, st.NextObj, len(st.Threads))
	}
	if t.id != st.Holder {
		return fmt.Errorf("core: RestoreState by %v, but the snapshot was taken by T%d", t, st.Holder)
	}

	// Verify the wait lists — same objects, same member sets — before
	// permuting any: a checkpoint is outside input, and a list relinked from a
	// snapshot that names a thread twice would be cyclic. Then relink them
	// into the recorded FIFO order with the recorded park sequences.
	if nonEmpty := len(s.waitedObjsLocked()); nonEmpty != len(st.WaitLists) {
		return fmt.Errorf("core: RestoreState: %d objects have waiters, snapshot has %d", nonEmpty, len(st.WaitLists))
	}
	threads := s.tableLocked()
	waiting := 0
	listed := make([]bool, len(threads))
	for _, we := range st.WaitLists {
		e, ok := s.objs[we.Obj]
		if !ok || e.waits.n != len(we.Waiters) {
			return fmt.Errorf("core: RestoreState: object %d has %d waiters, snapshot has %d", we.Obj, e.waits.n, len(we.Waiters))
		}
		for _, w := range we.Waiters {
			tid := w.TID
			if tid < 0 || tid >= len(threads) || threads[tid] == nil || threads[tid].queue != qWait || threads[tid].obj != we.Obj {
				return fmt.Errorf("core: RestoreState: thread %d not waiting on object %d as the snapshot requires", tid, we.Obj)
			}
			if listed[tid] {
				return fmt.Errorf("core: RestoreState: object %d lists thread %d twice", we.Obj, tid)
			}
			listed[tid] = true
		}
		waiting += len(we.Waiters)
	}
	if waiting != s.nWaiting {
		return fmt.Errorf("core: RestoreState: snapshot lists %d waiting threads, scheduler counts %d", waiting, s.nWaiting)
	}
	for _, we := range st.WaitLists {
		e := s.objs[we.Obj]
		e.waits = tqueue{}
		for _, w := range we.Waiters {
			th := threads[w.TID]
			e.waits.pushBack(th)
			th.seq = w.Seq
		}
		s.objs[we.Obj] = e
	}

	// Per-thread state: clocks and policy state. The structure check above
	// matched the record count to the live count.
	restored := make([]bool, len(threads))
	for _, ts := range st.Threads {
		if ts.TID < 0 || ts.TID >= len(threads) || threads[ts.TID] == nil {
			return fmt.Errorf("core: RestoreState: snapshot thread %d is not live", ts.TID)
		}
		if restored[ts.TID] {
			return fmt.Errorf("core: RestoreState: snapshot lists thread %d twice", ts.TID)
		}
		restored[ts.TID] = true
		if !s.stack.Owns(ts.Policy) {
			return fmt.Errorf("core: RestoreState: thread %d holds a lease (%+v) of a policy %v does not run (checkpoint taken under different Policies?)", ts.TID, ts.Policy, &s.stack)
		}
		th := threads[ts.TID]
		th.clock = ts.Clock
		th.vtime = ts.VTime
		th.pstate = ts.Policy
	}

	// Counters, hashes, virtual time — and unmute recording.
	s.setCountersLocked(st.Counters)
	s.waitSeq = st.WaitSeq
	s.vLastOp = st.VLastOp
	s.vMakespan = st.VMakespan
	s.traceLen = st.TraceLen
	s.traceHash = st.TraceHash
	s.trace = traceLog{}
	s.suspended = false
	return nil
}
