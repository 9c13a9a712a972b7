package core

import (
	"fmt"
	"sort"

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
// []Event prefix (a resumed retained-mode run holds only the suffix; Seq
// numbering continues via the restored trace length).

// ThreadState is one live thread's checkpointable state.
type ThreadState struct {
	TID    int
	Clock  int64            // logical instruction clock (LogicalClock eligibility)
	VTime  int64            // virtual clock (critical-path model)
	Policy policy.PerThread // lease state of the semantic policies
}

// WaitEntry is one object's wait list: the blocked threads in FIFO order
// with their park sequence numbers.
type WaitEntry struct {
	Obj  uint64
	TIDs []int
	Seqs []uint64
}

// SchedState is the checkpointable snapshot of one scheduler. All fields are
// plain data; internal/ckpt serializes it.
type SchedState struct {
	DomainID int
	WaitSeq  uint64
	NextTID  int
	NextObj  uint64
	Live     int

	VLastOp   int64
	VMakespan int64

	TraceLen  int64
	TraceHash uint64

	// Stats is every scheduler counter, logical time (Turns) included;
	// PolicyMetrics is nil (not checkpointed).
	Stats

	RunQ    []int         // runnable TIDs in run-queue order (includes the caller)
	Threads []ThreadState // live threads in TID order
	Waits2  []WaitEntry   // per-object wait lists in object-id order
}

// Quiescent reports whether t — which must hold the turn — is the sole
// runnable thread with no pending wake-up and no timed waiter: the state in
// which CaptureState is legal. A checkpointing thread drives the scheduler
// to quiescence by yielding (each yield lets woken-but-unparked threads run
// until they block), which is deterministic: the number of yields needed is
// a function of the schedule, not of real time.
func (s *Scheduler) Quiescent(t *Thread) bool {
	defer s.unlock(s.lock())
	return s.holder == t && s.onlyRunnableLocked(t) && s.timers.len() == 0
}

// CaptureState snapshots the scheduler's deterministic state. The caller
// must hold the turn and the scheduler must be quiescent (see Quiescent);
// otherwise an error is returned and nothing is captured.
func (s *Scheduler) CaptureState(t *Thread) (*SchedState, error) {
	defer s.unlock(s.lock())
	if s.holder != t {
		return nil, fmt.Errorf("core: CaptureState by %v which does not hold the turn", t)
	}
	if s.replay != nil {
		return nil, fmt.Errorf("core: CaptureState during schedule replay is not supported")
	}
	if !s.onlyRunnableLocked(t) {
		return nil, fmt.Errorf("core: CaptureState requires quiescence: %v is not the sole runnable thread", t)
	}
	if s.timers.len() != 0 {
		return nil, fmt.Errorf("core: CaptureState requires quiescence: %d timed waiters pending", s.timers.len())
	}
	st := &SchedState{
		DomainID:  s.cfg.DomainID,
		WaitSeq:   s.waitSeq,
		NextTID:   s.nextTID,
		NextObj:   s.nextObj,
		Live:      s.live,
		VLastOp:   s.vLastOp,
		VMakespan: s.vMakespan,
		TraceLen:  s.traceLen,
		TraceHash: s.traceHash,
		Stats:     s.statsLocked(),
		RunQ:      []int{t.id},
	}
	for _, th := range s.threads {
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
	objs := make([]uint64, 0, len(s.waitLists))
	for obj, q := range s.waitLists {
		if q.head != nil {
			objs = append(objs, obj)
		}
	}
	sort.Slice(objs, func(i, j int) bool { return objs[i] < objs[j] })
	waiting := 0
	for _, obj := range objs {
		we := WaitEntry{Obj: obj}
		for w := s.waitLists[obj].head; w != nil; w = w.qnext {
			we.TIDs = append(we.TIDs, w.id)
			we.Seqs = append(we.Seqs, w.seq)
			waiting++
		}
		st.Waits2 = append(st.Waits2, we)
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
// recording. The caller must hold the turn, the scheduler must have been
// created with SuspendRecording (no events recorded yet), and the program's
// setup phase must have re-created exactly the snapshot's structure: same
// thread IDs live, same objects allocated, same threads parked on the same
// objects, caller the sole runnable thread.
func (s *Scheduler) RestoreState(t *Thread, st *SchedState) error {
	defer s.unlock(s.lock())
	if s.holder != t {
		return fmt.Errorf("core: RestoreState by %v which does not hold the turn", t)
	}
	if s.replay != nil {
		return fmt.Errorf("core: RestoreState during schedule replay is not supported")
	}
	if s.traceLen != 0 {
		return fmt.Errorf("core: RestoreState after %d events were recorded; create the scheduler with SuspendRecording", s.traceLen)
	}
	if s.cfg.DomainID != st.DomainID {
		return fmt.Errorf("core: RestoreState: snapshot is for domain %d, scheduler is domain %d", st.DomainID, s.cfg.DomainID)
	}
	if s.nextTID != st.NextTID || s.nextObj != st.NextObj || s.live != st.Live {
		return fmt.Errorf("core: RestoreState: structure mismatch: have %d threads ever/%d objects/%d live, snapshot has %d/%d/%d (setup phase diverged)",
			s.nextTID, s.nextObj, s.live, st.NextTID, st.NextObj, st.Live)
	}
	if len(st.RunQ) != 1 || !s.onlyRunnableLocked(t) || t.id != st.RunQ[0] {
		return fmt.Errorf("core: RestoreState: %v must be the sole runnable thread and match the snapshot's runnable %v", t, st.RunQ)
	}
	if s.timers.len() != 0 {
		return fmt.Errorf("core: RestoreState: %d timed waiters pending", s.timers.len())
	}

	// Verify the wait lists — same objects, same member sets, one park
	// sequence per member — before permuting any: a checkpoint is outside
	// input, and a list relinked from a snapshot that names a thread twice
	// would be cyclic. Then relink them into the recorded FIFO order with the
	// recorded park sequences.
	nonEmpty := 0
	for _, q := range s.waitLists {
		if q.head != nil {
			nonEmpty++
		}
	}
	if nonEmpty != len(st.Waits2) {
		return fmt.Errorf("core: RestoreState: %d objects have waiters, snapshot has %d", nonEmpty, len(st.Waits2))
	}
	waiting := 0
	listed := make([]bool, len(s.threads))
	for _, we := range st.Waits2 {
		q := s.waitLists[we.Obj]
		if q == nil || q.len() != len(we.TIDs) {
			have := 0
			if q != nil {
				have = q.len()
			}
			return fmt.Errorf("core: RestoreState: object %d has %d waiters, snapshot has %d", we.Obj, have, len(we.TIDs))
		}
		if len(we.Seqs) != len(we.TIDs) {
			return fmt.Errorf("core: RestoreState: object %d lists %d waiters with %d park sequences", we.Obj, len(we.TIDs), len(we.Seqs))
		}
		for _, tid := range we.TIDs {
			if tid < 0 || tid >= len(s.threads) || s.threads[tid] == nil || s.threads[tid].queue != qWait || s.threads[tid].obj != we.Obj {
				return fmt.Errorf("core: RestoreState: thread %d not waiting on object %d as the snapshot requires", tid, we.Obj)
			}
			if listed[tid] {
				return fmt.Errorf("core: RestoreState: object %d lists thread %d twice", we.Obj, tid)
			}
			listed[tid] = true
		}
		waiting += len(we.TIDs)
	}
	if waiting != s.nWaiting {
		return fmt.Errorf("core: RestoreState: snapshot lists %d waiting threads, scheduler counts %d", waiting, s.nWaiting)
	}
	for _, we := range st.Waits2 {
		q := s.waitLists[we.Obj]
		q.head, q.tail, q.n = nil, nil, 0
		for i, tid := range we.TIDs {
			w := s.threads[tid]
			q.pushBack(w)
			w.seq = we.Seqs[i]
		}
	}

	// Per-thread state: clocks and policy state.
	if len(st.Threads) != s.live {
		return fmt.Errorf("core: RestoreState: snapshot has %d thread records for %d live threads", len(st.Threads), s.live)
	}
	restored := make([]bool, len(s.threads))
	for _, ts := range st.Threads {
		if ts.TID < 0 || ts.TID >= len(s.threads) || s.threads[ts.TID] == nil {
			return fmt.Errorf("core: RestoreState: snapshot thread %d is not live", ts.TID)
		}
		if restored[ts.TID] {
			return fmt.Errorf("core: RestoreState: snapshot lists thread %d twice", ts.TID)
		}
		restored[ts.TID] = true
		if !s.stack.Owns(ts.Policy) {
			return fmt.Errorf("core: RestoreState: thread %d holds a lease (%+v) of a policy %v does not run (checkpoint taken under different Policies?)", ts.TID, ts.Policy, &s.stack)
		}
		th := s.threads[ts.TID]
		th.clock = ts.Clock
		th.vtime = ts.VTime
		th.pstate = ts.Policy
	}

	// Counters, hashes, virtual time — and unmute recording.
	s.setStatsLocked(st.Stats)
	s.waitSeq = st.WaitSeq
	s.vLastOp = st.VLastOp
	s.vMakespan = st.VMakespan
	s.traceLen = st.TraceLen
	s.traceHash = st.TraceHash
	s.trace = traceLog{}
	s.suspended = false
	return nil
}
