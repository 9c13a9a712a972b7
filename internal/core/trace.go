package core

import (
	"fmt"

	"qithread/internal/logio"
	"qithread/internal/policy"
)

// OpKind identifies the synchronization operation recorded by a trace event.
// The set mirrors the 38 wrappers of the QiThread runtime library grouped by
// primitive.
type OpKind uint8

const (
	OpNone OpKind = iota
	OpThreadBegin
	OpThreadEnd
	OpCreate
	OpJoin
	OpMutexInit
	OpMutexLock
	OpMutexTryLock
	OpMutexUnlock
	OpMutexDestroy
	OpRWInit
	OpRLock
	OpTryRLock
	OpWLock
	OpTryWLock
	OpRWUnlock
	OpRWDestroy
	OpCondInit
	OpCondWait
	OpCondTimedWait
	OpCondSignal
	OpCondBroadcast
	OpCondDestroy
	OpSemInit
	OpSemWait
	OpSemTryWait
	OpSemTimedWait
	OpSemPost
	OpSemGetValue
	OpSemDestroy
	OpBarrierInit
	OpBarrierWait
	OpBarrierDestroy
	OpOnce
	OpSleep
	OpYield
	OpKeepTurn
	OpDummySync
	OpSoftBarrier
	OpSetBaseTime
	// Cross-domain sequenced-pipe operations (pipe.go). They are
	// appended after the single-domain ops so existing recorded schedules and
	// golden fingerprints keep their operation numbering.
	OpXPipeSend
	OpXPipeRecv
	OpXPipeClose
	// OpIngressAdmit is the turn-holding admission slot of a deterministic
	// ingress gateway (internal/ingress): one epoch boundary where collected
	// external events enter the deterministic order. Appended after the
	// existing ops so recorded schedules keep their numbering.
	OpIngressAdmit
)

var opNames = map[OpKind]string{
	OpNone:           "none",
	OpThreadBegin:    "thread_begin",
	OpThreadEnd:      "thread_end",
	OpCreate:         "create",
	OpJoin:           "join",
	OpMutexInit:      "mutex_init",
	OpMutexLock:      "lock",
	OpMutexTryLock:   "trylock",
	OpMutexUnlock:    "unlock",
	OpMutexDestroy:   "mutex_destroy",
	OpRWInit:         "rwlock_init",
	OpRLock:          "rdlock",
	OpTryRLock:       "tryrdlock",
	OpWLock:          "wrlock",
	OpTryWLock:       "trywrlock",
	OpRWUnlock:       "rwunlock",
	OpRWDestroy:      "rwlock_destroy",
	OpCondInit:       "cond_init",
	OpCondWait:       "wait",
	OpCondTimedWait:  "timedwait",
	OpCondSignal:     "signal",
	OpCondBroadcast:  "broadcast",
	OpCondDestroy:    "cond_destroy",
	OpSemInit:        "sem_init",
	OpSemWait:        "sem_wait",
	OpSemTryWait:     "sem_trywait",
	OpSemTimedWait:   "sem_timedwait",
	OpSemPost:        "sem_post",
	OpSemGetValue:    "sem_getvalue",
	OpSemDestroy:     "sem_destroy",
	OpBarrierInit:    "barrier_init",
	OpBarrierWait:    "barrier_wait",
	OpBarrierDestroy: "barrier_destroy",
	OpOnce:           "once",
	OpSleep:          "sleep",
	OpYield:          "yield",
	OpKeepTurn:       "keep_turn",
	OpDummySync:      "dummy_sync",
	OpSoftBarrier:    "soft_barrier",
	OpSetBaseTime:    "set_base_time",
	OpXPipeSend:      "xpipe_send",
	OpXPipeRecv:      "xpipe_recv",
	OpXPipeClose:     "xpipe_close",
	OpIngressAdmit:   "ingress_admit",
}

// String returns the pthreads-style name of the operation.
func (o OpKind) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// EventStatus distinguishes the scheduling outcome of a traced operation,
// matching the "blocks" / "returns" annotations of Figure 1b.
type EventStatus uint8

const (
	// StatusOK is an operation that completed within one turn.
	StatusOK EventStatus = iota
	// StatusBlocked is an operation that blocked and gave up the turn.
	StatusBlocked
	// StatusReturn is a previously blocked operation returning after being
	// woken and re-acquiring the turn.
	StatusReturn
)

// String returns "", "blocks" or "returns".
func (st EventStatus) String() string {
	switch st {
	case StatusBlocked:
		return "blocks"
	case StatusReturn:
		return "returns"
	default:
		return ""
	}
}

// Event is one synchronization operation in the deterministic total order of
// ONE scheduler domain. An event's sequence number is its index in its
// domain's schedule, so the event does not store it; events of different
// domains are not mutually ordered (cross-domain causality is captured by the
// sequenced-pipe delivery stamps, see pipe.go).
//
// TID and Domain are int32, the bound both trace codecs enforce and that
// RegisterIn and addDomain refuse to pass. The object word comes first, the
// two int32 share the second word and Op and Status the last: 24 bytes, the
// size of every event of every retained, loaded and flattened schedule.
type Event struct {
	Obj    uint64      // synchronization object ID, 0 when not applicable
	TID    int32       // thread ID (registration order within the domain)
	Domain int32       // scheduler domain the event belongs to (0 = default)
	Op     OpKind      // operation kind
	Status EventStatus // blocks / returns annotation
}

// String renders the event like a row of Figure 1b without its position,
// which the event does not know: a listing prints the index beside it
// (internal/trace.Format). Events of non-default domains carry a d<N> marker
// so merged listings stay attributable.
func (e Event) String() string {
	s := fmt.Sprintf("T%d %s", e.TID, e.Op)
	if e.Domain != 0 {
		s = fmt.Sprintf("d%d.T%d %s", e.Domain, e.TID, e.Op)
	}
	if e.Obj != 0 {
		s += fmt.Sprintf("(#%d)", e.Obj)
	}
	if st := e.Status.String(); st != "" {
		s += " " + st
	}
	return s
}

// TraceSink receives recorded events as they happen — the streaming,
// bounded-memory alternative to retaining the whole []Event trace in memory
// (Config.Sink). Append is called in trace order by the turn-holding thread,
// inside the scheduler; implementations (a buffered binary log writer,
// internal/trace.BinaryWriter) must not call back into the scheduler. An
// Append error is fatal to the run: losing trace events silently would break
// the record/replay contract, so the scheduler panics.
type TraceSink interface {
	Append(e Event) error
}

// FoldEvent folds one event into an FNV-64a schedule hash: thread, operation,
// object and status, each as a little-endian uint64. Domain is attribution,
// not content, and the position is not in the event at all. The scheduler
// folds each recorded event as it happens and internal/trace.Hash folds a
// finished slice through this same function, so a streaming run fingerprints
// in O(1) memory and a retained run's hash equals trace.Hash of its trace
// without a final pass.
func FoldEvent(h uint64, e Event) uint64 {
	h = logio.FNVFold64(h, uint64(e.TID))
	h = logio.FNVFold64(h, uint64(e.Op))
	h = logio.FNVFold64(h, e.Obj)
	return logio.FNVFold64(h, uint64(e.Status))
}

// Retained traces are kept as a list of fixed-capacity chunks, so recording
// writes each event exactly once: a single regrowing slice re-copies the
// whole schedule O(log n) times over (about 5x write amplification at Go's
// 1.25x growth). The first chunk is small because most schedulers (one per
// domain, one runtime per program) record a handful of events; capacities
// double up to traceChunkMax (64 KiB of events), so a long run over-allocates
// by at most one such chunk per scheduler.
const (
	traceChunkMin = 64
	traceChunkMax = 2048
)

// traceLog is the retained schedule: the first borrowed events of the
// schedule being replayed, then full, the filled chunks, which are never
// touched again, and cur, the chunk being filled.
//
// A replaying scheduler verifies every operation against the recording, so
// while the trace is exactly the verified prefix of the recording it keeps a
// count instead of a second copy: borrowed events are the recording's, with
// Domain the scheduler's. The first event that is not the next one of the
// recording — the replay ran out, recording was muted for a replayed op —
// goes to the chunks, and from then on every event does. relabeled records
// that some borrowed event of the recording carries another Domain than the
// trace gives it, so the recording itself cannot stand in for the trace.
type traceLog struct {
	borrowed  int
	relabeled bool
	full      [][]Event
	cur       []Event
}

// borrow retains e, the next event of the trace, by counting it, and reports
// whether it could: e must be the replay's event at index replayed, just
// verified equal to it (-1 when the op was not replayed), and every event
// retained so far must be borrowed, so that e's position in the trace is the
// count borrowed and the same index in the replay.
func (l *traceLog) borrow(e Event, replay []Event, replayed int) bool {
	if len(l.cur) > 0 || replayed != l.borrowed {
		return false
	}
	if replay[replayed].Domain != e.Domain {
		l.relabeled = true
	}
	l.borrowed++
	return true
}

func (l *traceLog) append(e Event) {
	if len(l.cur) == cap(l.cur) {
		c := traceChunkMin
		if cap(l.cur) > 0 {
			l.full = append(l.full, l.cur)
			c = min(2*cap(l.cur), traceChunkMax)
		}
		l.cur = make([]Event, 0, c)
	}
	l.cur = append(l.cur, e)
}

// flatten returns the retained events as one exactly-sized slice, nil when
// nothing is retained. replay is the schedule the borrowed events come from
// and domain the id they are recorded under. When the trace is all borrowed
// and the schedule's events already read as the trace's, the result is the
// schedule's own prefix, capacity-limited so an append cannot reach the rest
// of it; otherwise it is a copy.
func (l *traceLog) flatten(replay []Event, domain int) []Event {
	n := l.borrowed + len(l.cur)
	for _, c := range l.full {
		n += len(c)
	}
	if n == 0 {
		return nil
	}
	if n == l.borrowed && !l.relabeled {
		return replay[:n:n]
	}
	out := make([]Event, 0, n)
	for _, e := range replay[:l.borrowed] {
		e.Domain = int32(domain)
		out = append(out, e)
	}
	for _, c := range l.full {
		out = append(out, c...)
	}
	return append(out, l.cur...)
}

// TraceOp appends an event to the schedule trace. The caller must hold the
// turn so events form a total order.
//
// The scheduler lease (see PutTurn) never changes what is traced: a leased
// release keeps holder == t, so a leased run calls TraceOp with the same
// arguments in the same order as the queue-and-handoff run, and recorded
// schedules stay byte-identical.
func (s *Scheduler) TraceOp(t *Thread, op OpKind, obj uint64, st EventStatus) {
	defer s.unlock(s.lock())
	s.requireTurnLocked(t, "TraceOp")
	replayed := s.verifyReplayLocked(t, op, obj, st)
	s.stats.Ops++
	s.traceVTime(t)
	if !s.cfg.Record || s.suspended {
		// suspended covers a checkpoint restore's setup phase: the structure
		// is rebuilt with recording muted, then RestoreState reinstates the
		// recorded hash/length and unmutes (see checkpoint.go).
		return
	}
	e := Event{
		TID:    int32(t.id),
		Op:     op,
		Obj:    obj,
		Status: st,
		Domain: int32(s.cfg.DomainID),
	}
	s.traceHash = FoldEvent(s.traceHash, e)
	if s.cfg.Sink != nil {
		if err := s.cfg.Sink.Append(e); err != nil {
			panic(fmt.Sprintf("core: trace sink failed at event %d: %v", s.traceLen, err))
		}
	} else if !s.trace.borrow(e, s.replay, replayed) {
		s.trace.append(e)
	}
	s.traceLen++
}

// traceVTime applies a synchronization operation's virtual-time accounting.
// Under the turn mechanism (RoundRobin, LogicalClock) synchronization
// operations serialize: this operation starts when both the previous
// operation in the total order has ended and this thread has reached it.
// Under VirtualClock — the ideal parallel baseline — operations cost only
// their own time; ordering constraints flow exclusively through wake-up edges
// and the min-virtual-clock simulation order. Caller holds the turn.
func (s *Scheduler) traceVTime(t *Thread) {
	if s.cfg.Mode == policy.VirtualClock {
		t.vtime += VSyncCostNative
		return
	}
	t.vtime = max(t.vtime, s.vLastOp) + vSyncCostTurn
	s.vLastOp = t.vtime
}

// Trace returns the recorded schedule as one slice. It returns nil when
// nothing is retained: recording is off, no event has been recorded yet, or
// the run streams (Config.Sink) — then the sink's log and the running
// TraceHash are the record. A replaying scheduler's trace starts with the
// verified prefix of the schedule it replays (see SetReplay). When the whole
// trace is that prefix and the schedule's events already carry this
// scheduler's DomainID, the result is the schedule itself, len == cap: it is
// read-only under the same borrow contract as SetReplay, and an append to it
// copies. Otherwise the result is a fresh copy the caller owns.
func (s *Scheduler) Trace() []Event {
	defer s.unlock(s.lock())
	return s.trace.flatten(s.replay, s.cfg.DomainID)
}

// TraceHash returns the running FNV-64a hash of the recorded schedule. It
// always equals internal/trace.Hash of the events recorded so far, whether
// they were retained or streamed to a sink, which is what lets streaming and
// retained runs produce identical fingerprints.
func (s *Scheduler) TraceHash() uint64 {
	defer s.unlock(s.lock())
	return s.traceHash
}
