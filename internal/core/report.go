package core

import (
	"fmt"
	"strings"
)

// Failure reports. A domain's failure is explained by two things: the state
// of its three queues, and the last few turns — who held each one and how
// they got it. Every failure text of the scheduler that carries its state, a
// deadlock, a replay divergence or a broken contract, is built by
// reportLocked, which renders the reason, then the queues (dumpLocked), then
// the domain's flight recorder (historyLocked): its last ringLen traced
// operations, oldest first, each with the source of its turn.

// ErrReplayDivergence is the panic value prefix used when a replayed
// execution departs from its recorded schedule.
const ErrReplayDivergence = "core: replay divergence"

// failure is the kind of a report, which picks its prefix.
type failure uint8

const (
	misuse     failure = iota // a broken contract: the caller states the whole reason
	deadlock                  // "core: deterministic deadlock in domain N: " and the reason
	divergence                // ErrReplayDivergence, the domain, the op index the run left the recording at, the reason
)

// reportLocked is the one failure report: the prefix of kind, the reason
// (format and args), the scheduler state and the flight recorder.
func (s *Scheduler) reportLocked(kind failure, format string, args ...any) string {
	var b strings.Builder
	switch kind {
	case deadlock:
		fmt.Fprintf(&b, "core: deterministic deadlock in domain %d: ", s.cfg.DomainID)
	case divergence:
		fmt.Fprintf(&b, "%s in domain %d at op index %d: ", ErrReplayDivergence, s.cfg.DomainID, s.replayPos)
	}
	fmt.Fprintf(&b, format, args...)
	b.WriteByte('\n')
	s.dumpLocked(&b)
	s.historyLocked(&b)
	return b.String()
}

// Failure is reportLocked for a caller outside the scheduler that refuses to
// go on (the root package's checkpoint boundary): the reason as format and
// args state it, then the scheduler state and its last operations.
func (s *Scheduler) Failure(format string, args ...any) string {
	defer s.unlock(s.lock())
	return s.reportLocked(misuse, format, args...)
}

// dumpLocked renders the scheduler state — turn, holder, policy stack, the
// run and wake-up queues, and each waited-on object's wait list.
func (s *Scheduler) dumpLocked(b *strings.Builder) {
	fmt.Fprintf(b, "  turn=%d holder=%v stack=%v\n", s.turn, s.holder, &s.stack)
	fmt.Fprintf(b, "  runQ: %s\n", threadNames(s.runQ))
	fmt.Fprintf(b, "  wakeQ: %s\n", threadNames(s.wakeQ))
	for _, k := range s.waitedObjsLocked() {
		fmt.Fprintf(b, "  waitQ[%s#%d]: %s\n", s.labelLocked(k), k, threadNames(s.objs[k].waits))
	}
}

func threadNames(q tqueue) string {
	if q.head == nil {
		return "(empty)"
	}
	var names []string
	for t := q.head; t != nil; t = t.qnext {
		names = append(names, t.String())
	}
	return strings.Join(names, " ")
}

// The flight recorder. A hosted domain keeps its last ringLen traced
// operations in a ring its host record points to and recycles with it, so a
// warm run allocates nothing for it. TraceOp writes every operation, recorded
// or not; a report prints the whole ring. An unhosted scheduler has none.
const ringLen = 16

// source is where the turn of a traced operation came from. grantLocked sets
// the scheduler's src at every grant and TraceOp consumes it, so an operation
// no grant preceded ran on a kept turn.
type source uint8

const (
	srcKept    source = iota // held since the thread's previous operation: the solo lease, or a wrapper policy's retention
	srcRun                   // granted from the run queue
	srcWake                  // granted from the wake-up queue
	srcChooser               // granted to the Chooser's override of the policy stack's pick
	srcReplay                // granted to the thread the recorded schedule names
)

var sourceNames = [...]string{
	srcKept:    "kept",
	srcRun:     "run-queue grant",
	srcWake:    "wake-queue grant",
	srcChooser: "chooser override",
	srcReplay:  "replay",
}

// ringOp is one traced operation: when (logical time), who, what, on which
// object, with which outcome, and where its turn came from.
type ringOp struct {
	obj  uint64
	turn int64
	tid  int32
	op   OpKind
	st   EventStatus
	src  source
}

// ring is the flight recorder: n operations written this run, the last
// min(n, ringLen) of them in ops, the next at ops[n%ringLen].
type ring struct {
	ops [ringLen]ringOp
	n   uint64
}

// next claims the slot of the next operation.
func (r *ring) next() *ringOp {
	o := &r.ops[r.n%ringLen]
	r.n++
	return o
}

// historyLocked renders the flight recorder, oldest operation first. An
// object is named as the wait lists name it, by its label now.
func (s *Scheduler) historyLocked(b *strings.Builder) {
	if s.host == nil {
		return
	}
	r := s.host.ring
	first := r.n - min(r.n, ringLen)
	fmt.Fprintf(b, "  last %d of %d ops, oldest first:\n", r.n-first, r.n)
	for i := first; i < r.n; i++ {
		o := &r.ops[i%ringLen]
		fmt.Fprintf(b, "    turn=%d T%d %v", o.turn, o.tid, o.op)
		if o.obj != 0 {
			fmt.Fprintf(b, " %s#%d", s.labelLocked(o.obj), o.obj)
		}
		if st := o.st.String(); st != "" {
			b.WriteString(" " + st)
		}
		fmt.Fprintf(b, " (%s)\n", sourceNames[o.src])
	}
}
