package core

import (
	"fmt"

	"qithread/internal/policy"
)

// queueKind identifies which scheduler queue a thread currently occupies.
type queueKind uint8

const (
	qNone queueKind = iota // not yet registered or already exited
	qRun                   // run queue: runnable threads, FIFO
	qWake                  // wake-up queue: just-woken threads (BoostBlocked)
	qWait                  // wait queue: blocked in Wait
)

func (q queueKind) String() string {
	switch q {
	case qRun:
		return "run"
	case qWake:
		return "wake"
	case qWait:
		return "wait"
	default:
		return "none"
	}
}

// Thread is a participant registered with a Scheduler. In the QiThread
// architecture a Thread corresponds to one pthread; in this Go reproduction
// it is a coroutine of a hosted scheduler's driver (host.go), or a goroutine
// of a direct user of this package, gated by the turn mechanism. Its fields
// are plain data owned like the Scheduler's: the thread itself writes its
// clocks between synchronization operations, the scheduler everything else.
type Thread struct {
	id    int
	name  string
	sched *Scheduler

	// wantTurn is set while the thread is blocked in GetTurn or Wait and
	// should receive the turn as soon as it becomes eligible.
	wantTurn bool

	// granted is the grant token, set by grantLocked and cleared by the
	// thread. It sits in wantTurn's padding, as do waitStatus and joinGone.
	granted bool

	// waitStatus records how the most recent Wait completed.
	waitStatus WaitStatus

	// joinGone is set when DestroyObject retires joinObj: from then on
	// reports render the object like any other retired one, unnamed.
	joinGone bool

	// queue is the queue currently containing the thread — qNone once it
	// exited; qprev/qnext are the intrusive links chaining the thread into
	// it: the run queue, the wake-up queue or, while queue == qWait, obj's
	// wait list (see queue.go).
	queue        queueKind
	qprev, qnext *Thread

	// The thread's wait: the object it is blocked on, its absolute deadline
	// in turns (0: no timeout), its park sequence number (the deadline
	// heap's tie-break) and its position in the deadline heap, -1 while
	// untimed or not waiting. Meaningful while queue == qWait.
	obj      uint64
	deadline int64
	seq      uint64
	heapIdx  int

	// pstate is the lease policies' state for this thread (plain data, the
	// zero value is "no lease").
	pstate policy.PerThread

	// joinObj is the object the thread's joiners wait on and its exit
	// broadcasts (NewJoinObject), 0 for a thread nobody can join. The
	// scheduler stores no label for it: labelLocked renders "thread:" + name
	// from the thread itself.
	joinObj uint64

	// clock is the logical instruction clock used by LogicalClock mode.
	clock int64

	// vtime is the thread's virtual clock in work units (see the
	// virtual-time model in core.go).
	vtime int64
}

// VTime returns the thread's current virtual clock.
func (t *Thread) VTime() int64 { return t.vtime }

// SetVTime initializes the thread's virtual clock. The create wrapper uses it
// so a child thread starts at its creator's current virtual time.
func (t *Thread) SetVTime(v int64) { t.vtime = v }

// MeetVTime raises the thread's virtual clock to at least v, modeling a
// happens-before edge from an event at virtual time v (used by the PCS
// bypass path, which synchronizes outside the turn).
func (t *Thread) MeetVTime(v int64) { t.vtime = max(t.vtime, v) }

// AddVTime advances the thread's virtual clock by n without touching the
// logical instruction clock (sync-operation cost accounting outside the
// turn).
func (t *Thread) AddVTime(n int64) { t.vtime += n }

// ID returns the deterministic registration index of the thread (the main
// thread of a runtime is 0, the first created child 1, and so on).
func (t *Thread) ID() int { return t.id }

// Name returns the debugging name given at registration.
func (t *Thread) Name() string { return t.name }

// JoinObject returns the id of the thread's join object, 0 if NewJoinObject
// never gave it one.
func (t *Thread) JoinObject() uint64 { return t.joinObj }

// Clock returns the thread's current logical instruction clock.
func (t *Thread) Clock() int64 { return t.clock }

// PolicyState returns the thread's policy state, making *Thread implement
// policy.Thread.
func (t *Thread) PolicyState() *policy.PerThread { return &t.pstate }

func (t *Thread) String() string {
	return fmt.Sprintf("T%d(%s)", t.id, t.name)
}
