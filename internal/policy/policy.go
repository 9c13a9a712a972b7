// Package policy holds the scheduling policies of the QiThread reproduction:
// the three base turn policies (round-robin, logical-clock, virtual-clock)
// and the paper's five semantics-aware policies, which layer on the
// round-robin base in the order Section 5.2 enables them (BoostBlocked →
// CreateAll → CSWhole → WakeAMAP → BranchedWake). The set is closed, as it is
// in the paper: Stack is one struct — base kind, enabled-policy bitmask,
// decision counters — whose methods are the policies written out, each a few
// lines at the decision point it owns. The scheduler (internal/core) and the
// pthreads-style wrappers (package qithread) call them at fixed sites:
//
//	hook        dispatched from                  decides
//	---------   ------------------------------   --------------------------------
//	PickNext    scheduler, turn grant            which runnable thread runs next
//	OnGrant     scheduler, committed turn grant  (counts the pick)
//	WakeQueue   scheduler, wait-queue wake-up    run queue vs wake-up queue
//	OnBlock     scheduler, Wait                  (revokes a wake lease)
//	ExtendLease wrappers, every release point    whether the turn lease extends
//	OnAcquire   wrappers, lock acquisition       whether a CS-scoped lease begins
//	OnRelease   wrappers, lock release           (revokes an OnAcquire lease)
//	OnSignal    wrappers, signal/post            wake lease while waiters remain
//	OnBroadcast wrappers, cond broadcast         (revokes a wake lease)
//	OnArm       wrappers, keep_turn request      one-shot lease (CreateAll)
//	OnDummySync wrappers, dummy_sync             branch re-alignment accounting
//
// The lease hooks (ExtendLease, OnAcquire/OnRelease, OnSignal/OnBroadcast,
// OnArm, OnBlock) together form the policy half of the turn-leasing design:
// a policy grants a lease at a semantic site (critical-section entry, a wake
// burst with waiters remaining, an armed creation loop), ExtendLease is the
// per-release-point validation that the lease still stands, and the revoking
// hooks end it. The scheduler (internal/core) layers its own solo-thread
// lease underneath, a predicate; see turn leasing in DESIGN.md §4.6.
//
// A disabled policy's hook is one bitmask test that falls through: it never
// touches per-thread state or a counter. The bitmask (Set; qithread.Policy
// aliases it) is the one way to configure policies.
package policy

// Queue identifies the runnable queue a thread is placed on when it leaves
// the wait queue.
type Queue uint8

const (
	// QueueRun is the ordinary FIFO run queue.
	QueueRun Queue = iota
	// QueueWake is the higher-priority just-woken queue (Section 3.1).
	QueueWake
)

// Thread is the policies' view of a scheduler thread. It is implemented by
// *core.Thread; policies never see wrapper-level state.
type Thread interface {
	// ID is the deterministic registration index.
	ID() int
	// Clock is the logical instruction clock (logical-clock base policy).
	Clock() int64
	// VTime is the virtual clock (virtual-clock base policy).
	VTime() int64
	// PolicyState is the thread's policy state.
	PolicyState() *PerThread
}

// View is the read-only queue state PickNext decides over. It is implemented
// by the scheduler and only valid for the duration of one PickNext call.
type View interface {
	// FrontRun returns the head of the run queue, or nil if it is empty.
	FrontRun() Thread
	// FrontWake returns the head of the wake-up queue, or nil if empty.
	FrontWake() Thread
	// NextRunnable walks all runnable threads in queue order (run queue
	// first, then wake-up queue). A nil argument starts the walk; nil is
	// returned past the end.
	NextRunnable(after Thread) Thread
}

// PerThread is what the lease policies remember about one thread, embedded in
// the scheduler's thread record. It is plain data — the zero value is a thread
// holding no lease, and a checkpoint carries the struct as it is
// (core.ThreadState.Policy). Every field is written only under the turn, by
// the hook of the policy that owns it, and only while that policy is enabled.
type PerThread struct {
	// Armed is CreateAll's pending keep_turn: a one-shot lease covering the
	// thread's next release point.
	Armed bool
	// Wake is WakeAMAP's sticky wake lease: the thread's last wake-up left
	// more threads waiting on the same object.
	Wake bool
	// CSDepth is CSWhole's nesting depth of exclusive sections currently
	// held; the critical-section lease stands while it is non-zero.
	CSDepth uint32
}
