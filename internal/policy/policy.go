// Package policy is the pluggable scheduling-policy engine of the QiThread
// reproduction. The paper's central contribution is that semantics-aware
// policies are *layered* on a base turn mechanism (Section 3; Section 5.2
// enables them one by one: BoostBlocked → CreateAll → CSWhole → WakeAMAP →
// BranchedWake). This package makes that layering literal: every policy —
// the two base turn policies included — is an object implementing a small
// set of hook interfaces, and a Stack composes them in a fixed order.
//
// The scheduler (internal/core) and the pthreads-style wrappers (package
// qithread) no longer test a configuration bitmask at each decision point;
// they dispatch through the stack:
//
//	hook        dispatched from                  decides
//	---------   ------------------------------   --------------------------------
//	PickNext    scheduler, turn grant            which runnable thread runs next
//	OnWake      scheduler, wait-queue wake-up    run queue vs wake-up queue
//	OnBlock     scheduler, Wait                  (observes; revokes a wake lease)
//	OnRegister  scheduler, Register              (observes)
//	OnExit      scheduler, Exit                  (observes)
//	ExtendLease wrappers, every release point    whether the turn lease extends
//	OnAcquire   wrappers, lock acquisition       whether a CS-scoped lease begins
//	OnRelease   wrappers, lock release           (revokes an OnAcquire lease)
//	OnSignal    wrappers, signal/post            wake lease while waiters remain
//	OnBroadcast wrappers, cond broadcast         (revokes a wake lease)
//	OnArm       wrappers, keep_turn request      one-shot lease (CreateAll)
//	OnCreate    wrappers, thread creation        (observes)
//	OnDummySync wrappers, dummy_sync             branch re-alignment accounting
//
// The lease hooks (ExtendLease, OnAcquire/OnRelease, OnSignal/OnBroadcast,
// OnArm, OnBlock) together form the policy half of the turn-leasing design:
// a policy grants a lease at a semantic site (critical-section entry, a wake
// burst with waiters remaining, an armed creation loop), ExtendLease is the
// per-release-point validation that the lease still stands, and the revoking
// hooks end it. The scheduler (internal/core) layers its own solo-thread
// lease underneath; see the lease state machine in DESIGN.md §4.6.
//
// A policy implements only the hooks it needs; the stack precomputes, per
// hook, the ordered list of policies that implement it, so dispatch is a
// loop over a short (usually zero- or one-element) slice. Each policy also
// owns a Metrics block — the per-policy decision counters reported by
// qistat/qibench — and one word of per-thread state addressed by the slot
// index the stack assigns at construction time.
//
// The bitmask (Set; core.Policy / qithread.Config.Policies alias it) is how a
// Runtime is configured: it compiles down to a canonical stack via
// CanonicalStack, producing byte-identical schedules to the original
// interleaved implementation (enforced by the trace-compatibility suite in
// internal/harness).
package policy

import "fmt"

// Queue identifies the runnable queue a thread is placed on when it leaves
// the wait queue.
type Queue uint8

const (
	// QueueRun is the ordinary FIFO run queue.
	QueueRun Queue = iota
	// QueueWake is the higher-priority just-woken queue (Section 3.1).
	QueueWake
)

// Thread is the engine's view of a scheduler thread. It is implemented by
// *core.Thread; policies never see wrapper-level state.
type Thread interface {
	// ID is the deterministic registration index.
	ID() int
	// Clock is the logical instruction clock (LogicalClock base policy).
	Clock() int64
	// VTime is the virtual clock (VirtualClock base policy).
	VTime() int64
	// PolicyState is the per-thread state block of the owning stack.
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

// PerThread is the per-thread policy state block. Each policy in a stack
// owns one uint64 word addressed by its slot index, so policy state lives
// intrusively on the thread (no map lookups on the hot path) while remaining
// fully generic: a sixth policy gets a slot like the first five.
//
// words[0] is the lease-hint mask (one bit per slot, maintained through
// Base.HintLease); the state word of the policy at slot i is words[i+1].
//
// inline is the in-place backing used by Stack.InitState when the stack fits
// (every canonical stack does), so threads carry their policy state without a
// separate heap block. A PerThread initialized that way must not be copied —
// words would keep pointing into the original.
type PerThread struct {
	words  []uint64
	inline [8]uint64
}

// Word returns the state word for the given slot.
func (pt *PerThread) Word(slot int) *uint64 { return &pt.words[slot+1] }

// Snapshot returns a copy of the state words — the lease-hint mask plus one
// word per policy slot — the serializable form of a thread's policy state
// for checkpointing. Policy state is deliberately plain data (each policy
// owns one uint64), so a snapshot fully captures it.
func (pt *PerThread) Snapshot() []uint64 {
	out := make([]uint64, len(pt.words))
	copy(out, pt.words)
	return out
}

// RestoreWords overwrites the state words from a Snapshot. The block must
// have been initialized by a stack of the same shape (same policy count) as
// the snapshot's.
func (pt *PerThread) RestoreWords(words []uint64) error {
	if len(words) != len(pt.words) {
		return fmt.Errorf("policy: state block has %d words, snapshot has %d (different policy stack?)", len(pt.words), len(words))
	}
	copy(pt.words, words)
	return nil
}

// leaseHint returns the lease-hint mask word.
func (pt *PerThread) leaseHint() *uint64 { return &pt.words[0] }

// Policy is one composable scheduling policy. Implementations embed Base and
// additionally implement the hook interfaces they need (Picker, Waker,
// Leaser, ...). All hooks run either under the scheduler mutex or under
// the turn, so implementations need no locking of their own; each Metrics
// field must only be incremented from one of the two contexts (see Metrics).
type Policy interface {
	// Name is the stable identifier used in stack descriptors and metrics.
	Name() string
	// Attach is called exactly once when the policy is placed in a stack,
	// handing it its per-thread state slot and the decision counters it
	// increments (the stack's own block: Stack.Metrics copies it).
	Attach(slot int, m *Metrics)
}

// Base is the embeddable core of a Policy implementation: it stores the slot
// index and counter block assigned by Stack construction.
type Base struct {
	slot int
	m    *Metrics
}

// Attach implements Policy.
func (b *Base) Attach(slot int, m *Metrics) { b.slot, b.m = slot, m }

// Slot returns the per-thread state slot assigned to this policy.
func (b *Base) Slot() int { return b.slot }

// word returns this policy's state word on t.
func (b *Base) word(t Thread) *uint64 { return t.PolicyState().Word(b.slot) }

// HintLease publishes whether this policy may currently hold a lease on the
// turn for t. ExtendLease is consulted at every turn-release point — far more
// often than lease state changes — so the stack short-circuits release points
// whose hint mask is clear with a single load instead of dispatching to every
// leaser. A Leaser must keep its hint bit set whenever its ExtendLease could
// return true, or the stack will skip asking it.
func (b *Base) HintLease(t Thread, on bool) { b.hintLeaseIn(t.PolicyState(), on) }

// hintLeaseIn is HintLease on an already-fetched state block, for hot
// hooks that touch both their word and the mask in one call.
func (b *Base) hintLeaseIn(ps *PerThread, on bool) {
	w := ps.leaseHint()
	if on {
		*w |= 1 << uint(b.slot)
	} else {
		*w &^= 1 << uint(b.slot)
	}
}

// Picker chooses the next turn holder. Returning nil defers to the next
// picker in the stack; the base policy sits at the bottom and always picks a
// thread when one is runnable.
type Picker interface {
	Policy
	PickNext(v View) Thread
}

// Waker decides which runnable queue a just-woken thread joins. Returning
// ok=false defers to the next waker; the default is QueueRun.
type Waker interface {
	Policy
	OnWake(t Thread, timedOut bool) (q Queue, ok bool)
}

// Blocker observes a thread parking on the wait queue.
type Blocker interface {
	Policy
	OnBlock(t Thread)
}

// Registrar observes thread registration.
type Registrar interface {
	Policy
	OnRegister(t Thread)
}

// Exiter observes thread exit.
type Exiter interface {
	Policy
	OnExit(t Thread)
}

// Leaser is consulted, in stack order, at every turn-release point to
// validate a lease on the turn. The first leaser returning true extends the
// lease: the current thread keeps the turn across the release point.
// Implementations must publish a lease hint (Base.HintLease) whenever their
// ExtendLease could return true: the stack answers release points with a
// clear hint mask without dispatching.
type Leaser interface {
	Policy
	ExtendLease(t Thread) bool
}

// Acquirer observes exclusive critical-section entry and exit. OnAcquire
// returning true grants a critical-section-scoped lease at the acquisition
// site (the critical section is scheduled as one turn); OnRelease revokes it.
type Acquirer interface {
	Policy
	OnAcquire(t Thread) (lease bool)
	OnRelease(t Thread)
}

// Signaler observes a wake-producing operation (cond signal, sem post) with
// the number of threads still waiting on the object after the wake-up.
type Signaler interface {
	Policy
	OnSignal(t Thread, waitersLeft int)
}

// Broadcaster observes a condition-variable broadcast (no waiters remain).
type Broadcaster interface {
	Policy
	OnBroadcast(t Thread)
}

// Armer handles a keep_turn arming request (Thread.KeepTurn, Figure 7a).
type Armer interface {
	Policy
	OnArm(t Thread)
}

// Creator observes thread creation on the parent's side.
type Creator interface {
	Policy
	OnCreate(parent, child Thread)
}

// Aligner enables and accounts dummy synchronization operations
// (Thread.DummySync, Figure 7b).
type Aligner interface {
	Policy
	OnDummySync(t Thread)
}
