// Package core implements the deterministic user-space scheduler that is the
// primary contribution of "Semantics-Aware Scheduling Policies for
// Synchronization Determinism" (QiThread, PPoPP 2019).
//
// The scheduler enforces the turn-based mechanism common to all DMT systems:
// at any time at most one registered thread holds the turn, and a
// synchronization operation may execute only while its thread holds the turn.
// Which thread gets the next turn is decided by a scheduling policy:
//
//   - Round robin (the Parrot and QiThread base policy): the head of the run
//     queue is eligible. With the BoostBlocked policy, threads that were just
//     woken from the wait queue sit in a higher-priority wake-up queue and
//     run before the run queue.
//   - Logical clock (the Kendo / CoreDet baseline): the runnable thread with
//     the globally minimal instruction clock is eligible, ties broken by
//     thread ID.
//
// The package exposes exactly the primitives of Table 1 of the paper
// (GetTurn, PutTurn, Wait, Signal, Broadcast) plus registration, turn
// retention (used by the CreateAll / CSWhole / WakeAMAP wrapper policies),
// logical-clock accounting, deterministic logical timeouts, and schedule
// tracing. The higher-level pthreads-style wrappers live in the root
// qithread package.
package core

import (
	"fmt"

	"qithread/internal/policy"
)

// Mode selects the base scheduling policy of a Scheduler.
type Mode uint8

const (
	// RoundRobin passes the turn around the run queue in FIFO order. It is
	// the base policy of both Parrot and QiThread and provides schedule
	// stability: the schedule depends only on the synchronization structure
	// of the program, not on input sizes or compute durations.
	RoundRobin Mode = iota
	// LogicalClock grants the turn to the runnable thread with the smallest
	// instruction clock (see AddWork), ties broken by thread ID. This is the
	// Kendo / CoreDet baseline. It balances imbalanced synchronization
	// without annotations but is not stable: input changes perturb clocks
	// and therefore schedules.
	LogicalClock
	// VirtualParallel simulates an UNCONSTRAINED parallel execution: the
	// runnable thread with the smallest virtual clock acts next (greedy
	// list scheduling on unbounded cores) and synchronization operations do
	// NOT serialize through a global turn in virtual time — only real
	// per-object dependencies (who holds the lock, who signals whom) order
	// threads. Its virtual makespan models the nondeterministic pthreads
	// baseline the paper normalizes against, while remaining deterministic
	// and noise-free. It is a measurement baseline, not a DMT policy.
	VirtualParallel
)

// String returns the conventional name of the mode.
func (m Mode) String() string {
	switch m {
	case RoundRobin:
		return "round-robin"
	case LogicalClock:
		return "logical-clock"
	case VirtualParallel:
		return "virtual-parallel"
	default:
		return fmt.Sprintf("mode(%d)", uint8(m))
	}
}

// base returns the base turn policy that implements the mode.
func (m Mode) base() policy.BaseKind {
	switch m {
	case LogicalClock:
		return policy.LogicalClock
	case VirtualParallel:
		return policy.VirtualClock
	default:
		return policy.RoundRobin
	}
}

// Policy is the bitmask of the five semantics-aware scheduling policies of
// the paper (Section 3), the one way to configure them: New enables the
// policies of Config.Policies in the scheduler's policy stack
// (internal/policy), whose hooks make every scheduling decision.
type Policy = policy.Set

// Re-exported policy constants; see internal/policy for their semantics.
const (
	BoostBlocked = policy.BoostBlocked
	CreateAll    = policy.CreateAll
	CSWhole      = policy.CSWhole
	WakeAMAP     = policy.WakeAMAP
	BranchedWake = policy.BranchedWake
	NoPolicies   = policy.NoPolicies
	AllPolicies  = policy.AllPolicies
)

// Config configures a Scheduler.
type Config struct {
	// Mode selects the base policy. The zero value is RoundRobin.
	Mode Mode
	// Policies is the set of semantics-aware policies layered on the
	// RoundRobin base. The LogicalClock and VirtualParallel baselines run
	// without them, as in the paper, whatever is set here.
	Policies Policy
	// Record enables schedule tracing. Each completed synchronization
	// operation appends one Event to the trace.
	Record bool
	// Sink, when non-nil (and Record is set), streams recorded events out
	// instead of retaining them in memory: the bounded-memory recording mode
	// for million-event runs. The running trace hash and length are
	// maintained identically in both modes, so fingerprints are unaffected;
	// Trace() returns nil in streaming mode.
	Sink TraceSink
	// SuspendRecording starts the scheduler with recording muted. A
	// checkpoint restore uses it: the program re-runs its setup phase
	// (thread registration, object creation) without recording, then
	// RestoreState reinstates the recorded trace hash/length and unmutes.
	SuspendRecording bool
	// DomainID identifies the scheduler domain this scheduler instance
	// serves (see internal/domain). Recorded events carry it, so per-domain
	// traces of a partitioned execution can be merged and attributed. The
	// default 0 is the single-domain configuration.
	DomainID int
	// NoLease disables the scheduler's solo-thread turn lease (see
	// Scheduler.PutTurn). The lease is trace-neutral — it only short-circuits
	// handoffs the thread would win anyway — so this switch exists for
	// determinism tests (lease on vs off must fingerprint identically) and
	// for isolating lease effects in benchmarks.
	NoLease bool
	// Chooser, when non-nil, is consulted at every scheduling decision with
	// more than one legal candidate — which runnable thread is granted the
	// free turn, which waiter a Signal wakes — and may override the policy
	// stack's default (see internal/policy.Chooser and internal/explore).
	// Replay runs consult it only for wake choices: turn grants follow the
	// recorded schedule, which already embeds the turn decisions, while the
	// schedule's thread order cannot express which waiter a signal woke.
	Chooser policy.Chooser
}

// Chooser re-exports the choice-point hook of the policy engine; see
// internal/policy.Chooser and Config.Chooser.
type Chooser = policy.Chooser

// ChoiceKind re-exports the choice-point kind enumeration.
type ChoiceKind = policy.ChoiceKind

// Choice re-exports one recorded choice-point resolution.
type Choice = policy.Choice

// Re-exported choice kinds; see internal/policy for their semantics.
const (
	ChooseTurn  = policy.ChooseTurn
	ChooseWake  = policy.ChooseWake
	ChooseAdmit = policy.ChooseAdmit
)

// Virtual time. The scheduler maintains a critical-path ("virtual time")
// model of the execution: compute between synchronization operations advances
// only the executing thread's virtual clock (threads compute in parallel),
// while synchronization operations serialize through the turn — operation k
// of the deterministic total order cannot start before operation k−1 has
// finished, nor before its own thread has reached it. The maximum final
// virtual clock over all threads is the virtual makespan, an estimate of the
// program's parallel wall-clock time on an unloaded multiprocessor.
//
// The harness measures virtual makespans rather than host wall time so that
// the paper's results — which are all about lost parallelism under
// deterministic scheduling — reproduce faithfully on any host, including
// single-core CI machines where every mode would otherwise serialize
// identically.

// Virtual-time cost, in work units, of one synchronization operation: under
// the turn mechanism (RoundRobin, LogicalClock: wrapper + scheduler queues),
// and as a native operation (VirtualParallel, and the root package's Nondet
// mode: a plain pthread op is much cheaper than a scheduled turn).
const (
	vSyncCostTurn   int64 = 12
	VSyncCostNative int64 = 4
)

// WaitStatus reports how a Wait call completed.
type WaitStatus uint8

const (
	// WaitSignaled means the thread was woken by Signal or Broadcast.
	WaitSignaled WaitStatus = iota
	// WaitTimeout means the logical timeout expired before any wake-up.
	WaitTimeout
)

// String returns "signaled" or "timeout".
func (w WaitStatus) String() string {
	if w == WaitTimeout {
		return "timeout"
	}
	return "signaled"
}

// NoTimeout is the timeout value for Wait calls that never time out,
// mirroring Parrot's wait(addr, 0).
const NoTimeout int64 = 0
