// Package qithread is a Go reproduction of QiThread, the
// synchronization-determinism runtime of "Semantics-Aware Scheduling Policies
// for Synchronization Determinism" (Zhao, Qiu, Jin — PPoPP 2019).
//
// QiThread enforces a deterministic total order over all synchronization
// operations of a multithreaded program. The original system interposes on
// pthreads via LD_PRELOAD; this reproduction instead provides a pthreads-like
// API (threads, mutexes, condition variables, semaphores, barriers, rwlocks)
// whose "threads" are gated by a deterministic user-space scheduler
// (internal/core). The threads of one scheduler domain are coroutines of one
// goroutine, since the turn runs them one at a time anyway (in Nondet mode
// each is a goroutine); domains are the unit of parallelism, and everything outside synchronization is delegated to the Go
// runtime scheduler, as the paper delegates it to the OS scheduler (Figure 4).
//
// A Runtime is created with a Config choosing one of three modes:
//
//   - Nondet: wrappers map directly onto Go's sync primitives. This is the
//     nondeterministic baseline all overheads are normalized against.
//   - RoundRobin: the deterministic turn-based mechanism with the round-robin
//     base policy (Parrot and QiThread). The five semantics-aware policies of
//     the paper (BoostBlocked, CreateAll, CSWhole, WakeAMAP, BranchedWake)
//     are enabled via Config.Policies; Parrot's soft-barrier and PCS
//     performance hints via Config.SoftBarriers and Config.PCS.
//   - LogicalClock: the Kendo/CoreDet-style baseline where the runnable
//     thread with the minimal instruction clock runs next.
//
// Typical use:
//
//	rt := qithread.New(qithread.Config{Mode: qithread.RoundRobin, Policies: qithread.AllPolicies})
//	rt.Run(func(t *qithread.Thread) {
//		m := rt.NewMutex(t, "m")
//		c := rt.NewCond(t, "cv")
//		child := t.Create("worker", func(w *qithread.Thread) { ... })
//		...
//		t.Join(child)
//	})
package qithread

import (
	"qithread/internal/core"
	"qithread/internal/domain"
)

// Policy re-exports the semantics-aware policy bitmask of internal/core so
// users configure a Runtime without importing internal packages.
type Policy = core.Policy

// Re-exported policy constants; see the core package for their semantics.
const (
	BoostBlocked = core.BoostBlocked
	CreateAll    = core.CreateAll
	CSWhole      = core.CSWhole
	WakeAMAP     = core.WakeAMAP
	BranchedWake = core.BranchedWake
	NoPolicies   = core.NoPolicies
	AllPolicies  = core.AllPolicies
)

// Mode selects how a Runtime schedules synchronization operations.
type Mode uint8

const (
	// Nondet uses Go's native synchronization primitives with no
	// deterministic scheduling. It is the baseline for overhead numbers.
	Nondet Mode = iota
	// RoundRobin is the deterministic turn-based mechanism with the
	// round-robin base policy used by Parrot and QiThread.
	RoundRobin
	// LogicalClock is the deterministic logical-clock-based policy used by
	// Kendo and CoreDet.
	LogicalClock
	// VirtualParallel simulates an ideal unconstrained parallel execution
	// and reports its virtual makespan. It is the measurement baseline the
	// harness normalizes against — the deterministic, noise-free stand-in
	// for the paper's nondeterministic pthreads runs on a large
	// multiprocessor. See internal/core for the model.
	VirtualParallel
)

// String returns the conventional name of the mode.
func (m Mode) String() string {
	switch m {
	case Nondet:
		return "nondet"
	case RoundRobin:
		return "round-robin"
	case LogicalClock:
		return "logical-clock"
	case VirtualParallel:
		return "virtual-parallel"
	default:
		return "mode?"
	}
}

// Deterministic reports whether the mode enforces synchronization determinism.
func (m Mode) Deterministic() bool { return m != Nondet }

// Config configures a Runtime.
type Config struct {
	// Mode selects the scheduling mode. The zero value is Nondet.
	Mode Mode

	// Policies enables QiThread's semantics-aware policies (RoundRobin mode
	// only). NoPolicies yields vanilla Parrot round-robin scheduling. The
	// bitmask is the one way to choose policies: every scheduler domain
	// enables them in its own policy stack (internal/policy).
	Policies Policy

	// SoftBarriers honors Parrot soft-barrier performance hints placed in
	// workloads (RoundRobin mode only). QiThread runs with this off: its
	// policies replace performance annotations.
	SoftBarriers bool

	// PCS honors Parrot performance-critical-section hints: synchronization
	// objects created as PCS objects bypass the deterministic scheduler
	// entirely, trading determinism for speed (the "Parrot w/ PCS" bars of
	// Figure 8).
	PCS bool

	// NoTurnLease disables the scheduler's solo-thread turn lease (the
	// amortized release path of internal/core). The lease is trace-neutral,
	// so this switch exists for determinism tests and for isolating lease
	// effects in benchmarks, not for production use.
	NoTurnLease bool

	// Record enables schedule tracing for determinism and stability
	// analysis.
	Record bool

	// RetainDeliveryLog materializes the cross-domain delivery log
	// (Runtime.DeliveryLog) in memory as messages cross XPipes. Off by
	// default: fingerprinting folds every delivery into per-pipe running
	// hashes at receive time, so the boundary is O(1) memory in steady state
	// and the log itself is only needed for debugging — trace inspection and
	// the determinism checker's log diffing.
	RetainDeliveryLog bool

	// Replay, when non-nil, is a previously recorded schedule (Runtime.
	// Trace) to ENFORCE: the scheduler grants turns in exactly the recorded
	// order and verifies each operation against the recording, panicking
	// with a divergence diagnostic on mismatch. The recording embeds all
	// policy effects, so a schedule recorded under any configuration
	// replays under any deterministic Mode. Requires a deterministic Mode.
	// The runtime borrows the slice instead of copying it: it is only read,
	// so one loaded schedule can drive several runtimes at once, but it must
	// not be modified until every run replaying it has ended.
	Replay []Event

	// StreamTrace, when non-nil, puts recording into streaming mode: each
	// domain's scheduler appends recorded events to the sink this function
	// returns for it (nil for a domain means retain that domain's trace in
	// memory as usual) instead of materializing the []Event trace. This is
	// the bounded-memory recording mode for million-event runs: RSS stays
	// flat while trace.BinaryWriter persists the schedule, and fingerprints
	// are identical to retained-mode runs because the running trace hash is
	// maintained either way. Runtime.Trace returns nil for streamed domains.
	// Requires Record and a deterministic Mode.
	StreamTrace func(domainID int) TraceSink

	// Resume, when non-nil, prepares the runtime to continue a checkpointed
	// execution: every scheduler starts with recording muted so the program
	// can re-run its setup phase (thread registration, object creation,
	// workers parking) without recording, and a call to Runtime.Resume then
	// verifies the rebuilt structure against the checkpoint and reinstates
	// counters, clocks and hashes. Requires Record and a deterministic Mode.
	Resume *Checkpoint

	// Chooser, when non-nil, constructs a per-domain choice-point hook: each
	// scheduler domain consults its Chooser at every scheduling decision with
	// more than one legal candidate — turn grants, signal wake targets,
	// ingress admission batch boundaries — and the hook may override the
	// configured policy's pick. This is the schedule-space exploration surface
	// (internal/explore, cmd/qiexplore): record the index taken at each
	// choice point and any explored execution is itself replayable. nil for a
	// domain means that domain runs unhooked. Requires a deterministic Mode.
	Chooser func(domainID int) Chooser
}

// Event re-exports the trace event type.
type Event = core.Event

// TraceSink re-exports the streaming trace receiver used by
// Config.StreamTrace; internal/trace.BinaryWriter implements it.
type TraceSink = core.TraceSink

// Chooser re-exports the choice-point hook consulted at scheduling decisions
// with more than one legal candidate; see Config.Chooser and
// internal/policy.Chooser.
type Chooser = core.Chooser

// ChoiceKind re-exports the choice-point kind enumeration (turn/wake/admit).
type ChoiceKind = core.ChoiceKind

// Choice re-exports one recorded choice-point resolution.
type Choice = core.Choice

// Re-exported choice kinds; see internal/policy for their semantics.
const (
	ChooseTurn  = core.ChooseTurn
	ChooseWake  = core.ChooseWake
	ChooseAdmit = core.ChooseAdmit
)

// Delivery re-exports one cross-domain XPipe delivery with its sequencing
// stamps; see Runtime.DeliveryLog.
type Delivery = domain.Delivery

// Fingerprint re-exports the partitioned-execution determinism fingerprint;
// see Runtime.Fingerprint.
type Fingerprint = domain.Fingerprint
