package policy

import "math"

// BaseKind selects the base turn policy at the bottom of a Stack, the rule
// that picks a thread whenever one is runnable.
type BaseKind uint8

const (
	// RoundRobin grants the turn to the head of the run queue (the Parrot and
	// QiThread base policy). Schedules depend only on the program's
	// synchronization structure, not on input sizes or compute durations.
	RoundRobin BaseKind = iota
	// LogicalClock grants the turn to the runnable thread with the smallest
	// instruction clock, ties broken by thread ID — the Kendo / CoreDet
	// baseline.
	LogicalClock
	// VirtualClock is LogicalClock keyed on the virtual clock: greedy list
	// scheduling on unbounded cores, the ideal-parallel measurement baseline.
	// Its synchronization operations do not serialize through the turn in
	// virtual time (core's traceVTime): only real per-object dependencies
	// order threads.
	VirtualClock
)

// String returns the name the base policy carries in descriptors and metrics.
func (b BaseKind) String() string {
	switch b {
	case LogicalClock:
		return "logical-clock"
	case VirtualClock:
		return "virtual-clock"
	default:
		return "round-robin"
	}
}

// Counter slots: the five semantic policies at their setNames index, the
// base policy last.
const (
	slotBoostBlocked = iota
	slotCreateAll
	slotCSWhole
	slotWakeAMAP
	slotBranchedWake
	slotBase
)

// Stack is a base turn policy with the enabled semantics-aware policies
// layered above it in the Section 5.2 order. The composition is fixed by Init
// and never changes mid-run, which is what makes schedules deterministic and
// decisions attributable. It is plain data with no pointer into itself, held
// by value in its scheduler; policy state lives on the threads (PerThread),
// so besides the configuration a Stack carries only its decision counters.
//
// All hooks run either inside the scheduler or under the turn, so they need
// no locking of their own; see Metrics for which counter is written in which
// context.
type Stack struct {
	base    BaseKind
	set     Set
	metrics [slotBase + 1]Metrics
}

// Init fills s in place: the base turn policy plus, on a round-robin base
// only, the policies of set. The logical-clock and virtual-clock baselines run
// without semantic layers, as in the paper; this is the one place that rule
// lives. Counters start at zero.
func (s *Stack) Init(base BaseKind, set Set) {
	if base != RoundRobin {
		set = NoPolicies
	}
	*s = Stack{base: base, set: set & AllPolicies}
	for i, n := range setNames {
		s.metrics[i].Policy = n.s
	}
	s.metrics[slotBase].Policy = base.String()
}

// --- scheduler-level hooks ---

// PickNext returns the thread that should hold the turn next, or nil if no
// thread is runnable. BoostBlocked (Section 3.1) schedules the wake-up queue
// before the run queue; otherwise the base policy decides. PickNext has no
// side effects — the scheduler re-evaluates it whenever a not-yet-eligible
// thread asks for the turn — and the decision is counted by OnGrant.
func (s *Stack) PickNext(v View) Thread {
	if s.set.Has(BoostBlocked) {
		if t := v.FrontWake(); t != nil {
			return t
		}
	}
	if s.base == RoundRobin {
		return v.FrontRun()
	}
	// The runnable thread with the minimal (clock, id) runs next. A blocked
	// waiter cannot issue operations, so it does not gate; only runnable
	// threads compete (Kendo's rule, see internal/core).
	var best Thread
	bestKey := int64(math.MaxInt64)
	for t := v.NextRunnable(nil); t != nil; t = v.NextRunnable(t) {
		c := t.Clock()
		if s.base == VirtualClock {
			c = t.VTime()
		}
		if c < bestKey || (c == bestKey && best != nil && t.ID() < best.ID()) {
			bestKey, best = c, t
		}
	}
	return best
}

// OnGrant counts one committed turn grant: the scheduler calls it once per
// handoff it decided through PickNext, with the queue the grantee came off.
// A grant off the wake-up queue is BoostBlocked's decision, any other the
// base policy's.
func (s *Stack) OnGrant(from Queue) {
	if from == QueueWake {
		s.metrics[slotBoostBlocked].Picks++
	} else {
		s.metrics[slotBase].Picks++
	}
}

// WakeQueue returns the runnable queue a just-woken thread joins: the
// wake-up queue under BoostBlocked, the tail of the run queue otherwise (the
// vanilla Parrot behaviour).
func (s *Stack) WakeQueue(t Thread, timedOut bool) Queue {
	if s.set.Has(BoostBlocked) {
		s.metrics[slotBoostBlocked].WakeBoosts++
		return QueueWake
	}
	return QueueRun
}

// OnBlock notifies the stack that t is parking on the wait queue, which ends
// a WakeAMAP lease ("... or the unblocking thread itself gets blocked",
// Section 3.4).
func (s *Stack) OnBlock(t Thread) {
	if s.set.Has(WakeAMAP) {
		t.PolicyState().Wake = false
	}
}

// --- wrapper-level hooks ---

// ExtendLease reports whether a policy's lease keeps the turn with t at a
// release point. The policies are consulted in Section 5.2 order and the
// first extension wins (only the winner counts it):
//
//   - CreateAll (Section 3.2, Figure 7a): an armed keep_turn is a one-shot
//     lease covering exactly this release point, so a creation loop completes
//     back to back;
//   - CSWhole (Section 3.3): every release point inside an exclusive section
//     extends the lease OnAcquire granted, so the whole section is scheduled
//     as a single turn;
//   - WakeAMAP (Section 3.4): a thread executing unblocking operations holds
//     the lease while more threads are waiting on the same object, so the
//     unblocking loop runs before anyone else is scheduled and the woken
//     threads resume aligned.
//
// Lease state is only ever set by an enabled policy's hook, so the state
// alone decides and the common case — no lease held — is three loads.
func (s *Stack) ExtendLease(t Thread) bool {
	ps := t.PolicyState()
	switch {
	case ps.Armed:
		ps.Armed = false
		s.metrics[slotCreateAll].LeaseExtends++
	case ps.CSDepth > 0:
		s.metrics[slotCSWhole].LeaseExtends++
	case ps.Wake:
		s.metrics[slotWakeAMAP].LeaseExtends++
	default:
		return false
	}
	return true
}

// OnAcquire notifies the stack of an exclusive lock acquisition and reports
// whether a lease on the turn begins at the acquisition site: under CSWhole
// it does, and sections nest (the lease ends when the outermost one does).
func (s *Stack) OnAcquire(t Thread) bool {
	if !s.set.Has(CSWhole) {
		return false
	}
	t.PolicyState().CSDepth++
	s.metrics[slotCSWhole].LeaseExtends++
	return true
}

// OnRelease notifies the stack of an exclusive lock release.
func (s *Stack) OnRelease(t Thread) {
	if !s.set.Has(CSWhole) {
		return
	}
	if ps := t.PolicyState(); ps.CSDepth > 0 {
		ps.CSDepth--
	}
}

// NeedWaiters reports whether OnSignal consumes the remaining-waiter count,
// letting wrappers skip computing it otherwise.
func (s *Stack) NeedWaiters() bool { return s.set.Has(WakeAMAP) }

// OnSignal notifies the stack of a wake-producing operation (cond signal,
// sem post) with the number of threads still waiting on the object: WakeAMAP
// holds its lease exactly while some remain.
func (s *Stack) OnSignal(t Thread, waitersLeft int) {
	if s.set.Has(WakeAMAP) {
		t.PolicyState().Wake = waitersLeft > 0
	}
}

// OnBroadcast notifies the stack of a condition-variable broadcast: nobody is
// left waiting, so a WakeAMAP lease ends.
func (s *Stack) OnBroadcast(t Thread) {
	if s.set.Has(WakeAMAP) {
		t.PolicyState().Wake = false
	}
}

// OnArm handles a keep_turn arming request (Thread.KeepTurn). Without
// CreateAll it is a no-op, so instrumented programs behave identically to
// uninstrumented ones under other configurations (Figure 7a).
func (s *Stack) OnArm(t Thread) {
	if s.set.Has(CreateAll) {
		t.PolicyState().Armed = true
		s.metrics[slotCreateAll].Arms++
	}
}

// WantDummySync reports whether dummy synchronization operations are enabled
// (BranchedWake, Section 3.5): without it Thread.DummySync is a no-op and the
// program counts as uninstrumented.
func (s *Stack) WantDummySync() bool { return s.set.Has(BranchedWake) }

// OnDummySync accounts one executed dummy synchronization operation, the
// empty turn that re-aligns threads which skipped an unblocking operation on
// a branch (Figure 7b).
func (s *Stack) OnDummySync(t Thread) {
	if s.set.Has(BranchedWake) {
		s.metrics[slotBranchedWake].DummySyncs++
	}
}

// --- introspection ---

// Owns reports whether ps is a state this stack's hooks could have left:
// every lease it records belongs to an enabled policy. A checkpoint restore
// checks it, since ExtendLease trusts the state without asking the bitmask.
func (s *Stack) Owns(ps PerThread) bool {
	return (!ps.Armed || s.set.Has(CreateAll)) &&
		(ps.CSDepth == 0 || s.set.Has(CSWhole)) &&
		(!ps.Wake || s.set.Has(WakeAMAP))
}

// Metrics snapshots the decision counters of the enabled policies in stack
// order, the base policy last.
func (s *Stack) Metrics() []Metrics {
	out := make([]Metrics, 0, len(s.metrics))
	for i, n := range setNames {
		if s.set.Has(n.p) {
			out = append(out, s.metrics[i])
		}
	}
	return append(out, s.metrics[slotBase])
}

// String renders the stack descriptor: base|layer>layer>...
func (s *Stack) String() string {
	out := s.base.String()
	sep := "|"
	for _, n := range setNames {
		if s.set.Has(n.p) {
			out += sep + n.s
			sep = ">"
		}
	}
	return out
}
