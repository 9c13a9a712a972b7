package policy

import "fmt"

// Metrics counts the scheduling decisions one policy made, under the
// policy's name: the snapshot Stack.Metrics, core.Snapshot.PolicyMetrics and
// the tools report, so that after a run each speedup (or slowdown) can be
// attributed to the policy whose decisions produced it. The Stack's live
// blocks are these counters without the name (counts), which is a constant
// of the slot.
//
// The counters are deliberately not atomic: each is incremented from exactly
// one serialized context — Picks and WakeBoosts inside the scheduler, the
// others under the turn — and a scheduler has one owner at a time, so plain
// increments are race-free and keep the hooks at seed cost (an atomic add per
// lock acquisition measurably regressed
// BenchmarkMechanismLockUnlock/turn-all-policies). Snapshots must be taken
// while the scheduler is quiescent: between runs or after every thread joined.
type Metrics struct {
	// Policy is the name of the policy the block belongs to.
	Policy string
	// Picks counts the turn grants this policy decided, once per committed
	// grant (Stack.OnGrant), so the count is a function of the schedule.
	Picks int64
	// WakeBoosts counts wake-ups this policy routed to the wake-up queue.
	WakeBoosts int64
	// LeaseExtends counts release points where this policy's lease kept the
	// turn with the current thread (lease extensions).
	LeaseExtends int64
	// Arms counts keep_turn arming requests this policy honored.
	Arms int64
	// DummySyncs counts dummy synchronization alignments executed under
	// this policy.
	DummySyncs int64
}

// Total is the number of decisions of any kind.
func (m Metrics) Total() int64 {
	return m.Picks + m.WakeBoosts + m.LeaseExtends + m.Arms + m.DummySyncs
}

// String summarizes the metrics on one line.
func (m Metrics) String() string {
	return fmt.Sprintf("%-13s picks=%d wake-boosts=%d lease-extends=%d keep-turn-arms=%d dummy-syncs=%d",
		m.Policy, m.Picks, m.WakeBoosts, m.LeaseExtends, m.Arms, m.DummySyncs)
}
