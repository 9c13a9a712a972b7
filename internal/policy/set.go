package policy

// Set is a bitmask of the five semantics-aware scheduling policies of the
// paper (Section 3). It is the configuration surface: Stack.Init enables the
// policies of a Set, core.Config.Policies is one, and qithread.Policy
// aliases it.
type Set uint8

const (
	// BoostBlocked prioritizes threads that were just woken from the wait
	// queue by placing them on the wake-up queue, which is scheduled before
	// the run queue (Section 3.1).
	BoostBlocked Set = 1 << iota
	// CreateAll lets a thread keep the turn across a pthread_create loop so
	// all children are created back to back (Section 3.2).
	CreateAll
	// CSWhole schedules a critical section (lock ... unlock) as a single
	// turn (Section 3.3).
	CSWhole
	// WakeAMAP lets a thread executing unblocking operations keep the turn
	// while more threads are waiting on the same condition variable or
	// semaphore (Section 3.4).
	WakeAMAP
	// BranchedWake aligns threads that skip an unblocking operation on a
	// branch by issuing a dummy synchronization operation (Section 3.5).
	BranchedWake

	// NoPolicies is the vanilla round-robin configuration used by Parrot.
	NoPolicies Set = 0
	// AllPolicies is the QiThread default configuration (Section 5.1).
	AllPolicies Set = BoostBlocked | CreateAll | CSWhole | WakeAMAP | BranchedWake
)

// Has reports whether the set contains policy p.
func (ps Set) Has(p Set) bool { return ps&p != 0 }

// setNames lists the policies in the canonical stack order of Section 5.2.
var setNames = []struct {
	p Set
	s string
}{
	{BoostBlocked, "BoostBlocked"},
	{CreateAll, "CreateAll"},
	{CSWhole, "CSWhole"},
	{WakeAMAP, "WakeAMAP"},
	{BranchedWake, "BranchedWake"},
}

// String lists the enabled policies, or "none".
func (ps Set) String() string {
	if ps == 0 {
		return "none"
	}
	out := ""
	for _, n := range setNames {
		if ps.Has(n.p) {
			if out != "" {
				out += "+"
			}
			out += n.s
		}
	}
	return out
}

// Names returns the canonical policy names in stack order.
func Names() []string {
	out := make([]string, len(setNames))
	for i, n := range setNames {
		out[i] = n.s
	}
	return out
}

// SetForName returns the single-policy set for a canonical policy name.
func SetForName(name string) (Set, bool) {
	for _, n := range setNames {
		if n.s == name {
			return n.p, true
		}
	}
	return 0, false
}
