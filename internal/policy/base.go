package policy

import "math"

// The base turn policies. Exactly one sits at the bottom of every stack and
// always picks a thread when one is runnable; semantics-aware policies layer
// above it.

// roundRobin grants the turn to the head of the run queue (the Parrot and
// QiThread base policy). Schedules depend only on the program's
// synchronization structure, not on input sizes or compute durations.
type roundRobin struct{ Base }

// RoundRobin returns the FIFO base turn policy.
func RoundRobin() Policy { return &roundRobin{} }

func (*roundRobin) Name() string { return "round-robin" }

func (p *roundRobin) PickNext(v View) Thread {
	t := v.FrontRun()
	if t == nil {
		// Without a boosting layer the wake-up queue is normally empty; a
		// custom stack that routes wake-ups there without also picking from
		// there must still not starve those threads.
		t = v.FrontWake()
	}
	if t != nil {
		p.m.Picks++
	}
	return t
}

// minClock grants the turn to the runnable thread with the globally minimal
// clock, ties broken by thread ID — the Kendo / CoreDet baseline
// (key = instruction clock), and the ideal-parallel measurement baseline
// (key = virtual clock).
type minClock struct {
	Base
	name    string
	virtual bool
}

// LogicalClock returns the Kendo/CoreDet base turn policy: the runnable
// thread with the smallest instruction clock runs next.
func LogicalClock() Policy { return &minClock{name: "logical-clock"} }

// VirtualClock returns the ideal-parallel base policy: the runnable thread
// with the smallest virtual clock acts next (greedy list scheduling on
// unbounded cores).
func VirtualClock() Policy { return &minClock{name: "virtual-clock", virtual: true} }

func (p *minClock) Name() string { return p.name }

func (p *minClock) PickNext(v View) Thread {
	// The runnable thread with the minimal (clock, id) runs next. A blocked
	// waiter cannot issue operations, so it does not gate; only runnable
	// threads compete (Kendo's rule, see internal/core).
	var best Thread
	bestKey := int64(math.MaxInt64)
	for t := v.NextRunnable(nil); t != nil; t = v.NextRunnable(t) {
		c := t.Clock()
		if p.virtual {
			c = t.VTime()
		}
		if c < bestKey || (c == bestKey && best != nil && t.ID() < best.ID()) {
			bestKey, best = c, t
		}
	}
	if best != nil {
		p.m.Picks++
	}
	return best
}
