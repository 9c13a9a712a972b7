package qithread

import (
	"qithread/internal/core"
)

// SoftBarrier implements Parrot's soft-barrier performance hint: a
// best-effort rendezvous that encourages the deterministic scheduler to
// co-schedule a group of threads at a program point, restoring parallelism
// that round-robin scheduling would otherwise serialize (Section 2). Unlike
// a real barrier it never blocks forever: an incomplete group is released
// after a deterministic logical timeout.
//
// Soft barriers only act when Config.SoftBarriers is set (the "Parrot w/o
// PCS" and "Parrot w/ PCS" configurations); otherwise Arrive is a no-op, so
// hinted workloads are unchanged under QiThread, whose policies are meant to
// make these hints unnecessary.
type SoftBarrier struct {
	object
	n int

	// arrived is guarded by the turn.
	arrived int
}

// NewSoftBarrier creates a soft barrier for groups of n threads.
func (rt *Runtime) NewSoftBarrier(t *Thread, name string, n int) *SoftBarrier {
	if n <= 0 {
		panic("qithread: soft barrier count must be positive")
	}
	sb := &SoftBarrier{n: n}
	if rt.cfg.SoftBarriers {
		sb.init(rt, t, "softbarrier:", name, core.OpSoftBarrier)
	} else {
		sb.bind(rt, t, "softbarrier:", name)
	}
	return sb
}

// softBarrierTimeout is the deterministic logical timeout, in turns, after
// which an incomplete soft-barrier group is released.
const softBarrierTimeout = 256

// Arrive announces that the calling thread reached the co-scheduling point.
// The first n-1 arrivals park; the n-th releases the whole group in FIFO
// order. A thread parked longer than softBarrierTimeout turns gives up and
// continues alone, so partial groups (e.g. a remainder of work items) never
// hang.
func (sb *SoftBarrier) Arrive(t *Thread) {
	s := sb.dom.enter(t, "soft barrier", sb.name)
	if s == nil || !sb.dom.rt.cfg.SoftBarriers {
		return
	}
	s.GetTurn(t.ct())
	sb.arrived++
	if sb.arrived >= sb.n {
		sb.arrived = 0
		s.Broadcast(t.ct(), sb.obj)
		s.TraceOp(t.ct(), core.OpSoftBarrier, sb.obj, core.StatusOK)
		t.release()
		return
	}
	s.TraceOp(t.ct(), core.OpSoftBarrier, sb.obj, core.StatusBlocked)
	if st := t.park(sb.obj, softBarrierTimeout); st == core.WaitTimeout {
		// Give up on the group: our arrival no longer counts.
		if sb.arrived > 0 {
			sb.arrived--
		}
	}
	s.TraceOp(t.ct(), core.OpSoftBarrier, sb.obj, core.StatusReturn)
	t.release()
}
