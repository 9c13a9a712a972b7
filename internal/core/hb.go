package core

// Happens-before analysis over a recorded schedule. The trace is a TOTAL
// order (one event per turn-held operation), but most of that order is an
// artifact of the turn mechanism, not of synchronization: two events of
// different threads on different objects could have executed in either order
// without changing any thread's view. Vector clocks recover the PARTIAL
// order that synchronization actually imposes, and the explorer uses it as a
// real independence relation: a schedule perturbation that only swaps
// HB-concurrent events cannot produce a new behaviour, so the flip need not
// be run at all (internal/explore, DESIGN.md §4.9).
//
// The rules are deliberately conservative — every edge added here must be a
// real happens-before edge, but extra edges only cost pruning power, never
// soundness (an event pair reported ordered is simply never pruned):
//
//   - program order: each thread's events are totally ordered;
//   - object order: ALL operations on the same synchronization object are
//     totally ordered (each op joins the object's clock and publishes back
//     into it). This over-orders same-object pairs like two read-locks, which
//     is the safe direction;
//   - thread lifecycle: create and thread-end publish into a shared lifecycle
//     clock that thread-begin and join read. This over-orders unrelated
//     create/begin pairs — again the safe direction — and needs no pairing of
//     begin events with their create (the trace does not record which thread
//     a create spawned, only its join object).
//
// Events with Obj == 0 that are not lifecycle events (yield, sleep,
// keep-turn, dummy-sync, set-base-time) synchronize with nothing: they are
// thread-local from a happens-before perspective and carry only program
// order.

// VClock is a vector clock over thread ids: Clock[tid] counts the events of
// thread tid known to have happened before (or at) the clock's owner.
type VClock []int64

// joinInto merges other into v component-wise (v = v ⊔ other), growing v as
// needed, and returns the (possibly reallocated) result.
func (v VClock) joinInto(other VClock) VClock {
	if len(other) > len(v) {
		grown := make(VClock, len(other))
		copy(grown, v)
		v = grown
	}
	for i, c := range other {
		if c > v[i] {
			v[i] = c
		}
	}
	return v
}

// leq reports v ≤ other component-wise — v's knowledge is contained in
// other's, i.e. v happens before or equals other.
func (v VClock) leq(other VClock) bool {
	for i, c := range v {
		if c == 0 {
			continue
		}
		if i >= len(other) || c > other[i] {
			return false
		}
	}
	return true
}

// HB is the happens-before analysis of one single-domain trace: one vector
// clock per event, in trace order.
type HB struct {
	clocks []VClock
	events []Event
}

// hbSyncs reports whether the event synchronizes through the shared lifecycle
// clock, and in which direction.
func hbLifecyclePublish(op OpKind) bool { return op == OpCreate || op == OpThreadEnd }
func hbLifecycleJoin(op OpKind) bool    { return op == OpThreadBegin || op == OpJoin }

// WakeSensitive reports whether the operation's PLACEMENT in the schedule
// carries wake-up semantics beyond what its vector clock records. A signal
// wakes whichever waiter the policy picks among those parked AT THAT MOMENT;
// a wait's position decides whether it parks before or after a wake-up
// exists. Vector clocks see only the object's total order, not this
// membership-in-the-wait-set structure, so two linearizations that commute an
// HB-concurrent event past a wake-sensitive window can still steer the
// scheduler's wake targeting differently — the exact divergences the paper's
// policies pin (Figures 5-7). The explorer therefore never treats a schedule
// perturbation that displaces one of these operations as redundant.
func WakeSensitive(op OpKind) bool {
	switch op {
	case OpCondWait, OpCondTimedWait, OpCondSignal, OpCondBroadcast,
		OpSemWait, OpSemTryWait, OpSemTimedWait, OpSemPost,
		OpBarrierWait:
		return true
	}
	return false
}

// ParksThread reports whether the operation parked its thread until a wake-up:
// the thread's NEXT operation (a condition wait's mutex re-acquisition, the
// return from a semaphore or barrier wait) executes inside the wake-up window,
// where the paper's policies deliberately diverge on who runs first
// (signal-to-reacquire, Figure 5). The explorer never prunes a flip that
// re-times such an operation.
func ParksThread(op OpKind) bool {
	switch op {
	case OpCondWait, OpCondTimedWait, OpSemWait, OpSemTimedWait, OpBarrierWait:
		return true
	}
	return false
}

// ComputeHB computes per-event vector clocks for a recorded schedule. The
// events must belong to one scheduler domain (cross-domain causality flows
// through the delivery log, not the trace; callers with partitioned traces
// analyze each domain separately or not at all).
func ComputeHB(events []Event) *HB {
	h := &HB{clocks: make([]VClock, len(events)), events: events}
	threads := map[int32]VClock{}
	objects := map[uint64]VClock{}
	var lifecycle VClock
	for k, e := range events {
		tc := threads[e.TID]
		if e.Obj != 0 {
			tc = tc.joinInto(objects[e.Obj])
		}
		if hbLifecycleJoin(e.Op) {
			tc = tc.joinInto(lifecycle)
		}
		// Tick program order, growing the clock to cover this tid.
		if int(e.TID) >= len(tc) {
			grown := make(VClock, e.TID+1)
			copy(grown, tc)
			tc = grown
		}
		tc[e.TID]++
		snapshot := make(VClock, len(tc))
		copy(snapshot, tc)
		h.clocks[k] = snapshot
		if e.Obj != 0 {
			objects[e.Obj] = objects[e.Obj].joinInto(snapshot)
		}
		if hbLifecyclePublish(e.Op) {
			lifecycle = lifecycle.joinInto(snapshot)
		}
		threads[e.TID] = tc
	}
	return h
}

// Ordered reports whether event i happens before event j (i < j in trace
// order is assumed; the trace is consistent with HB, so i ≺ j iff i's clock
// is contained in j's).
func (h *HB) Ordered(i, j int) bool {
	return h.clocks[i].leq(h.clocks[j])
}

// Concurrent reports whether events i and j (i < j in trace order) are
// independent under the happens-before relation: neither synchronization nor
// program order forces their relative order, so swapping them yields an
// equivalent execution.
func (h *HB) Concurrent(i, j int) bool {
	if h.events[i].TID == h.events[j].TID {
		return false
	}
	return !h.Ordered(i, j)
}
