package explore

import "qithread/internal/core"

// Happens-before flip pruning. Fingerprint pruning only collapses the
// schedule space AFTER paying for a run: two interleavings that differ only
// in the order of independent operations hash differently (the trace hash is
// order-sensitive), so fingerprint-only DPOR runs both and branches both.
// The independence relation recovered by computeHB (below) lets the explorer
// refuse such flips up front.
//
// The rule: a turn-choice flip at decision i toward alternative thread a is
// REDUNDANT when a's next operation is HB-concurrent with every event that
// executed between the decision point and that operation in the recorded
// run. Granting a at the decision instead merely commutes its operation past
// events it does not synchronize with — the same partial order, i.e. the
// same behaviour, reached through a different but equivalent total order.
// Any synchronization between the displaced window and a's operation (same
// object, lifecycle edge, transitive chain) keeps the flip: reordering it
// could genuinely change what the program observes.
//
// Wake and admission flips are never pruned: re-targeting a wake-up or
// moving an admission boundary rewrites the happens-before relation itself,
// so no independence argument applies.
//
// The pruner is deliberately fail-open. Whenever alignment is unavailable —
// no trace retained, a multi-domain trace (positions are domain-local), a
// consultation site that supplied no position, or an alternative thread with
// no later event in the trace — the flip is branched exactly as the
// fingerprint-only search would.

// flipPruner answers "is this flip redundant?" for one run, computing the
// run's HB analysis lazily on first consultation so runs that never branch
// (duplicate fingerprints, failures) pay nothing.
type flipPruner struct {
	res      *Result
	hb       *happensBefore
	disabled bool
	byTID    map[int][]int // tid -> indices of its events, in trace order
}

func newFlipPruner(res *Result) *flipPruner {
	return &flipPruner{res: res}
}

// prepare computes the HB analysis once; it reports false when the run
// cannot be analyzed (pruning disabled for this run).
func (f *flipPruner) prepare() bool {
	if f.disabled {
		return false
	}
	if f.hb != nil {
		return true
	}
	if len(f.res.Trace) == 0 {
		f.disabled = true
		return false
	}
	for _, e := range f.res.Trace {
		if e.Domain != 0 {
			// Trace positions are domain-local; a partitioned trace would
			// misalign. Fail open.
			f.disabled = true
			return false
		}
	}
	f.hb = computeHB(f.res.Trace)
	f.byTID = map[int][]int{}
	for k, e := range f.res.Trace {
		tid := int(e.TID)
		f.byTID[tid] = append(f.byTID[tid], k)
	}
	return true
}

// redundant reports whether flipping decision i to alternative alt is
// provably equivalent to the recorded run. Decision i must be a turn choice.
func (f *flipPruner) redundant(i, alt int) bool {
	if i >= len(f.res.meta.at) {
		return false
	}
	pos, ids := f.res.meta.at[i].pos, f.res.meta.turnIDs(i)
	if pos < 0 || alt >= len(ids) || !f.prepare() {
		return false
	}
	p := int(pos)
	if p >= len(f.res.Trace) {
		return false
	}
	// q: the alternative thread's first event at or after the decision point
	// — the operation it would have executed had it been granted the turn.
	altTID := ids[alt]
	var q, prev = -1, -1
	for _, k := range f.byTID[altTID] {
		if k >= p {
			q = k
			break
		}
		prev = k
	}
	if q < 0 {
		return false // alt never ran again; nothing to commute against
	}
	if prev >= 0 && parksThread(f.res.Trace[prev].Op) {
		// The alternative thread is mid-wake-up: its next operation is the
		// re-acquisition / return leg of a parked wait, and when it runs
		// relative to the wake window is exactly what the policies schedule
		// differently. Never prune into the wake-up window.
		return false
	}
	// The flip commutes a's operation past trace[p..q). It is redundant only
	// if a's operation is concurrent with every displaced event AND the
	// displaced span touches no wake-sensitive operation: commuting an event
	// past a signal/wait/post changes which threads are parked when the wake
	// fires, which the clock-based independence relation cannot see
	// (wakeSensitive).
	for k := p; k <= q; k++ {
		if wakeSensitive(f.res.Trace[k].Op) {
			return false
		}
	}
	for k := p; k < q; k++ {
		if !f.hb.concurrent(k, q) {
			return false
		}
	}
	return true
}

// Happens-before analysis over a recorded schedule. The trace is a TOTAL
// order (one event per turn-held operation), but most of that order is an
// artifact of the turn mechanism, not of synchronization: two events of
// different threads on different objects could have executed in either order
// without changing any thread's view. Vector clocks recover the PARTIAL
// order that synchronization actually imposes, and the explorer uses it as a
// real independence relation: a schedule perturbation that only swaps
// HB-concurrent events cannot produce a new behaviour, so the flip need not
// be run at all (flipPruner above, DESIGN.md §4.9).
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

// vclock is a vector clock over thread ids: v[tid] counts the events of
// thread tid known to have happened before (or at) the clock's owner.
type vclock []int64

// joinInto merges other into v component-wise (v = v ⊔ other), growing v as
// needed, and returns the (possibly reallocated) result.
func (v vclock) joinInto(other vclock) vclock {
	if len(other) > len(v) {
		grown := make(vclock, len(other))
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
func (v vclock) leq(other vclock) bool {
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

// happensBefore is the happens-before analysis of one single-domain trace:
// one vector clock per event, in trace order.
type happensBefore struct {
	clocks []vclock
	events []core.Event
}

// hbLifecyclePublish and hbLifecycleJoin report whether the event
// synchronizes through the shared lifecycle clock, and in which direction.
func hbLifecyclePublish(op core.OpKind) bool { return op == core.OpCreate || op == core.OpThreadEnd }
func hbLifecycleJoin(op core.OpKind) bool    { return op == core.OpThreadBegin || op == core.OpJoin }

// wakeSensitive reports whether the operation's PLACEMENT in the schedule
// carries wake-up semantics beyond what its vector clock records. A signal
// wakes whichever waiter the policy picks among those parked AT THAT MOMENT;
// a wait's position decides whether it parks before or after a wake-up
// exists. Vector clocks see only the object's total order, not this
// membership-in-the-wait-set structure, so two linearizations that commute an
// HB-concurrent event past a wake-sensitive window can still steer the
// scheduler's wake targeting differently — the exact divergences the paper's
// policies pin (Figures 5-7). The explorer therefore never treats a schedule
// perturbation that displaces one of these operations as redundant.
func wakeSensitive(op core.OpKind) bool {
	switch op {
	case core.OpCondWait, core.OpCondTimedWait, core.OpCondSignal, core.OpCondBroadcast,
		core.OpSemWait, core.OpSemTryWait, core.OpSemTimedWait, core.OpSemPost,
		core.OpBarrierWait:
		return true
	}
	return false
}

// parksThread reports whether the operation parked its thread until a wake-up:
// the thread's NEXT operation (a condition wait's mutex re-acquisition, the
// return from a semaphore or barrier wait) executes inside the wake-up window,
// where the paper's policies deliberately diverge on who runs first
// (signal-to-reacquire, Figure 5). The explorer never prunes a flip that
// re-times such an operation.
func parksThread(op core.OpKind) bool {
	switch op {
	case core.OpCondWait, core.OpCondTimedWait, core.OpSemWait, core.OpSemTimedWait, core.OpBarrierWait:
		return true
	}
	return false
}

// computeHB computes per-event vector clocks for a recorded schedule. The
// events must belong to one scheduler domain (cross-domain causality flows
// through XPipe deliveries, not the trace; callers with partitioned traces
// analyze each domain separately or not at all).
func computeHB(events []core.Event) *happensBefore {
	h := &happensBefore{clocks: make([]vclock, len(events)), events: events}
	threads := map[int32]vclock{}
	objects := map[uint64]vclock{}
	var lifecycle vclock
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
			grown := make(vclock, e.TID+1)
			copy(grown, tc)
			tc = grown
		}
		tc[e.TID]++
		snapshot := make(vclock, len(tc))
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

// ordered reports whether event i happens before event j (i < j in trace
// order is assumed; the trace is consistent with HB, so i ≺ j iff i's clock
// is contained in j's).
func (h *happensBefore) ordered(i, j int) bool {
	return h.clocks[i].leq(h.clocks[j])
}

// concurrent reports whether events i and j (i < j in trace order) are
// independent under the happens-before relation: neither synchronization nor
// program order forces their relative order, so swapping them yields an
// equivalent execution.
func (h *happensBefore) concurrent(i, j int) bool {
	if h.events[i].TID == h.events[j].TID {
		return false
	}
	return !h.ordered(i, j)
}
