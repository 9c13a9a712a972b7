package explore

import "qithread/internal/core"

// Happens-before flip pruning. Fingerprint pruning only collapses the
// schedule space AFTER paying for a run: two interleavings that differ only
// in the order of independent operations hash differently (the trace hash is
// order-sensitive), so fingerprint-only DPOR runs both and branches both.
// The independence relation recovered by core.ComputeHB lets the explorer
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
	hb       *core.HB
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
	f.hb = core.ComputeHB(f.res.Trace)
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
	if prev >= 0 && core.ParksThread(f.res.Trace[prev].Op) {
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
	// (core.WakeSensitive).
	for k := p; k <= q; k++ {
		if core.WakeSensitive(f.res.Trace[k].Op) {
			return false
		}
	}
	for k := p; k < q; k++ {
		if !f.hb.Concurrent(k, q) {
			return false
		}
	}
	return true
}
