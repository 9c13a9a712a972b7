// Package advisor analyzes recorded synchronization schedules and recommends
// scheduling policies, automating the diagnostic process the paper's authors
// performed by hand ("by comparing schedules before and after applying
// Parrot soft barriers, we come up with patterns of imbalanced schedules and
// design semantics-aware policies to compensate these imbalances",
// Section 3) and mirroring Pegasus [ISSTA'15], which infers soft-barrier
// placements from execution profiles.
//
// The advisor recognizes the four imbalance patterns behind the paper's
// policies in a vanilla round-robin trace:
//
//   - serialized consumers behind a producer's condition variable or
//     semaphore (Figure 1) → WakeAMAP (+ BoostBlocked);
//   - a pthread_create loop interleaved with child thread_begins
//     (Figure 2) → CreateAll;
//   - lock convoys — threads repeatedly blocking on the same mutex
//     (Section 3.3) → CSWhole;
//   - branched unblocking — a semaphore posted by many threads but awaited
//     by few (Figure 3) → BranchedWake.
//
// Recommendations carry the trace evidence that triggered them and can be
// validated empirically with Trial, which measures the program with and
// without the recommended policy — Pegasus's trial-and-error step.
package advisor

import (
	"fmt"
	"sort"

	"qithread"
	"qithread/internal/core"
)

// Recommendation is one suggested policy with its evidence.
type Recommendation struct {
	Policy qithread.Policy
	// Object is the synchronization object exhibiting the pattern (0 for
	// program-wide patterns such as CreateAll).
	Object uint64
	// Score orders recommendations; higher means stronger evidence.
	Score float64
	// Evidence is a human-readable justification citing trace counts.
	Evidence string
}

func (r Recommendation) String() string {
	return fmt.Sprintf("%-13s score %5.2f  %s", r.Policy, r.Score, r.Evidence)
}

// Analyze inspects a schedule recorded under vanilla round robin and returns
// policy recommendations sorted by descending score. An empty result means
// the schedule shows none of the known imbalance patterns.
func Analyze(events []core.Event) []Recommendation {
	var recs []Recommendation
	recs = append(recs, detectWakeAMAP(events)...)
	recs = append(recs, detectCreateAll(events)...)
	recs = append(recs, detectCSWhole(events)...)
	recs = append(recs, detectBranchedWake(events)...)
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].Score != recs[j].Score {
			return recs[i].Score > recs[j].Score
		}
		return recs[i].Policy < recs[j].Policy // deterministic order
	})
	return recs
}

// detectWakeAMAP finds condition variables and semaphores with the Figure 1
// signature: one (or few) threads signal many times while multiple distinct
// threads wait on the same object, and wake-ups are spread out (one waiter
// handled per signal) rather than batched.
func detectWakeAMAP(events []core.Event) []Recommendation {
	type objStat struct {
		signals       int
		signalThreads map[int32]bool
		waitThreads   map[int32]bool
		waits         int
	}
	stats := map[uint64]*objStat{}
	get := func(obj uint64) *objStat {
		st := stats[obj]
		if st == nil {
			st = &objStat{signalThreads: map[int32]bool{}, waitThreads: map[int32]bool{}}
			stats[obj] = st
		}
		return st
	}
	for _, e := range events {
		switch e.Op {
		case core.OpCondSignal, core.OpSemPost:
			st := get(e.Obj)
			st.signals++
			st.signalThreads[e.TID] = true
		case core.OpCondWait, core.OpCondTimedWait, core.OpSemWait, core.OpSemTimedWait:
			if e.Status == core.StatusBlocked {
				st := get(e.Obj)
				st.waits++
				st.waitThreads[e.TID] = true
			}
		}
	}
	var recs []Recommendation
	var objs []uint64
	for obj := range stats {
		objs = append(objs, obj)
	}
	sort.Slice(objs, func(i, j int) bool { return objs[i] < objs[j] })
	for _, obj := range objs {
		st := stats[obj]
		// Figure 1 shape: few wake-up sites, several distinct waiters,
		// sustained signaling traffic.
		if st.signals >= 4 && len(st.waitThreads) >= 2 && len(st.signalThreads) <= len(st.waitThreads) {
			score := float64(st.signals) * float64(len(st.waitThreads)) / float64(len(st.signalThreads))
			recs = append(recs, Recommendation{
				Policy: qithread.WakeAMAP,
				Object: obj,
				Score:  score,
				Evidence: fmt.Sprintf("object #%d: %d wake-ups from %d thread(s) toward %d distinct waiters (%d blocked waits)",
					obj, st.signals, len(st.signalThreads), len(st.waitThreads), st.waits),
			})
		}
	}
	return recs
}

// detectCreateAll finds the Figure 2 signature: a creation loop whose
// create operations are interleaved with other threads' operations under
// round robin (in particular the children's thread_begins).
func detectCreateAll(events []core.Event) []Recommendation {
	creates := 0
	interleaved := 0
	lastCreateIdx := -2
	creator := int32(-1)
	for i, e := range events {
		if e.Op != core.OpCreate {
			continue
		}
		creates++
		if creator == e.TID && lastCreateIdx >= 0 && i != lastCreateIdx+1 {
			interleaved++
		}
		creator = e.TID
		lastCreateIdx = i
	}
	if creates >= 3 && interleaved > 0 {
		return []Recommendation{{
			Policy: qithread.CreateAll,
			Score:  float64(interleaved),
			Evidence: fmt.Sprintf("%d of %d consecutive creates were separated by other threads' operations",
				interleaved, creates),
		}}
	}
	return nil
}

// detectCSWhole finds lock convoys: mutexes where a large share of lock
// operations block (threads pile up on the wait queue and are woken in a
// chain, Section 3.3).
func detectCSWhole(events []core.Event) []Recommendation {
	type lockStat struct{ locks, blocked int }
	stats := map[uint64]*lockStat{}
	for _, e := range events {
		if e.Op != core.OpMutexLock {
			continue
		}
		st := stats[e.Obj]
		if st == nil {
			st = &lockStat{}
			stats[e.Obj] = st
		}
		switch e.Status {
		case core.StatusBlocked:
			st.blocked++
		default:
			st.locks++
		}
	}
	var recs []Recommendation
	var objs []uint64
	for obj := range stats {
		objs = append(objs, obj)
	}
	sort.Slice(objs, func(i, j int) bool { return objs[i] < objs[j] })
	for _, obj := range objs {
		st := stats[obj]
		if st.locks >= 8 && float64(st.blocked) >= 0.3*float64(st.locks) {
			recs = append(recs, Recommendation{
				Policy: qithread.CSWhole,
				Object: obj,
				Score:  float64(st.blocked) / float64(st.locks) * float64(st.locks+st.blocked) / 10,
				Evidence: fmt.Sprintf("mutex #%d: %d blocked acquisitions against %d completed (convoy ratio %.0f%%)",
					obj, st.blocked, st.locks, 100*float64(st.blocked)/float64(st.locks)),
			})
		}
	}
	return recs
}

// detectBranchedWake finds the Figure 3 signature: a semaphore posted from
// many distinct threads but awaited by far fewer — the post sits on a branch
// most threads skip.
func detectBranchedWake(events []core.Event) []Recommendation {
	type semStat struct {
		postThreads map[int32]bool
		waitThreads map[int32]bool
		posts       int
	}
	stats := map[uint64]*semStat{}
	get := func(obj uint64) *semStat {
		st := stats[obj]
		if st == nil {
			st = &semStat{postThreads: map[int32]bool{}, waitThreads: map[int32]bool{}}
			stats[obj] = st
		}
		return st
	}
	for _, e := range events {
		switch e.Op {
		case core.OpSemPost:
			st := get(e.Obj)
			st.posts++
			st.postThreads[e.TID] = true
		case core.OpSemWait, core.OpSemTimedWait:
			if e.Status == core.StatusBlocked {
				get(e.Obj).waitThreads[e.TID] = true
			}
		}
	}
	var recs []Recommendation
	var objs []uint64
	for obj := range stats {
		objs = append(objs, obj)
	}
	sort.Slice(objs, func(i, j int) bool { return objs[i] < objs[j] })
	for _, obj := range objs {
		st := stats[obj]
		if st.posts >= 3 && len(st.postThreads) >= 3 && len(st.postThreads) > 2*len(st.waitThreads) {
			recs = append(recs, Recommendation{
				Policy: qithread.BranchedWake,
				Object: obj,
				Score:  float64(len(st.postThreads)) / float64(max(1, len(st.waitThreads))),
				Evidence: fmt.Sprintf("semaphore #%d: posted by %d distinct threads, awaited by %d — a branched unblocking site",
					obj, len(st.postThreads), len(st.waitThreads)),
			})
		}
	}
	return recs
}

// Policies collapses recommendations into a policy set (always including
// BoostBlocked, the paper's base complement for the other policies).
func Policies(recs []Recommendation) qithread.Policy {
	if len(recs) == 0 {
		return qithread.NoPolicies
	}
	p := qithread.BoostBlocked
	for _, r := range recs {
		p |= r.Policy
	}
	return p
}
