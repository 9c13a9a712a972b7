package controlplane

import (
	"fmt"

	"qithread/internal/ingress"
)

// FaultKind selects what a Fault does to its matched event.
type FaultKind uint8

const (
	// Drop removes the event from the log.
	Drop FaultKind = iota
	// Dup inserts a copy of the event immediately after it.
	Dup
	// Delay moves the event Delay batches later (appended to that batch; an
	// event delayed past the last batch lands in the final one). Batch
	// epochs are untouched, so the transformed log stays strictly monotone
	// and loads under the strict parser.
	Delay
)

// String returns "drop", "dup" or "delay".
func (k FaultKind) String() string {
	switch k {
	case Drop:
		return "drop"
	case Dup:
		return "dup"
	case Delay:
		return "delay"
	default:
		return fmt.Sprintf("fault(%d)", uint8(k))
	}
}

// Fault is one deterministic event perturbation: apply Kind to the Nth event
// (0-based, counted over the whole log in batch order) whose source matches.
type Fault struct {
	Kind FaultKind
	// Source filters by source id; -1 matches every source.
	Source int
	// Nth selects the n-th matching event (0-based).
	Nth int
	// Delay is the batch displacement for Delay faults.
	Delay int
}

// FaultSpec is a deterministic fault-injection plan: a pure function from a
// recorded ingress log to a perturbed one. Replaying Apply(log) is exactly as
// deterministic as replaying log itself — the faulted log IS the run's input
// — so a drop/delay/duplicate scenario reproduces byte-identically, run after
// run. A nil spec is the identity.
type FaultSpec struct {
	Faults []Fault
}

// matches reports whether fault f selects an event from the given source at
// matching-occurrence index n.
func (f Fault) matches(source, n int) bool {
	return (f.Source < 0 || f.Source == source) && f.Nth == n
}

// Apply transforms a recorded log under the spec and returns the perturbed
// copy; the input log is never modified. Batches left empty by drops or
// delays are removed (the log format requires at least one event per batch;
// a missing epoch replays as an empty admission snapshot). A nil spec — or a
// spec with no faults — returns an identical copy.
func (s *FaultSpec) Apply(l *ingress.Log) *ingress.Log {
	// Per-source occurrence counters drive matching, so one spec names
	// "the 3rd event of source 1" independently of other sources' traffic.
	seen := map[int]int{}
	seenAny := 0
	out := &ingress.Log{}
	// Delayed events parked for a later batch, keyed by target batch index.
	delayed := map[int][]ingress.Event{}
	for bi, b := range l.Batches {
		nb := ingress.Batch{Epoch: b.Epoch}
		for _, e := range b.Events {
			copied := ingress.Event{Source: e.Source, Data: append([]byte(nil), e.Data...)}
			kept := true
			if s != nil {
				for _, f := range s.Faults {
					n := seen[e.Source]
					if f.Source < 0 {
						n = seenAny
					}
					if !f.matches(e.Source, n) {
						continue
					}
					switch f.Kind {
					case Drop:
						kept = false
					case Dup:
						nb.Events = append(nb.Events, copied,
							ingress.Event{Source: e.Source, Data: append([]byte(nil), e.Data...)})
						kept = false // already appended (twice)
					case Delay:
						target := bi + f.Delay
						if last := len(l.Batches) - 1; target > last {
							target = last
						}
						if target <= bi {
							break // zero or backward delay: keep in place
						}
						delayed[target] = append(delayed[target], copied)
						kept = false
					}
				}
			}
			if kept {
				nb.Events = append(nb.Events, copied)
			}
			seen[e.Source]++
			seenAny++
		}
		nb.Events = append(nb.Events, delayed[bi]...)
		if len(nb.Events) > 0 {
			out.Batches = append(out.Batches, nb)
		}
	}
	return out
}
