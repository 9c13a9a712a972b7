// Package controlplane is the production-shape control-plane workload: an
// entity store holding many state machines (the assisted-service host/cluster
// idiom), a pool of controller threads reconciling them — optionally sharded
// across scheduler domains — driven by external events and deterministic
// resync timers entering through the ingress gateway.
//
// Everything downstream of admission is a pure function of (ingress log,
// fault spec, config): record a live run once, then replay it — unchanged or
// through a FaultSpec that drops, delays or duplicates events — any number of
// times to byte-identical fingerprints. That opens the headline scenario of
// the roadmap: reproduce a production race offline from a recorded log
// (Config.SeededRace plants one), minimize it with qiexplore, fix it, and
// replay the same schedule to prove the fix.
package controlplane

import "strconv"

// State is one entity's position in the linear install lifecycle, the guarded
// transition chain of a cluster-install control plane. Transitions advance one
// state at a time; Installed is final.
type State uint8

const (
	Discovering State = iota
	Known
	Installing
	Installed
)

// Transitions is the number of guarded transitions in the lifecycle chain
// (Discovering → Known → Installing → Installed).
const Transitions = int(Installed)

// String returns the lifecycle state's name.
func (s State) String() string {
	switch s {
	case Discovering:
		return "discovering"
	case Known:
		return "known"
	case Installing:
		return "installing"
	case Installed:
		return "installed"
	default:
		return "state(" + strconv.Itoa(int(s)) + ")"
	}
}

// next returns the successor state; final states return themselves.
func (s State) next() State {
	if s >= Installed {
		return Installed
	}
	return s + 1
}

// Entity is one state machine in the store. All fields are guarded by the
// owning store stripe's mutex; controllers snapshot (State, Generation) under
// the lock, validate outside it, and re-take the lock to apply.
type Entity struct {
	ID int
	// State is the current lifecycle position.
	State State
	// Generation counts applied transitions; it is the optimistic-concurrency
	// token a correct controller re-checks before applying a transition
	// computed from a snapshot (the assisted-service resource-version idiom).
	Generation uint64
	// Steps counts transition applications. The structural invariant of the
	// linear chain is Steps == int(State): every application moves the state
	// exactly one position. A stale double-apply (the seeded race) bumps
	// Steps without moving State, breaking the invariant observably.
	Steps uint64
	// Requeues counts resync-sweep reconciles (timer-driven revisits).
	Requeues uint64
}

// consistent reports whether the entity's transition count agrees with its
// lifecycle position: the invariant the anomaly count checks, once per entity
// per run.
func (e *Entity) consistent() bool { return e.Steps == uint64(e.State) }
