package policy

import "fmt"

// Choice points. Every scheduling decision with more than one legal candidate
// — which runnable thread is granted the free turn, which waiter a signal
// wakes, how many staged ingress events an admission slot takes — is a point
// where equally legal executions diverge. The paper's semantics-aware
// policies are fixed resolutions of exactly these points (WakeAMAP keeps the
// turn with the signaler, BoostBlocked prefers the just-woken thread); a
// Chooser makes the resolution programmable, which is what turns the
// deterministic scheduler into a schedule-space explorer (internal/explore):
// record the decision index taken at each point and any explored execution
// is itself replayable.
//
// The hook is consulted only at deterministic moments — under the turn, or
// at the turn-grant moment while the turn is free and the runnable set is
// frozen — so for a fixed decision sequence the execution is as deterministic
// as an unhooked run (the choice-point determinism property test pins this).

// ChoiceKind identifies the decision a Chooser is being consulted about.
type ChoiceKind uint8

const (
	// ChooseTurn selects which runnable thread is granted the free turn.
	// Candidates are the runnable threads in queue order (run queue first,
	// then wake-up queue); the default is the policy stack's pick.
	ChooseTurn ChoiceKind = iota
	// ChooseWake selects which waiter a Signal wakes. Candidates are the
	// object's waiters in FIFO park order; the default is the head.
	ChooseWake
	// ChooseAdmit selects how many events an ingress admission slot delivers.
	// Candidate i means a batch of i+1 events; the default is the full batch
	// the MaxBatch/queue/dst bounds allow. There are no candidate thread ids.
	ChooseAdmit
)

// String returns "turn", "wake" or "admit".
func (k ChoiceKind) String() string {
	switch k {
	case ChooseTurn:
		return "turn"
	case ChooseWake:
		return "wake"
	case ChooseAdmit:
		return "admit"
	default:
		return fmt.Sprintf("choice(%d)", uint8(k))
	}
}

// Chooser resolves scheduling choice points. It is consulted only when a
// decision has more than one legal candidate (n >= 2).
//
// ids, when non-nil, holds the candidate thread ids in enumeration order
// (turn and wake choices; admit choices carry no ids). The slice is only
// valid for the duration of the call — implementations must copy it if they
// retain it. def is the index of the candidate the configured policy would
// take. Choose returns the index of the candidate to take instead; an
// out-of-range return falls back to def.
//
// Calls arrive from scheduler internals and from turn-holding wrappers;
// implementations must not call back into the scheduler or block.
type Chooser interface {
	Choose(kind ChoiceKind, ids []int, n, def int) int
}

// Choice records one resolved choice point: the decision kind, the number of
// candidates, the index the configured policy would have taken, and the index
// actually taken. A run's []Choice, alongside its schedule, is what makes an
// explored execution replayable (see internal/explore and the v3 schedule
// format in internal/trace).
type Choice struct {
	Kind  ChoiceKind
	N     int // number of candidates at this point
	Def   int // index the configured policy would have taken
	Index int // index actually taken
}

// String renders the choice as kind(n,def->index).
func (c Choice) String() string {
	return fmt.Sprintf("%s(%d,%d->%d)", c.Kind, c.N, c.Def, c.Index)
}
