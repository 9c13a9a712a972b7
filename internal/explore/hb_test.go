package explore

import (
	"testing"

	"qithread/internal/core"
)

// ev builds one trace event; its position is its index in the test's slice.
func ev(tid int, op core.OpKind, obj uint64) core.Event {
	return core.Event{TID: int32(tid), Op: op, Obj: obj}
}

// TestHBProgramOrder: a thread's own events are always ordered, never
// concurrent, regardless of objects.
func TestHBProgramOrder(t *testing.T) {
	h := computeHB([]core.Event{
		ev(0, core.OpMutexLock, 7),
		ev(0, core.OpMutexUnlock, 7),
		ev(0, core.OpYield, 0),
	})
	for i := 0; i < 3; i++ {
		for j := i + 1; j < 3; j++ {
			if !h.ordered(i, j) {
				t.Fatalf("events %d,%d of one thread not ordered", i, j)
			}
			if h.concurrent(i, j) {
				t.Fatalf("events %d,%d of one thread reported concurrent", i, j)
			}
		}
	}
}

// TestHBObjectOrder: operations on the same object are ordered across
// threads (the conservative total-order-per-object rule), while operations
// on different objects with no connecting chain stay concurrent.
func TestHBObjectOrder(t *testing.T) {
	h := computeHB([]core.Event{
		ev(0, core.OpMutexLock, 7),   // 0
		ev(0, core.OpMutexUnlock, 7), // 1
		ev(1, core.OpMutexLock, 7),   // 2: same object -> ordered after 0,1
		ev(2, core.OpMutexLock, 9),   // 3: different object -> concurrent with all
	})
	if !h.ordered(1, 2) || h.concurrent(1, 2) {
		t.Fatal("unlock -> lock on the same mutex must be ordered")
	}
	if !h.ordered(0, 2) {
		t.Fatal("lock -> lock on the same mutex must be ordered (transitively)")
	}
	for _, i := range []int{0, 1, 2} {
		if i < 3 && !h.concurrent(i, 3) {
			t.Fatalf("event %d and the unrelated lock(#9) must be concurrent", i)
		}
	}
}

// TestHBTransitiveChain: ordering flows through an intermediate object —
// T0 unlocks A, T1 locks A then unlocks B, T2 locks B: T0's unlock happens
// before T2's lock even though they share no object.
func TestHBTransitiveChain(t *testing.T) {
	h := computeHB([]core.Event{
		ev(0, core.OpMutexUnlock, 1), // 0
		ev(1, core.OpMutexLock, 1),   // 1
		ev(1, core.OpMutexUnlock, 2), // 2
		ev(2, core.OpMutexLock, 2),   // 3
	})
	if !h.ordered(0, 3) {
		t.Fatal("transitive chain through two objects must order the endpoints")
	}
	if h.concurrent(0, 3) {
		t.Fatal("transitively ordered events reported concurrent")
	}
}

// TestHBLifecycle: create/begin and end/join synchronize through the
// lifecycle clock; thread-local Obj==0 events (yield) do not synchronize
// across threads.
func TestHBLifecycle(t *testing.T) {
	h := computeHB([]core.Event{
		ev(0, core.OpMutexLock, 5),   // 0: parent state before create
		ev(0, core.OpCreate, 100),    // 1: create publishes
		ev(1, core.OpThreadBegin, 0), // 2: child begin joins lifecycle
		ev(1, core.OpThreadEnd, 0),   // 3: child end publishes
		ev(0, core.OpJoin, 100),      // 4: join sees the end
		ev(2, core.OpYield, 0),       // 5: unrelated thread-local event
	})
	if !h.ordered(1, 2) {
		t.Fatal("create must happen before the child's begin")
	}
	if !h.ordered(0, 2) {
		t.Fatal("parent's pre-create event must happen before the child's begin")
	}
	if !h.ordered(3, 4) {
		t.Fatal("thread end must happen before the parent's join")
	}
	for _, i := range []int{0, 1, 2, 3, 4} {
		if !h.concurrent(i, 5) {
			t.Fatalf("a lone yield must be concurrent with event %d", i)
		}
	}
}

// TestHBWakeraceShape mirrors the ground-truth program's structure: two
// threads hand a token through a mutex+cond pair while a third loops on an
// unrelated mutex — the third thread's events must be concurrent with the
// handoff, which is exactly the independence the explorer prunes on.
func TestHBWakeraceShape(t *testing.T) {
	const m, cv, other = 1, 2, 3
	trace := []core.Event{
		ev(0, core.OpMutexLock, m),       // 0
		ev(0, core.OpCondSignal, cv),     // 1
		ev(0, core.OpMutexUnlock, m),     // 2
		ev(2, core.OpMutexLock, other),   // 3
		ev(2, core.OpMutexUnlock, other), // 4
		ev(1, core.OpMutexLock, m),       // 5
		ev(1, core.OpMutexUnlock, m),     // 6
	}
	h := computeHB(trace)
	if !h.ordered(2, 5) {
		t.Fatal("unlock -> lock on the shared mutex must be ordered")
	}
	for _, i := range []int{0, 1, 2, 5, 6} {
		lo, hi := i, 3
		if lo > hi {
			lo, hi = 4, i
		}
		if !h.concurrent(lo, hi) {
			t.Fatalf("unrelated-mutex event must be concurrent with event %d", i)
		}
	}
}
