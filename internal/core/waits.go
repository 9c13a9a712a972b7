package core

import (
	"slices"

	"qithread/internal/policy"
)

// The object table and its wait lists: the Table 1 primitives wait, signal
// and broadcast, and the objects they name. Every object's FIFO wait list is
// a tqueue in its entry of Scheduler.objs. Timed waiters are additionally
// indexed by a binary min-heap (dheap) keyed by (deadline, seq), so the
// per-turn expiry check is an O(1) peek and the idle-time jump reads the
// earliest deadline off the heap top instead of scanning every blocked
// thread.

// objEntry is an object's entry in the scheduler's object table: its
// debugging name, kept as the two parts the wrappers supply ("mutex:" +
// "reqs") so object creation never concatenates, and its wait list. The kind
// is an index into objKinds, one byte, which keeps the entry at 48 B.
type objEntry struct {
	name  string
	waits tqueue
	kind  uint8
}

// objKinds are the kind prefixes an objEntry indexes, the wrappers' object
// kinds; the first, no prefix, is NewObject's.
var objKinds = [...]string{"", "mutex:", "cond:", "sem:", "rwlock:", "barrier:", "once:", "softbarrier:", "gateway:"}

// label renders the entry's debugging name, "" for an entry that has none.
func (e objEntry) label() string { return objKinds[e.kind] + e.name }

// NewObject allocates a deterministic ID for a synchronization object.
// Callers must allocate deterministically (under the turn, or before any
// concurrency), which the qithread wrappers guarantee.
func (s *Scheduler) NewObject(name string) uint64 { return s.NewObjectKind("", name) }

// NewObjectKind is NewObject with the name split into a kind prefix and the
// caller-supplied name ("mutex:", "reqs"). A kind of objKinds, the wrappers',
// is stored apart and only joined to the name when a debugging name is
// actually rendered, so the wrappers' object creation paths never pay a
// string concatenation; any other kind is joined at once.
func (s *Scheduler) NewObjectKind(kind, name string) uint64 {
	defer s.unlock(s.lock())
	k := slices.Index(objKinds[:], kind)
	if k < 0 {
		k, name = 0, kind+name
	}
	s.nextObj++
	s.putObjLocked(s.nextObj, objEntry{name: name, kind: uint8(k)})
	return s.nextObj
}

// putObjLocked writes obj's entry, creating the table on first use.
func (s *Scheduler) putObjLocked(obj uint64, e objEntry) {
	if s.objs == nil {
		s.objs = make(map[uint64]objEntry)
	}
	s.objs[obj] = e
}

// NewJoinObject allocates t's join object, the object its joiners wait on,
// from the same counter as NewObject, and records it in t (JoinObject). It
// stores no label: reports name the object "thread:" + t's name for as long as
// t lives (labelLocked). Call it right after registering t, under the same
// ordering rules as NewObject.
func (s *Scheduler) NewJoinObject(t *Thread) {
	defer s.unlock(s.lock())
	s.nextObj++
	t.joinObj = s.nextObj
}

// DestroyObject releases the scheduler bookkeeping of a retired
// synchronization object, its entry in the object table, so long-running
// programs that create and destroy objects do not accumulate entries.
// Destroying an object with blocked waiters is a program bug (as in pthreads);
// the entry then loses its name but keeps its wait list, so the waiters
// remain wakeable and diagnosable. A join object is retired only by its own
// exiting thread, and is unnamed from then on. The caller must hold the turn,
// which the wrappers' Destroy methods guarantee.
func (s *Scheduler) DestroyObject(t *Thread, obj uint64) {
	defer s.unlock(s.lock())
	s.requireTurnLocked(t, "DestroyObject")
	if obj == t.joinObj {
		t.joinGone = true // t exits: only a thread retires its join object
	}
	if e := s.objs[obj]; e.waits.head == nil {
		delete(s.objs, obj)
	} else {
		s.objs[obj] = objEntry{waits: e.waits} // unnamed, still wakeable
	}
}

// labelLocked renders obj's debugging name for reports: a wrapper object's
// stored label, "thread:" + name for a live thread's join object not yet
// retired (found by scanning the thread table: only reports ask), and the
// empty string for an object that is retired or was never allocated.
func (s *Scheduler) labelLocked(obj uint64) string {
	if l := s.objs[obj].label(); l != "" {
		return l
	}
	for _, t := range s.tableLocked() {
		if obj != 0 && t != nil && t.joinObj == obj && !t.joinGone {
			return "thread:" + t.name
		}
	}
	return ""
}

// Wait atomically releases the turn and blocks t on the wait list of obj,
// mirroring the wait primitive of Table 1. timeout, when positive, is a
// relative logical time in turns; NoTimeout (0) never expires. Wait returns
// once t has been woken (by Signal, Broadcast, or timeout) AND has been
// granted the turn, and reports how it was woken. Like GetTurn, the woken
// thread receives the turn by direct handoff: the granter publishes all wake
// state before setting its granted flag.
func (s *Scheduler) Wait(t *Thread, obj uint64, timeout int64) WaitStatus {
	defer s.unlock(s.lock())
	s.requireTurnLocked(t, "Wait")
	s.stack.OnBlock(t)
	s.advanceTimeLocked(t)
	s.removeRunnableLocked(t)
	t.queue = qWait
	t.obj = obj
	t.deadline = 0
	if timeout > 0 {
		t.deadline = s.turn + timeout
	}
	s.waitSeq++
	t.seq = s.waitSeq
	e := s.objs[obj]
	e.waits.pushBack(t)
	s.putObjLocked(obj, e)
	s.nWaiting++
	if s.nWaiting > s.stats.MaxWaiting {
		s.stats.MaxWaiting = s.nWaiting
	}
	if t.deadline > 0 {
		s.timers.push(t)
		if s.timers.len() > s.stats.MaxTimedWaiters {
			s.stats.MaxTimedWaiters = s.timers.len()
		}
	}
	s.stats.Waits++
	t.wantTurn = true
	s.releaseTurnLocked()
	s.awaitGrant(t)
	// waitStatus was written by wakeLocked before the grant was issued.
	return t.waitStatus
}

// Signal wakes the first thread waiting on obj, if any, and returns the
// number of threads still waiting there — an O(1) read of the per-object
// wait list that wrappers feed to the policy stack's OnSignal hook (WakeAMAP)
// without a second scheduler call. The woken thread joins the runnable queue
// chosen by the policy stack (the wake-up queue under BoostBlocked, the tail
// of the run queue otherwise — the vanilla Parrot behaviour). The caller
// keeps the turn.
func (s *Scheduler) Signal(t *Thread, obj uint64) int {
	defer s.unlock(s.lock())
	s.requireTurnLocked(t, "Signal")
	s.stats.Signals++
	e := s.objs[obj]
	if e.waits.head == nil {
		return 0
	}
	remaining := e.waits.n - 1
	w := e.waits.head
	if s.cfg.Chooser != nil && remaining > 0 {
		w = s.chooseWakeLocked(&e.waits)
	}
	s.detachLocked(&e.waits, w)
	s.objs[obj] = e
	s.wakeLocked(w, WaitSignaled, t.vtime)
	return remaining
}

// Broadcast wakes all threads waiting on obj in wait-list (FIFO) order. It
// empties a copy of the object's entry and writes it back once, not once per
// waiter. The caller keeps the turn.
func (s *Scheduler) Broadcast(t *Thread, obj uint64) {
	defer s.unlock(s.lock())
	s.requireTurnLocked(t, "Broadcast")
	s.stats.Broadcasts++
	e := s.objs[obj]
	if e.waits.head == nil {
		return
	}
	for w := e.waits.head; w != nil; w = e.waits.head {
		s.detachLocked(&e.waits, w)
		s.wakeLocked(w, WaitSignaled, t.vtime)
	}
	s.objs[obj] = e
}

// detachLocked removes w from q, its object's wait list, and, when timed,
// from the deadline heap. q is a copy of the list from w's entry in objs,
// which the caller writes back; the (possibly emptied) entry stays there
// until DestroyObject.
func (s *Scheduler) detachLocked(q *tqueue, w *Thread) {
	q.remove(w)
	if w.heapIdx >= 0 {
		s.timers.remove(w)
	}
	s.nWaiting--
}

// expireLocked wakes every timed waiter whose deadline has passed: heap pops
// in (deadline, seq) order, which is FIFO registration order among waiters
// sharing a deadline — the same order the old full-queue scan woke them in.
// When nothing has expired (the overwhelmingly common case on a turn
// advance) this is a single heap peek.
func (s *Scheduler) expireLocked() {
	for s.timers.len() > 0 {
		w := s.timers.top()
		if w.deadline > s.turn {
			return
		}
		e := s.objs[w.obj]
		s.detachLocked(&e.waits, w)
		s.objs[w.obj] = e
		s.wakeLocked(w, WaitTimeout, 0)
	}
}

// wakeLocked moves a thread out of the wait queue into the runnable queue
// the policy stack routes it to. wakerVTime, when positive, records the
// happens-before edge from the waking operation: the woken thread cannot
// resume before its waker reached the wake-up in virtual time.
func (s *Scheduler) wakeLocked(t *Thread, st WaitStatus, wakerVTime int64) {
	t.waitStatus = st
	if st == WaitTimeout {
		s.stats.WokenByTimeout++
	} else {
		s.stats.WokenBySignal++
	}
	if wakerVTime > 0 {
		t.MeetVTime(wakerVTime)
	}
	if s.stack.WakeQueue(t, st == WaitTimeout) == policy.QueueWake {
		t.queue = qWake
		s.wakeQ.pushBack(t)
	} else {
		t.queue = qRun
		s.runQ.pushBack(t)
	}
}

// waitedObjsLocked returns the objects with blocked threads in id order.
func (s *Scheduler) waitedObjsLocked() []uint64 {
	var objs []uint64
	for k, e := range s.objs {
		if e.waits.head != nil {
			objs = append(objs, k)
		}
	}
	slices.Sort(objs)
	return objs
}

// dheap is a binary min-heap of timed waiters ordered by (deadline, seq).
// The seq tie-break makes same-deadline waiters expire in their global FIFO
// registration order, exactly the order the old full-queue expiry scan
// produced, so the deterministic schedule is unchanged. Each waiter caches
// its heap index so Signal/Broadcast can delist a timed waiter in O(log n).
type dheap struct {
	ws []*Thread
}

func (h *dheap) len() int { return len(h.ws) }

// top returns the waiter with the earliest (deadline, seq). The heap must be
// non-empty.
func (h *dheap) top() *Thread { return h.ws[0] }

func (h *dheap) less(i, j int) bool {
	a, b := h.ws[i], h.ws[j]
	return a.deadline < b.deadline || (a.deadline == b.deadline && a.seq < b.seq)
}

func (h *dheap) swap(i, j int) {
	h.ws[i], h.ws[j] = h.ws[j], h.ws[i]
	h.ws[i].heapIdx = i
	h.ws[j].heapIdx = j
}

// push adds w to the heap in O(log n).
func (h *dheap) push(w *Thread) {
	w.heapIdx = len(h.ws)
	h.ws = append(h.ws, w)
	h.up(w.heapIdx)
}

// remove deletes w from the heap in O(log n) via its cached index and marks
// it untimed (heapIdx = -1).
func (h *dheap) remove(w *Thread) {
	i := w.heapIdx
	last := len(h.ws) - 1
	h.swap(i, last)
	h.ws[last] = nil
	h.ws = h.ws[:last]
	w.heapIdx = -1
	if i < last {
		h.down(i)
		h.up(i)
	}
}

func (h *dheap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(i, p) {
			return
		}
		h.swap(i, p)
		i = p
	}
}

func (h *dheap) down(i int) {
	n := len(h.ws)
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && h.less(l, m) {
			m = l
		}
		if r < n && h.less(r, m) {
			m = r
		}
		if m == i {
			return
		}
		h.swap(i, m)
		i = m
	}
}
