package qithread

import (
	"sync"

	"qithread/internal/core"
)

// RWMutex is the pthread_rwlock_t replacement. The deterministic
// implementation keeps reader/writer state under the turn and parks
// contenders on the scheduler wait queue; wake-ups happen via Broadcast so
// every contender deterministically re-evaluates in FIFO order. Writers are
// preferred once waiting, preventing writer starvation under read-heavy
// workloads such as the Berkeley DB and OpenLDAP models.
type RWMutex struct {
	object

	// Deterministic state, guarded by the turn.
	readers    int
	writer     bool
	waitingWri int

	nrw sync.RWMutex // Nondet mode
}

// NewRWMutex creates a readers-writer lock.
func (rt *Runtime) NewRWMutex(t *Thread, name string) *RWMutex {
	rw := new(RWMutex)
	rw.init(rt, t, "rwlock:", name, core.OpRWInit)
	return rw
}

// RLock acquires the lock for reading (pthread_rwlock_rdlock).
func (rw *RWMutex) RLock(t *Thread) {
	s := rw.dom.enter(t, "rwlock", rw.name)
	if s == nil {
		rw.nrw.RLock()
		return
	}
	s.GetTurn(t.ct())
	t.await(s, core.OpRLock, rw.obj, func() bool { return !rw.writer && rw.waitingWri == 0 })
	rw.readers++
	// CSWhole deliberately does NOT retain the turn for read-side critical
	// sections: multiple readers hold the lock concurrently, and scheduling
	// one reader's section "as a whole" would serialize all of them — the
	// policy targets exclusive (mutex/writer) sections (Section 3.3).
	t.release()
}

// TryRLock attempts a read acquisition without blocking.
func (rw *RWMutex) TryRLock(t *Thread) bool {
	s := rw.dom.enter(t, "rwlock", rw.name)
	if s == nil {
		return rw.nrw.TryRLock()
	}
	s.GetTurn(t.ct())
	ok := !rw.writer && rw.waitingWri == 0
	if ok {
		rw.readers++
	}
	s.TraceOp(t.ct(), core.OpTryRLock, rw.obj, core.StatusOK)
	t.release()
	return ok
}

// WLock acquires the lock for writing (pthread_rwlock_wrlock).
func (rw *RWMutex) WLock(t *Thread) {
	s := rw.dom.enter(t, "rwlock", rw.name)
	if s == nil {
		rw.nrw.Lock()
		return
	}
	s.GetTurn(t.ct())
	rw.waitingWri++
	t.await(s, core.OpWLock, rw.obj, func() bool { return !rw.writer && rw.readers == 0 })
	rw.waitingWri--
	rw.writer = true
	// CSWhole targets mutex critical sections (Section 3.3); writer
	// sections of database-style rwlocks are long, and retaining the turn
	// through them would serialize threads working on unrelated objects —
	// the "acquiring different mutexes" hazard the paper warns about.
	t.release()
}

// TryWLock attempts a write acquisition without blocking.
func (rw *RWMutex) TryWLock(t *Thread) bool {
	s := rw.dom.enter(t, "rwlock", rw.name)
	if s == nil {
		return rw.nrw.TryLock()
	}
	s.GetTurn(t.ct())
	ok := !rw.writer && rw.readers == 0
	if ok {
		rw.writer = true
	}
	s.TraceOp(t.ct(), core.OpTryWLock, rw.obj, core.StatusOK)
	t.release()
	return ok
}

// RUnlock releases a read acquisition.
func (rw *RWMutex) RUnlock(t *Thread) {
	s := rw.dom.enter(t, "rwlock", rw.name)
	if s == nil {
		rw.nrw.RUnlock()
		return
	}
	rw.unlock(t, s, false)
}

// WUnlock releases a write acquisition.
func (rw *RWMutex) WUnlock(t *Thread) {
	s := rw.dom.enter(t, "rwlock", rw.name)
	if s == nil {
		rw.nrw.Unlock()
		return
	}
	rw.unlock(t, s, true)
}

func (rw *RWMutex) unlock(t *Thread, s *core.Scheduler, write bool) {
	s.GetTurn(t.ct())
	if write {
		if !rw.writer {
			panic("qithread: WUnlock of rwlock not write-locked")
		}
		rw.writer = false
	} else {
		if rw.readers == 0 {
			panic("qithread: RUnlock of rwlock not read-locked")
		}
		rw.readers--
	}
	// All contenders re-evaluate deterministically; the scheduler wakes them
	// in FIFO order and each retries under its own turn.
	s.Broadcast(t.ct(), rw.obj)
	s.TraceOp(t.ct(), core.OpRWUnlock, rw.obj, core.StatusOK)
	t.release()
}

// Destroy retires the lock and releases its scheduler bookkeeping.
func (rw *RWMutex) Destroy(t *Thread) { rw.destroy(t, "rwlock", core.OpRWDestroy) }
