package qithread

import (
	"sync"

	"qithread/internal/core"
)

// Mutex is the pthread_mutex_t replacement. In deterministic modes its
// lock/unlock wrappers follow Figure 5 of the paper: the lock wrapper
// acquires the turn and spins on a trylock, waiting on the scheduler's wait
// queue whenever the real mutex is contended, so a blocked thread never holds
// the turn. Under the CSWhole policy the lock wrapper retains the turn so the
// whole critical section is scheduled as one unit (Section 3.3).
type Mutex struct {
	object
	pcs  bool
	real sync.Mutex

	// owner is the thread currently holding the mutex, for error checking
	// in the style of PTHREAD_MUTEX_ERRORCHECK: unlocking a mutex one does
	// not hold is a caught error rather than silent corruption. It is only
	// read and written while holding real (or the turn in deterministic
	// modes), so it needs no further synchronization.
	owner *Thread

	// vRel is the virtual time of the last release, for the PCS bypass's
	// per-object critical-path accounting. A plain field: a PCS run is hosted,
	// so every thread that touches the mutex runs on one goroutine.
	vRel int64
}

// NewMutex creates a mutex. Creation is itself a deterministically ordered
// operation (mutex IDs are assigned under the turn).
func (rt *Runtime) NewMutex(t *Thread, name string) *Mutex {
	return rt.newMutex(t, name, false)
}

// NewPCSMutex creates a mutex carrying Parrot's performance-critical-section
// hint: when Config.PCS is set, operations on it bypass the deterministic
// scheduler entirely — a contended Lock waits outside the turn — trading
// determinism for performance on hot locks (the "Parrot w/ PCS" configuration
// of Figure 8). Without Config.PCS it behaves like a normal mutex.
func (rt *Runtime) NewPCSMutex(t *Thread, name string) *Mutex {
	return rt.newMutex(t, name, true)
}

func (rt *Runtime) newMutex(t *Thread, name string, pcs bool) *Mutex {
	m := &Mutex{pcs: pcs}
	m.init(rt, t, "mutex:", name, core.OpMutexInit)
	return m
}

// bypass reports whether operations on this mutex skip the turn of a
// deterministic run: a PCS-hinted mutex with Config.PCS. (A Nondet run has no
// turn; the wrappers take their native path before asking.)
func (m *Mutex) bypass() bool { return m.pcs && m.dom.rt.cfg.PCS }

// Lock acquires the mutex (Figure 5, lock_wrapper).
func (m *Mutex) Lock(t *Thread) {
	s := m.dom.enter(t, "mutex", m.name)
	if s == nil {
		m.real.Lock()
		m.owner = t
		return
	}
	if m.bypass() {
		for !m.real.TryLock() {
			s.YieldOffTurn(t.ct())
		}
		m.owner = t
		// The acquisition advances the thread's virtual clock, which is how
		// YieldOffTurn's driver tells a successful retry from a spin.
		t.ct().MeetVTime(m.vRel)
		t.ct().AddVTime(core.VSyncCostNative)
		return
	}
	s.GetTurn(t.ct())
	t.await(s, core.OpMutexLock, m.obj, m.real.TryLock)
	m.owner = t
	if m.dom.stack.OnAcquire(t.ct()) {
		// A policy (CSWhole) retains the turn at the acquisition site: the
		// critical section runs as a whole.
		return
	}
	t.release()
}

// TryLock attempts to acquire the mutex without blocking and reports whether
// it succeeded.
func (m *Mutex) TryLock(t *Thread) bool {
	s := m.dom.enter(t, "mutex", m.name)
	if s == nil {
		ok := m.real.TryLock()
		if ok {
			m.owner = t
		}
		return ok
	}
	if m.bypass() {
		ok := m.real.TryLock()
		if ok {
			m.owner = t
			t.ct().MeetVTime(m.vRel)
		}
		t.ct().AddVTime(core.VSyncCostNative)
		return ok
	}
	s.GetTurn(t.ct())
	ok := m.real.TryLock()
	if ok {
		m.owner = t
	}
	s.TraceOp(t.ct(), core.OpMutexTryLock, m.obj, core.StatusOK)
	if ok && m.dom.stack.OnAcquire(t.ct()) {
		return true
	}
	t.release()
	return ok
}

// Unlock releases the mutex (Figure 5, unlock_wrapper). Under CSWhole the
// calling thread already holds the turn (GetTurn is then a no-op) and the
// release below ends the critical section's whole-turn.
func (m *Mutex) Unlock(t *Thread) {
	s := m.dom.enter(t, "mutex", m.name)
	if s == nil || m.bypass() {
		if m.owner != t {
			panic("qithread: Unlock of mutex " + m.name + " not held by " + t.String())
		}
		m.unlockBypass(t, s)
		return
	}
	s.GetTurn(t.ct())
	if m.owner != t {
		panic("qithread: Unlock of mutex " + m.name + " not held by " + t.String())
	}
	m.owner = nil
	m.real.Unlock()
	s.Signal(t.ct(), m.obj)
	s.TraceOp(t.ct(), core.OpMutexUnlock, m.obj, core.StatusOK)
	m.dom.stack.OnRelease(t.ct())
	t.release()
}

// unlockBypass releases a mutex t holds without taking the turn: natively in
// Nondet mode (s is nil), and for the PCS bypass with its virtual-time
// accounting.
func (m *Mutex) unlockBypass(t *Thread, s *core.Scheduler) {
	m.owner = nil
	if s != nil {
		t.ct().AddVTime(core.VSyncCostNative)
		m.vRel = t.ct().VTime()
	}
	m.real.Unlock()
}

// Destroy retires the mutex. Like pthread_mutex_destroy it is an ordered
// operation; the object must not be used afterwards. The scheduler releases
// the object's bookkeeping (name, empty wait-list entry) so long-running
// programs that churn mutexes do not leak map entries.
func (m *Mutex) Destroy(t *Thread) {
	if m.bypass() {
		m.dom.enter(t, "mutex", m.name)
		return
	}
	m.destroy(t, "mutex", core.OpMutexDestroy)
}
