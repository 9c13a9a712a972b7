package qithread

import (
	"sync"
	"time"

	"qithread/internal/core"
)

// Sem is the POSIX counting semaphore (sem_t) replacement. Like condition
// variables, semaphores participate in the WakeAMAP policy: a thread posting
// a semaphore keeps the turn while more threads wait on it (Section 3.4), and
// the BranchedWake instrumentation targets branches that skip a sem_post
// (Figure 3, Figure 7b).
type Sem struct {
	object

	// val is the semaphore count. In deterministic modes it is guarded by
	// the turn; in Nondet mode by nmu.
	val int64

	nmu sync.Mutex
	ncv *sync.Cond
}

// NewSem creates a semaphore with the given initial value.
func (rt *Runtime) NewSem(t *Thread, name string, value int64) *Sem {
	sem := &Sem{val: value}
	sem.init(rt, t, "sem:", name, core.OpSemInit)
	if sem.dom.sched == nil {
		sem.ncv = sync.NewCond(&sem.nmu)
	}
	return sem
}

// Wait decrements the semaphore, blocking while the count is zero (sem_wait).
func (sem *Sem) Wait(t *Thread) {
	s := sem.dom.enter(t, "sem", sem.name)
	if s == nil {
		sem.nondetWait(core.NoTimeout)
		return
	}
	s.GetTurn(t.ct)
	t.await(s, core.OpSemWait, sem.obj, func() bool { return sem.val > 0 })
	sem.val--
	t.release()
}

// TryWait decrements the semaphore if its count is positive and reports
// whether it did (sem_trywait).
func (sem *Sem) TryWait(t *Thread) bool {
	s := sem.dom.enter(t, "sem", sem.name)
	if s == nil {
		sem.nmu.Lock()
		defer sem.nmu.Unlock()
		if sem.val == 0 {
			return false
		}
		sem.val--
		return true
	}
	s.GetTurn(t.ct)
	ok := sem.val > 0
	if ok {
		sem.val--
	}
	s.TraceOp(t.ct, core.OpSemTryWait, sem.obj, core.StatusOK)
	t.release()
	return ok
}

// TimedWait is Wait with a logical timeout in turns; it reports whether the
// semaphore was acquired (sem_timedwait). In Nondet mode the timeout is
// turns*nondetSleepUnit of real time, the unit Sleep uses.
func (sem *Sem) TimedWait(t *Thread, turns int64) bool {
	s := sem.dom.enter(t, "sem", sem.name)
	if s == nil {
		return sem.nondetWait(turns)
	}
	s.GetTurn(t.ct)
	for sem.val == 0 {
		s.TraceOp(t.ct, core.OpSemTimedWait, sem.obj, core.StatusBlocked)
		if st := t.park(sem.obj, turns); st == core.WaitTimeout {
			if sem.val > 0 {
				break // value arrived exactly with the timeout
			}
			s.TraceOp(t.ct, core.OpSemTimedWait, sem.obj, core.StatusReturn)
			t.release()
			return false
		}
	}
	sem.val--
	s.TraceOp(t.ct, core.OpSemTimedWait, sem.obj, core.StatusReturn)
	t.release()
	return true
}

// nondetWait is Wait (timeout NoTimeout) and TimedWait in Nondet mode. A
// timed wait ends when a timer broadcasts after timeout*nondetSleepUnit; to
// the other waiters that wake-up is spurious, and they wait on.
func (sem *Sem) nondetWait(timeout int64) bool {
	sem.nmu.Lock()
	defer sem.nmu.Unlock()
	expired := false // guarded by nmu
	if timeout > 0 && sem.val == 0 {
		timer := time.AfterFunc(nondetSleepUnit*time.Duration(timeout), func() {
			sem.nmu.Lock()
			expired = true
			sem.ncv.Broadcast()
			sem.nmu.Unlock()
		})
		defer timer.Stop()
	}
	for sem.val == 0 && !expired {
		sem.ncv.Wait()
	}
	if sem.val == 0 {
		return false
	}
	sem.val--
	return true
}

// Post increments the semaphore and wakes one waiter (sem_post). Under
// WakeAMAP the caller keeps the turn while more threads wait on the
// semaphore.
func (sem *Sem) Post(t *Thread) {
	s := sem.dom.enter(t, "sem", sem.name)
	if s == nil {
		sem.nmu.Lock()
		sem.val++
		sem.nmu.Unlock()
		sem.ncv.Signal()
		return
	}
	s.GetTurn(t.ct)
	sem.val++
	left := s.Signal(t.ct, sem.obj)
	s.TraceOp(t.ct, core.OpSemPost, sem.obj, core.StatusOK)
	if sem.dom.stack.NeedWaiters() {
		// Sticky retention (WakeAMAP) across the posting loop; see
		// Cond.Signal. The remaining waiter count comes straight from the
		// Signal call.
		sem.dom.stack.OnSignal(t.ct, left)
	}
	t.release()
}

// Value returns the current semaphore count (sem_getvalue).
func (sem *Sem) Value(t *Thread) int64 {
	s := sem.dom.enter(t, "sem", sem.name)
	if s == nil {
		sem.nmu.Lock()
		defer sem.nmu.Unlock()
		return sem.val
	}
	s.GetTurn(t.ct)
	v := sem.val
	s.TraceOp(t.ct, core.OpSemGetValue, sem.obj, core.StatusOK)
	t.release()
	return v
}

// Destroy retires the semaphore and releases its scheduler bookkeeping
// (object name, empty wait-list entry).
func (sem *Sem) Destroy(t *Thread) { sem.destroy(t, "sem", core.OpSemDestroy) }
