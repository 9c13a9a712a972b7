package qithread

import (
	"sync"
	"time"

	"qithread/internal/core"
)

// Cond is the pthread_cond_t replacement. Its deterministic wrappers follow
// Figure 6 of the paper. Under the WakeAMAP policy, Signal keeps the turn
// while more threads wait on this condition variable so one unblocking loop
// wakes everybody back to back (Section 3.4); the reproduction queries the
// scheduler's wait queue for the remaining-waiter count, which is equivalent
// to the paper's cv_wait_map counters because every wait wrapper parks the
// thread within the same turn that would have incremented the counter.
type Cond struct {
	object

	// Nondet mode: a sync.Cond lazily bound to the first mutex used.
	bindMu sync.Mutex
	nc     *sync.Cond
	bound  *Mutex
}

// NewCond creates a condition variable.
func (rt *Runtime) NewCond(t *Thread, name string) *Cond {
	c := new(Cond)
	c.init(rt, t, "cond:", name, core.OpCondInit)
	return c
}

func (c *Cond) nondetCond(m *Mutex) *sync.Cond {
	c.bindMu.Lock()
	defer c.bindMu.Unlock()
	if c.nc == nil {
		c.nc = sync.NewCond(&m.real)
		c.bound = m
	} else if c.bound != m {
		panic("qithread: Cond used with two different mutexes")
	}
	return c.nc
}

// Wait atomically releases m and blocks until the condition variable is
// signaled, then re-acquires m (Figure 6, wait_wrapper). The caller must hold
// m, and as with pthreads should re-check its predicate in a loop.
func (c *Cond) Wait(t *Thread, m *Mutex) {
	c.wait(t, m, core.NoTimeout)
}

// TimedWait is Wait with a logical timeout in turns. It returns true if the
// thread was signaled and false on timeout. The mutex is re-acquired either
// way, as with pthread_cond_timedwait. In Nondet mode the timeout is
// turns*nondetSleepUnit of real time, the unit Sleep uses.
func (c *Cond) TimedWait(t *Thread, m *Mutex, turns int64) bool {
	return c.wait(t, m, turns)
}

func (c *Cond) wait(t *Thread, m *Mutex, timeout int64) bool {
	s := c.dom.enter(t, "cond", c.name)
	if m.owner != t {
		panic("qithread: Cond.Wait with mutex " + m.name + " not held by " + t.String())
	}
	if s == nil {
		nc := c.nondetCond(m)
		m.owner = nil
		expired := false // guarded by m.real, which the timer takes to broadcast
		if timeout > 0 {
			// The broadcast also wakes the other waiters; to them it is a
			// spurious wake-up, which pthreads allows.
			timer := time.AfterFunc(nondetSleepUnit*time.Duration(timeout), func() {
				nc.L.Lock()
				expired = true
				nc.Broadcast()
				nc.L.Unlock()
			})
			defer timer.Stop()
		}
		nc.Wait()
		m.owner = t
		return !expired
	}
	s.GetTurn(t.ct)
	op := core.OpCondWait
	if timeout > 0 {
		op = core.OpCondTimedWait
	}
	s.TraceOp(t.ct, op, c.obj, core.StatusBlocked)
	if m.bypass() {
		// A PCS mutex under Config.PCS: released natively, retaken outside
		// the turn; the wait is the scheduler's, which Signal wakes.
		m.unlockBypass(t, s)
		st := t.park(c.obj, timeout)
		s.TraceOp(t.ct, op, c.obj, core.StatusReturn)
		t.release()
		m.Lock(t)
		return st == core.WaitSignaled
	}
	// Release the mutex and wake one contender, then park on the condition
	// variable — all within the current turn, so release-and-wait is atomic
	// in the deterministic total order.
	m.owner = nil
	m.real.Unlock()
	s.Signal(t.ct, m.obj)
	c.dom.stack.OnRelease(t.ct)
	st := t.park(c.obj, timeout)
	for !m.real.TryLock() {
		s.TraceOp(t.ct, core.OpMutexLock, m.obj, core.StatusBlocked)
		t.park(m.obj, core.NoTimeout)
	}
	m.owner = t
	// Re-entering the critical section re-grants any CSWhole lease; the
	// release below then asks the stack's ExtendLease as usual.
	c.dom.stack.OnAcquire(t.ct)
	s.TraceOp(t.ct, op, c.obj, core.StatusReturn)
	t.release()
	return st == core.WaitSignaled
}

// Signal wakes one waiter (Figure 6, signal_wrapper). Under WakeAMAP the
// caller keeps the turn while more threads are waiting on this condition
// variable, so a wake-up loop runs to completion before anyone else is
// scheduled.
func (c *Cond) Signal(t *Thread) {
	s := c.dom.enter(t, "cond", c.name)
	if s == nil {
		c.bindMu.Lock()
		nc := c.nc
		c.bindMu.Unlock()
		if nc != nil {
			nc.Signal()
		}
		return
	}
	s.GetTurn(t.ct)
	left := s.Signal(t.ct, c.obj)
	s.TraceOp(t.ct, core.OpCondSignal, c.obj, core.StatusOK)
	if c.dom.stack.NeedWaiters() {
		// Sticky wake lease (WakeAMAP): hold the turn lease — across whatever
		// operations this thread performs next — while more threads wait
		// here, so the whole unblocking loop runs before anyone else is
		// scheduled and the woken threads resume aligned (Section 3.4).
		// Signal already returned the remaining per-object waiter count, so
		// no second scheduler call is needed.
		c.dom.stack.OnSignal(t.ct, left)
	}
	t.release()
}

// Broadcast wakes all waiters in FIFO order.
func (c *Cond) Broadcast(t *Thread) {
	s := c.dom.enter(t, "cond", c.name)
	if s == nil {
		c.bindMu.Lock()
		nc := c.nc
		c.bindMu.Unlock()
		if nc != nil {
			nc.Broadcast()
		}
		return
	}
	s.GetTurn(t.ct)
	s.Broadcast(t.ct, c.obj)
	s.TraceOp(t.ct, core.OpCondBroadcast, c.obj, core.StatusOK)
	c.dom.stack.OnBroadcast(t.ct) // nobody is left waiting here
	t.release()
}

// Destroy retires the condition variable and releases its scheduler
// bookkeeping (object name, empty wait-list entry).
func (c *Cond) Destroy(t *Thread) { c.destroy(t, "cond", core.OpCondDestroy) }
