package qithread

import (
	"sync"

	"qithread/internal/core"
)

// Barrier is the pthread_barrier_t replacement. The last arriving thread
// releases all waiters in deterministic FIFO order and is reported as the
// serial thread, mirroring PTHREAD_BARRIER_SERIAL_THREAD.
type Barrier struct {
	object
	n int

	// Deterministic state, guarded by the turn.
	arrived int

	// Nondet state.
	nmu  sync.Mutex
	ncv  *sync.Cond
	narr int
	ngen uint64
}

// NewBarrier creates a barrier for n threads.
func (rt *Runtime) NewBarrier(t *Thread, name string, n int) *Barrier {
	if n <= 0 {
		panic("qithread: barrier count must be positive")
	}
	b := &Barrier{n: n}
	b.init(rt, t, "barrier:", name, core.OpBarrierInit)
	if b.dom.sched == nil {
		b.ncv = sync.NewCond(&b.nmu)
	}
	return b
}

// Wait blocks until n threads have arrived. It returns true in exactly one
// of the n threads (the serial thread).
func (b *Barrier) Wait(t *Thread) bool {
	s := b.dom.enter(t, "barrier", b.name)
	if s == nil {
		b.nmu.Lock()
		defer b.nmu.Unlock()
		gen := b.ngen
		b.narr++
		if b.narr == b.n {
			b.narr = 0
			b.ngen++
			b.ncv.Broadcast()
			return true
		}
		for gen == b.ngen {
			b.ncv.Wait()
		}
		return false
	}
	s.GetTurn(t.ct)
	b.arrived++
	if b.arrived == b.n {
		b.arrived = 0
		s.Broadcast(t.ct, b.obj)
		s.TraceOp(t.ct, core.OpBarrierWait, b.obj, core.StatusOK)
		t.release()
		return true
	}
	s.TraceOp(t.ct, core.OpBarrierWait, b.obj, core.StatusBlocked)
	t.park(b.obj, core.NoTimeout)
	s.TraceOp(t.ct, core.OpBarrierWait, b.obj, core.StatusReturn)
	t.release()
	return false
}

// Destroy retires the barrier and releases its scheduler bookkeeping.
func (b *Barrier) Destroy(t *Thread) { b.destroy(t, "barrier", core.OpBarrierDestroy) }
