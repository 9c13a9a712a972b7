package qithread

import (
	"sync"

	"qithread/internal/core"
)

// Once is the pthread_once replacement: fn runs exactly once, and every
// caller returns only after fn has completed. The initializer runs outside
// the turn so it may itself perform synchronization operations.
type Once struct {
	object

	// Deterministic state, guarded by the turn.
	running bool
	done    bool

	nonce sync.Once // Nondet mode
}

// NewOnce creates a one-time initializer gate.
func (rt *Runtime) NewOnce(t *Thread, name string) *Once {
	o := new(Once)
	o.init(rt, t, "once:", name, core.OpOnce)
	return o
}

// Do runs fn if no call has run it yet, otherwise waits until the running
// call completes.
func (o *Once) Do(t *Thread, fn func()) {
	s := o.dom.enter(t, "once", o.name)
	if s == nil {
		o.nonce.Do(fn)
		return
	}
	s.GetTurn(t.ct)
	for o.running {
		s.TraceOp(t.ct, core.OpOnce, o.obj, core.StatusBlocked)
		t.park(o.obj, core.NoTimeout)
	}
	if o.done {
		s.TraceOp(t.ct, core.OpOnce, o.obj, core.StatusOK)
		t.release()
		return
	}
	o.running = true
	s.TraceOp(t.ct, core.OpOnce, o.obj, core.StatusOK)
	t.release()
	fn()
	s.GetTurn(t.ct)
	o.running = false
	o.done = true
	s.Broadcast(t.ct, o.obj)
	s.TraceOp(t.ct, core.OpOnce, o.obj, core.StatusReturn)
	t.release()
}
