package core

import (
	"fmt"
	"iter"
)

// Hosted runs. A scheduler domain is serial by construction: one thread holds
// the turn, the others are parked waiting for it, and the schedule depends
// only on the order of synchronization operations, which the turn mechanism
// alone decides. Such a domain needs no second goroutine. A hosted scheduler
// (HostThreads) therefore executes all its threads on the goroutine that runs
// the first one — the driver: Runtime.Run's main thread in the default
// domain, root 0 of a launched one — and every other thread's body on a
// coroutine of it (iter.Pull): where an unhosted thread parks on its grant
// channel a hosted one yields to the driver, and where the releaser of a turn
// sends a grant token it sets the grantee's granted flag. A turn handoff is
// then one or two coroutine switches instead of a chansend → goready → park
// → schedule round trip.
//
// Who runs when. Only the driver resumes anybody. Whenever the driver would
// block — its own GetTurn or Wait, or the drain after its thread exited — it
// resumes, one at a time, a thread that can make progress (resume): a created
// thread that has never run, in creation order, since until it reaches its
// thread_begin GetTurn the scheduler may be keeping the turn free for it;
// otherwise the turn holder. Every other started thread is suspended inside
// awaitGrant with wantTurn set, so it can do nothing until it is granted the
// turn, and at most one thread is: no choice the driver makes reorders two
// synchronization operations, and schedules are byte-identical to the
// goroutine path's.
//
// What the contract is. A hosted thread that blocks natively blocks its whole
// domain, so it may only block on something outside the domain (an ingress
// source, an XPipe peer — every domain has its own driving goroutine). A run
// frozen by a deadlock handler or abandoned after a panic keeps its host
// record, its coroutines and the goroutines under them, exactly as the
// goroutine path's frozen threads keep their grant channels.

// Body is what a hosted thread executes on its coroutine, start to finish:
// thread_begin, the program's function, exit. The root package's Thread is
// the one implementation; the scheduler tests bring their own.
type Body interface{ Run() }

// Host is the per-run record of a hosted scheduler. It hangs off the
// Scheduler rather than widening Thread or the root package's Runtime, whose
// allocation size classes the byte metrics depend on, and is recycled across
// runs like a grant channel (freeHosts), so a warm hosted run allocates
// nothing for it.
type Host struct {
	workers []*worker // by thread id: the coroutine of a started or fresh thread; nil for the driver (thread 0) and once a body returned
	fresh   []*Thread // threads StartHosted queued, in creation order; fresh[next:] have never run
	next    int
	active  int // workers whose body has not returned
}

// worker is one pooled coroutine. It runs the bodies it is handed one after
// the other: between two it is suspended in its own yield, on the free list.
type worker struct {
	body  Body
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
}

// The free lists are bounded channels like freeGrants: shared by every
// scheduler of the process, never dropping or duplicating an entry behind the
// caller's back. A worker is recycled only when its body returned, a host
// only when every body of its run did; what a frozen run holds stays with it.
// A worker the full list has no room for is stopped, so its goroutine ends.
const (
	workerPoolCap = 64
	hostPoolCap   = 32
)

var (
	freeWorkers = make(chan *worker, workerPoolCap)
	freeHosts   = make(chan *Host, hostPoolCap)
)

func takeWorker() *worker {
	select {
	case w := <-freeWorkers:
		return w
	default:
		w := &worker{}
		w.next, w.stop = iter.Pull(w.bodies)
		return w
	}
}

// bodies is the coroutine's function: run the body handed over, report back
// by yielding with body cleared, and wait there for the next one.
func (w *worker) bodies(yield func(struct{}) bool) {
	w.yield = yield
	for {
		w.body.Run()
		w.body = nil
		if !yield(struct{}{}) {
			return
		}
	}
}

// HostThreads makes s a hosted scheduler: every thread registered from now on
// runs on one goroutine, the one that executes the first of them, the driver.
// It must be called before the first Register.
func (s *Scheduler) HostThreads() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.nextTID != 0 {
		panic("core: HostThreads after threads were registered")
	}
	select {
	case s.host = <-freeHosts:
	default:
		s.host = &Host{}
	}
}

// Hosted reports whether t is a thread of a hosted scheduler.
func (t *Thread) Hosted() bool { return t.hosted }

// Drives reports whether t is the driver of a hosted scheduler: thread 0, the
// one whose goroutine every other thread of the scheduler runs on.
func (t *Thread) Drives() bool { return t.hosted && t.id == 0 }

// StartHosted is the hosted counterpart of the `go` statement: t, just
// registered, will execute b on a pooled coroutine the first time the driver
// has nothing granted to run. The caller is a hosted thread of s or, before
// the driver starts, the code that registered it.
func (s *Scheduler) StartHosted(t *Thread, b Body) {
	h := s.host
	w := takeWorker()
	w.body = b
	for len(h.workers) <= t.id {
		h.workers = append(h.workers, nil)
	}
	h.workers[t.id] = w
	h.fresh = append(h.fresh, t)
	h.active++
}

// DrainHosted runs the threads that outlive the driver's own: called on the
// driving goroutine once the driver thread has exited, it returns when every
// body has returned, and gives the host record back.
func (s *Scheduler) DrainHosted() {
	h := s.host
	for h.active > 0 {
		h.resume(s)
	}
	s.host = nil
	*h = Host{workers: h.workers[:0], fresh: h.fresh[:0]}
	select {
	case freeHosts <- h:
	default:
	}
}

// await is awaitGrant for a hosted thread: the driver — thread 0, the first
// registered — resumes other threads until one of them has handed it the turn,
// anybody else yields to the driver and is resumed as the turn holder.
func (h *Host) await(s *Scheduler, t *Thread) {
	if t.id == 0 {
		for !t.granted {
			h.resume(s)
		}
	} else {
		w := h.workers[t.id]
		for !t.granted {
			w.yield(struct{}{})
		}
	}
	t.granted = false
}

// resume switches to one thread that can make progress and returns when it
// next yields or its body returns. If no such thread exists — nothing fresh,
// and a free turn although every started thread is asking for it or blocked —
// the domain is stuck (stuck).
func (h *Host) resume(s *Scheduler) {
	var t *Thread
	if h.next < len(h.fresh) {
		t = h.fresh[h.next]
		h.fresh[h.next] = nil
		if h.next++; h.next == len(h.fresh) {
			h.fresh, h.next = h.fresh[:0], 0
		}
	} else if t = s.holder.Load(); t == nil {
		s.stuck()
	}
	w := h.workers[t.id]
	w.next()
	if w.body == nil {
		h.workers[t.id] = nil
		h.active--
		select {
		case freeWorkers <- w:
		default:
			w.stop()
		}
	}
}

// stuck is the driver finding no thread of its domain that can make progress.
// Under a replay schedule that is a divergence — the recorded thread was never
// created, and no thread can run to create it (replayEligibleLocked leaves
// that wait to this point) — so it panics like every other divergence, in the
// driver: out of Runtime.Run for the default domain. Otherwise a deadlock
// handler has returned instead of freezing the run, and the driver parks for
// good as every thread of the goroutine path would.
func (s *Scheduler) stuck() {
	s.mu.Lock()
	if !s.replayingLocked() {
		s.mu.Unlock()
		select {}
	}
	e := s.replay[s.replayPos]
	msg := fmt.Sprintf("%s in domain %d at op index %d: expected T%d to run %v but no thread of the domain can run (%d created)\n%s",
		ErrReplayDivergence, s.cfg.DomainID, s.replayPos, e.TID, e.Op, s.nextTID, s.dumpLocked())
	s.mu.Unlock()
	panic(msg)
}
