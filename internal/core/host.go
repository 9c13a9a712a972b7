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
// coroutine of it (iter.Pull). A turn handoff is one or two coroutine
// switches, and entering the scheduler takes no lock: only that goroutine
// ever does (Scheduler.lock).
//
// Who runs when. Only the driver resumes anybody. Whenever the driver would
// block — its own GetTurn or Wait, the drain after its thread exited, a
// contended PCS lock or an offloaded computation of its own — it resumes, one
// at a time, a thread that can make progress (resume): a created thread that
// has never run, in creation order, since until it reaches its thread_begin
// GetTurn the scheduler may be keeping the turn free for it; otherwise the
// turn holder, granted and not yet resumed; otherwise the head of the FIFO of
// threads outside the turn. Every other thread is suspended inside awaitGrant
// with wantTurn set and can do nothing until it is granted the turn, so no
// choice the driver makes reorders two synchronization operations.
//
// Outside the turn. A thread suspends itself outside the turn, neither
// wanting it nor holding a grant, for one of two reasons: a lock it takes
// outside the turn (a PCS mutex under Config.PCS) is taken, and it will retry
// when resumed (YieldOffTurn); or it handed a declared pure computation to a
// helper goroutine (YieldComputing), and the driver, when it takes the entry,
// joins the computation — waits for the helper, or runs it if no helper took
// it — before resuming the thread. Both wait in one FIFO (Host.aside) and come
// off it in the order they yielded, never in the order computations finish,
// so the interleaving of the domain's threads is the same at any GOMAXPROCS.
// A successful retry advances the thread's virtual clock, so a retry back in
// the FIFO with its clock unchanged has changed nothing; idle counts those in
// a row, and each moves the FIFO along by one. A computation's entry thus
// reaches the head before idle can reach the FIFO's length, and taking it
// restarts the count, since the rejoined thread may release a lock. When idle
// does reach the length, every entry is a retry that came straight back since
// anything else ran: none ever will succeed, and the domain is stuck.
//
// What the contract is. A hosted thread that blocks natively blocks its whole
// domain, so it may only block on something outside the domain (an ingress
// source, an XPipe peer — every domain has its own driving goroutine). A run
// frozen by a deadlock handler or abandoned after a panic keeps its host
// record, its coroutines and the goroutines under them.

// Body is what a hosted thread executes on its coroutine, start to finish:
// thread_begin, the program's function, exit. The root package's Thread is
// the one implementation; the scheduler tests bring their own.
type Body interface{ Run() }

// Host is the per-run record of a hosted scheduler. It hangs off the
// Scheduler rather than widening Thread or the root package's Runtime, whose
// allocation size classes the byte metrics depend on, and is recycled across
// runs (freeHosts), so a warm hosted run allocates nothing for it — nor for
// its thread table, which keeps its capacity from run to run, nor for its
// flight recorder (report.go), which is emptied.
type Host struct {
	ring *ring // the domain's last traced operations

	threads []*Thread // the scheduler's thread table (Scheduler.threads), by thread id
	workers []*worker // by thread id: the coroutine of a started or fresh thread; nil for the driver (thread 0) and once a body returned
	fresh   []*Thread // threads StartHosted queued, in creation order; fresh[next:] have never run
	next    int
	active  int // workers whose body has not returned

	aside    []aside // threads suspended outside the turn, FIFO
	popped   *Thread // the thread last taken off it, until it yields again or is seen to have progressed
	poppedAt int64   // popped's virtual clock when it was taken
	idle     int     // retries in a row whose thread came straight back unchanged
}

// Job is a declared pure computation a hosted thread handed to another
// goroutine (YieldComputing). Join returns once its result is ready, running
// it on the caller if no other goroutine has taken it: the driver calls it
// when it takes the thread off the FIFO. It is the one cross-goroutine wait
// of a hosted domain, and it lives behind this interface so the scheduler
// stays free of sync and sync/atomic.
type Job interface{ Join() }

// aside is an entry of the FIFO outside the turn: a lock retry, or with a
// job an offloaded computation.
type aside struct {
	t   *Thread
	job Job
}

func (a aside) String() string { return a.t.String() }

// worker is one pooled coroutine. It runs the bodies it is handed one after
// the other: between two it is suspended in its own yield, on the free list.
type worker struct {
	body  Body
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
}

// The free lists are bounded channels: shared by every scheduler of the
// process, never dropping or duplicating an entry behind the caller's back.
// A worker is recycled only when its body returned, a host only when every
// body of its run did; what a frozen run holds stays with it. A worker the
// full list has no room for is stopped, so its goroutine ends.
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
// It must be called before the first Register, so no thread can be inside
// the scheduler yet.
func (s *Scheduler) HostThreads() {
	if s.nextTID != 0 {
		panic("core: HostThreads after threads were registered")
	}
	select {
	case s.host = <-freeHosts:
	default:
		s.host = &Host{ring: new(ring)}
	}
	s.threads = &s.host.threads
}

// Drives reports whether t is the driver of a hosted scheduler: thread 0, the
// one whose goroutine every other thread of the scheduler runs on.
func (t *Thread) Drives() bool { return t.sched.host != nil && t.id == 0 }

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
// body has returned, and gives the host record back. Every thread has exited
// by then, and Exit cleared its table entry; the table is cleared anyway, so
// a recycled host keeps no Thread of an earlier run alive.
func (s *Scheduler) DrainHosted() {
	h := s.host
	for h.active > 0 {
		h.resume(s)
	}
	s.host, s.threads = nil, nil
	clear(h.threads)
	h.ring.n = 0
	*h = Host{ring: h.ring, threads: h.threads[:0], workers: h.workers[:0], fresh: h.fresh[:0], aside: h.aside[:0]}
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

// YieldOffTurn suspends t, a hosted thread whose lock outside the turn is
// taken, at the tail of the FIFO outside the turn; resumed, it retries.
func (s *Scheduler) YieldOffTurn(t *Thread) {
	h := s.host
	if h.popped == t && t.vtime == h.poppedAt {
		h.idle++
	} else {
		h.idle = 0
	}
	s.yieldAside(t, nil)
}

// YieldComputing suspends t, a hosted thread whose declared computation job
// runs on another goroutine, at the tail of the FIFO outside the turn; the
// driver joins job when it takes the entry, then resumes t. Whether a thread
// yields here is the caller's decision from the program alone, and the FIFO
// order depends only on program state, so the schedule does not depend on
// which goroutine ran the job or when it finished.
func (s *Scheduler) YieldComputing(t *Thread, job Job) {
	s.stats.Offloads++
	s.host.idle = 0 // t ran, and was not a retry coming straight back
	s.yieldAside(t, job)
}

// yieldAside queues t, with job if it computes, and suspends it until the
// driver takes the entry. The driver itself resumes other threads until its
// own entry comes up.
func (s *Scheduler) yieldAside(t *Thread, job Job) {
	h := s.host
	h.popped = nil
	h.aside = append(h.aside, aside{t, job})
	if t.id != 0 {
		h.workers[t.id].yield(struct{}{})
		return
	}
	for h.popped != t {
		h.resume(s)
	}
}

// resume switches to one thread that can make progress and returns when it
// next yields or its body returns (or at once, having taken the driver off
// the FIFO outside the turn). If none can, the domain is stuck.
func (h *Host) resume(s *Scheduler) {
	if h.popped != nil {
		h.idle, h.popped = 0, nil // it went on past its retry
	}
	var t *Thread
	if h.next < len(h.fresh) {
		t = h.fresh[h.next]
		h.fresh[h.next] = nil
		if h.next++; h.next == len(h.fresh) {
			h.fresh, h.next = h.fresh[:0], 0
		}
		h.idle = 0
	} else if t = s.holder; t != nil && t.granted {
		h.idle = 0
	} else if h.idle < len(h.aside) {
		a := h.aside[0]
		n := copy(h.aside, h.aside[1:])
		h.aside[n] = aside{}
		h.aside = h.aside[:n]
		t = a.t
		h.popped, h.poppedAt = t, t.vtime
		if a.job != nil {
			h.idle = 0 // what it does next may release a lock a retry waits for
			a.job.Join()
		}
		if t.id == 0 {
			return
		}
	} else {
		s.stuck()
		select {}
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

// stuck is the driver finding no thread of its domain that can make progress,
// the one place a domain's own deadlock is detected. Under a replay schedule
// that is a divergence — the recorded thread was never created, and no thread
// can run to create it (replayEligibleLocked leaves that wait to this point) —
// so it panics like every other divergence, in the driver: out of Runtime.Run
// for the default domain. Otherwise it is a deadlock, reported on the driver:
// on the locks of the threads off the turn, if there are any, and else of
// threads that all wait without a timeout (passTurnLocked would have expired
// one). stuck returns if the handler did, and the driver parks for good.
func (s *Scheduler) stuck() {
	if s.replayingLocked() {
		e := s.replay[s.replayPos]
		panic(s.reportLocked(divergence, "expected T%d to run %v but no thread of the domain can run (%d created)", e.TID, e.Op, s.nextTID))
	}
	why := "all threads blocked without timeout"
	if len(s.host.aside) > 0 {
		why = fmt.Sprint("every thread outside the turn waits for a lock nobody can release\n  offTurn: ", s.host.aside)
	}
	s.ReportDeadlock(s.reportLocked(deadlock, "%s", why))
}
