package qithread

import (
	"fmt"
	"runtime"
	"time"

	"qithread/internal/core"
	"qithread/internal/spin"
)

// workQuantum is the number of work units the logical-clock modes charge per
// clock update, and the chunk their compute is chained in: the order of
// updates and the result the goldens pin.
const workQuantum = 1024

// Thread is one thread of a deterministically scheduled program, registered
// with its domain's scheduler: a coroutine of the domain's driving goroutine,
// or a goroutine of its own in Nondet mode (see Runtime.Run). The
// wrapper state the semantics-aware policies need (critical-section nesting
// for CSWhole, the pending keep-turn flag for CreateAll, the sticky wake hold
// for WakeAMAP) is policy.PerThread on the core thread, maintained by the
// policy stack's hooks.
//
// A Thread is the one heap record of its thread: the scheduler's queue node
// is the embedded node, registered in place, and the body function rides on
// the record to its goroutine or coroutine instead of in a closure. The node
// holds the thread's name too, in every mode. The record fills the 176-B
// size class (TestRecordSizesPinned).
type Thread struct {
	rt   *Runtime
	dom  *Domain     // the scheduler domain the thread belongs to
	node core.Thread // the scheduler's record of this thread (see register)
	id   int

	// fn is the body of a Created or Launched thread, held from creation
	// until the thread's goroutine or coroutine starts it (see run).
	fn func(*Thread)

	// workSeed seeds this thread's synthetic compute so results are
	// deterministic per thread.
	workSeed uint64

	// join state. done is written by the exiting thread and read by joiners;
	// in deterministic modes both happen under the turn, in Nondet mode the
	// nondetDone channel provides the ordering. The object joiners wait on is
	// node's join object (core.Thread.JoinObject).
	done       bool
	nondetDone chan struct{}
}

// Name returns the thread's debugging name.
func (t *Thread) Name() string { return t.node.Name() }

// ct is the thread's scheduler record, the embedded node, once registered;
// nil before that and in Nondet mode, which registers no thread.
func (t *Thread) ct() *core.Thread {
	if !t.node.Registered() {
		return nil
	}
	return &t.node
}

// ID returns the thread's creation index within its runtime (main is 0).
func (t *Thread) ID() int { return t.id }

// Domain returns the scheduler domain the thread belongs to: the domain of
// its creator, or the domain it was Started in.
func (t *Thread) Domain() *Domain { return t.dom }

func (t *Thread) String() string { return fmt.Sprintf("T%d(%s)", t.id, t.Name()) }

// Create starts a new thread running fn, mirroring pthread_create. It is a
// synchronization operation: the child's position in the run queue, and
// therefore the deterministic schedule, is fixed by the order of Create
// calls. When the CreateAll policy is armed via KeepTurn, the creating thread
// keeps the turn so a creation loop completes back to back (Figure 7a).
func (t *Thread) Create(name string, fn func(*Thread)) *Thread {
	// The child joins the creator's scheduler domain; populating a different
	// domain is Domain.Start's job.
	child := t.rt.newThread(name, t.dom)
	child.fn = fn
	if !t.rt.det() {
		t.rt.wg.Add(1)
		spawn(child)
		return child
	}
	s := t.dom.sched
	s.GetTurn(t.ct())
	child.register()
	s.TraceOp(t.ct(), core.OpCreate, child.node.JoinObject(), core.StatusOK)
	// The child's virtual clock starts at the creator's current virtual
	// time (it cannot have computed anything earlier).
	child.ct().SetVTime(t.ct().VTime())
	t.rt.wg.Add(1)
	spawn(child)
	t.release()
	return child
}

// register enters a Created or Launched thread into its domain's scheduler —
// in place, the scheduler links the embedded node into its queues — and
// allocates the object its joiners wait on, which the node holds.
// Registration order fixes thread IDs, so callers hold the turn or run before
// the domain starts.
func (t *Thread) register() {
	s := t.dom.sched
	s.NewJoinObject(s.RegisterIn(&t.node, t.node.Name()))
}

// spawn starts t's body: on a coroutine of its domain's driver for a
// deterministic thread that is not a driver, on a goroutine of its own for a
// launched domain's driver and every thread of a Nondet run.
func spawn(t *Thread) {
	if t.ct() != nil && !t.ct().Drives() {
		t.dom.sched.StartHosted(t.ct(), (*hostedBody)(t))
		return
	}
	go t.run()
}

// hostedBody is a Thread as the core.Body a host coroutine executes: the same
// record under a type whose one method is the body, so handing it over costs
// no closure and Thread grows no exported Run.
type hostedBody Thread

func (b *hostedBody) Run() { (*Thread)(b).run() }

// run is the body of every Created or Launched thread, executed on a
// goroutine of its own or a coroutine of its domain's driver (see spawn):
// thread_begin, the program's function, exit.
func (t *Thread) run() {
	defer t.rt.wg.Done()
	fn := t.fn
	t.fn = nil // the record outlives the body; what fn captured need not
	if t.rt.det() {
		// thread_begin: DMT systems add this implicit operation so child
		// initialization is deterministically ordered (Figure 1b).
		s := t.dom.sched
		s.GetTurn(t.ct())
		s.TraceOp(t.ct(), core.OpThreadBegin, 0, core.StatusOK)
		t.release()
	}
	fn(t)
	t.exit()
}

// Join blocks until c has finished, mirroring pthread_join. Join is
// domain-local: joining a thread of another domain panics deterministically,
// because c's exit is ordered by c's domain schedule and observing it from
// another domain would depend on real timing. Cross-domain completion is
// communicated through an XPipe instead.
func (t *Thread) Join(c *Thread) {
	if c.dom != t.dom {
		panic(fmt.Sprintf("qithread: %v of %s joins %v of %s; join is domain-local — collect completions through an XPipe",
			t, t.dom, c, c.dom))
	}
	s := t.dom.sched
	if s == nil {
		<-c.nondetDone
		return
	}
	s.GetTurn(t.ct())
	t.await(s, core.OpJoin, c.node.JoinObject(), func() bool { return c.done })
	t.release()
}

// exit ends the thread: thread_end is traced, joiners are woken, the thread
// leaves the scheduler for good, and a driver runs its domain's other threads
// and then counts the domain finished.
func (t *Thread) exit() {
	if !t.rt.det() {
		t.done = true
		close(t.nondetDone)
		return
	}
	s := t.dom.sched
	s.GetTurn(t.ct())
	t.done = true
	if obj := t.node.JoinObject(); obj != 0 {
		s.Broadcast(t.ct(), obj)
		// Nobody waits on an exited thread (Join checks done first), so the
		// join object's drained table entry goes now rather than one
		// accumulating per thread ever created.
		s.DestroyObject(t.ct(), obj)
	}
	s.TraceOp(t.ct(), core.OpThreadEnd, 0, core.StatusOK)
	s.Exit(t.ct())
	if t.ct().Drives() {
		s.DrainHosted()
		t.dom.finished()
	}
}

// KeepTurn arms the CreateAll policy: the turn is retained across the next
// synchronization operation of this thread. Without an arming policy in the
// stack it is a no-op, so instrumented programs behave identically to
// uninstrumented ones under other configurations (Figure 7a).
func (t *Thread) KeepTurn() {
	if t.rt.det() {
		t.dom.stack.OnArm(t.ct())
	}
}

// DummySync executes the dummy synchronization operation of the BranchedWake
// policy: one empty turn that re-aligns threads which skipped an unblocking
// operation on a branch (Figure 7b). Without an aligning policy in the stack
// it is a no-op, i.e. the program is considered uninstrumented.
func (t *Thread) DummySync() {
	if !t.rt.det() || !t.dom.stack.WantDummySync() {
		return
	}
	s := t.dom.sched
	s.GetTurn(t.ct())
	s.TraceOp(t.ct(), core.OpDummySync, 0, core.StatusOK)
	t.dom.stack.OnDummySync(t.ct())
	t.release()
}

// Yield executes one empty scheduling turn, the deterministic counterpart of
// sched_yield that the paper adds to ad-hoc busy-wait loops.
func (t *Thread) Yield() {
	if !t.rt.det() {
		runtime.Gosched()
		return
	}
	s := t.dom.sched
	s.GetTurn(t.ct())
	s.TraceOp(t.ct(), core.OpYield, 0, core.StatusOK)
	t.release()
}

// nondetSleepUnit is the real duration of one logical sleep turn in Nondet
// mode, where no logical time base exists.
const nondetSleepUnit = 10 * time.Microsecond

// Sleep suspends the thread for the given number of logical turns,
// corresponding to Parrot's wait(NULL, timeout) logical sleep. In Nondet mode
// it sleeps for turns*nondetSleepUnit of real time.
func (t *Thread) Sleep(turns int64) {
	if turns <= 0 {
		return
	}
	if !t.rt.det() {
		time.Sleep(nondetSleepUnit * time.Duration(turns))
		return
	}
	s := t.dom.sched
	s.GetTurn(t.ct())
	s.TraceOp(t.ct(), core.OpSleep, 0, core.StatusBlocked)
	t.park(0, turns) // object 0 is never signaled: pure timeout
	t.ct().AddVTime(turns)
	t.release()
}

// SetBaseTime marks the current logical time as the base for subsequent
// timed operations, mirroring the set_base_time call the paper adds to
// programs using timed pthreads operations (Section 5): real-time deadlines
// are interpreted relative to this point when converted to logical turns.
func (t *Thread) SetBaseTime() int64 {
	if !t.rt.det() {
		return 0
	}
	s := t.dom.sched
	s.GetTurn(t.ct())
	s.TraceOp(t.ct(), core.OpSetBaseTime, 0, core.StatusOK)
	base := s.TurnCount()
	t.release()
	return base
}

// Work executes n synthetic work units and returns a deterministic result.
// It advances the thread's logical instruction clock, which is what the
// LogicalClock baseline schedules on.
func (t *Thread) Work(n int64) uint64 {
	return t.WorkSeeded(t.workSeed+uint64(t.id)+1, n)
}

// offloadThreshold is the declared Work, in units, from which a deterministic
// thread hands the computation to a helper goroutine and lets its domain run
// other threads until it is rejoined (core.Scheduler.YieldComputing). With a
// helper already polling, offloading pays from 16–64 units on
// (BenchmarkWorkOffload, EXPERIMENTS.md E44); 256 leaves a margin for a
// helper that must first be woken. It is a constant in units, not a measured
// time, so whether a thread yields — and with it the interleaving an ad-hoc
// busy-wait observes — is a function of the program alone, on any host and
// at any GOMAXPROCS.
const offloadThreshold = 256

// offloadMin is offloadThreshold, a variable only so tests can force or
// disable offloading (export_test.go).
var offloadMin int64 = offloadThreshold

// WorkSeeded is Work with an explicit seed, for workloads whose output must
// be a pure function of program input rather than thread identity.
func (t *Thread) WorkSeeded(seed uint64, n int64) uint64 {
	if n <= 0 {
		return seed
	}
	if !t.rt.det() {
		return spin.Work(seed, n)
	}
	// The logical-clock modes charge the work a quantum at a time, and the
	// compute is chained per quantum to match (workQuantum).
	q := n
	if t.rt.cfg.Mode == LogicalClock || t.rt.cfg.Mode == VirtualParallel {
		q = workQuantum
	}
	var v uint64
	if n >= offloadMin {
		j := spin.Offload(seed, n, q)
		t.dom.sched.YieldComputing(t.ct(), j)
		v = j.Collect()
	} else {
		v = spin.Chain(seed, n, q)
	}
	for ; n > 0; n -= q {
		t.dom.sched.AddWork(t.ct(), min(n, q))
	}
	return v
}

// release gives up the turn unless a policy lease extends across this
// release point: a pending keep_turn (CreateAll's one-shot lease), an active
// WakeAMAP unblocking loop (wake lease), or an open critical section under
// CSWhole (CS-scoped lease). Wrappers call it at the end of every
// synchronization operation; the stack asks the lease policies in stack
// order and the first extension wins. When no policy lease holds, PutTurn may
// still extend the scheduler's own solo-thread lease (see internal/core).
func (t *Thread) release() {
	if t.dom.stack.ExtendLease(t.ct()) {
		return
	}
	t.dom.sched.PutTurn(t.ct())
}

// park blocks the thread on the scheduler wait queue. The scheduler's Wait
// calls the stack's OnBlock hook, which ends any WakeAMAP retention
// ("... or the unblocking thread itself gets blocked", Section 3.4), and
// releases the turn unconditionally.
func (t *Thread) park(obj uint64, timeout int64) core.WaitStatus {
	return t.dom.sched.Wait(t.ct(), obj, timeout)
}

// await is the blocking acquisition of every wrapper: holding the turn, it
// parks on obj until ready reports true (ready may itself acquire, as a
// trylock does), tracing op Blocked before each park and then OK, or Return
// if it parked. The caller takes the turn before and releases it after.
func (t *Thread) await(s *core.Scheduler, op core.OpKind, obj uint64, ready func() bool) {
	st := core.StatusOK
	for !ready() {
		s.TraceOp(t.ct(), op, obj, core.StatusBlocked)
		st = core.StatusReturn
		t.park(obj, core.NoTimeout)
	}
	s.TraceOp(t.ct(), op, obj, st)
}
