package qithread

import (
	"fmt"
	"strings"

	"qithread/internal/core"
	"qithread/internal/policy"
)

// Domain is one scheduler domain of a Runtime: a disjoint group of threads
// and synchronization objects scheduled by its own deterministic turn
// mechanism with its own policy stack. Every Runtime has a default domain
// (id 0) that Run's main thread and everything it creates belong to;
// additional domains come from Runtime.NewDomain.
//
// Threads and synchronization objects bind to a domain at creation: a thread
// belongs to the domain of its creator (or the domain it was Started in),
// an object to the domain of the thread that created it. Using an object
// from a thread of another domain panics deterministically — the partition
// is part of the program's synchronization structure, not a best-effort
// optimization. The only legal cross-domain communication is an XPipe,
// whose deliveries are sequenced and logged (see NewXPipe).
//
// In Nondet mode a domain has no scheduler: Start/Launch run plain threads
// and XPipes carry messages without stamps, so one workload runs
// unchanged under every mode. The partition rules above are enforced all the
// same — a workload that breaks them panics under every mode, not only the
// deterministic ones.
type Domain struct {
	rt    *Runtime
	id    int             // creation index within the runtime (0 is the default domain)
	name  string          // debugging name
	sched *core.Scheduler // the domain's scheduler; nil in Nondet mode

	// xseq counts the boundary operations of the domain's threads (one per
	// XPipe message sent or received, one per close) in domain-schedule order,
	// over all its pipes. Only a thread holding the domain's turn touches it;
	// deliveries are stamped with it and a checkpoint carries it. Nondet
	// pipes leave it at 0.
	xseq int64

	stack   *policy.Stack // sched.Stack(), cached for the wrappers' hook calls; nil in Nondet mode
	chooser Chooser       // Config.Chooser(id), asked once at creation; shared by the scheduler and the domain's gateways

	// The domain's lifecycle, under rt.domMu.
	launched bool
	rooted   bool // launched with at least one root
	drained  bool // its driver drained it (pipe.go)
	pending  []pendingRoot
}

type pendingRoot struct {
	name string
	fn   func(*Thread)
}

// ID returns the domain's creation index within its runtime (the default
// domain is 0).
func (d *Domain) ID() int { return d.id }

// Name returns the domain's debugging name.
func (d *Domain) Name() string { return d.name }

func (d *Domain) String() string { return fmt.Sprintf("domain %d (%s)", d.id, d.name) }

// hasThreads reports whether the domain has threads of its own: the default
// domain always (Run's main thread), another once Launch started a root.
// Unlike the domain's scheduler, which only its own threads may touch while
// it runs, it may be asked from any thread.
func (d *Domain) hasThreads() bool {
	if d.id == 0 {
		return true
	}
	d.rt.domMu.Lock()
	defer d.rt.domMu.Unlock()
	return d.rooted
}

// enter verifies that t may operate on a synchronization object bound to
// this domain and returns the domain's scheduler (nil in Nondet mode). Every
// wrapper method calls it first, above its mode and PCS forks, so a partition
// violation cannot hide behind mode selection. Cross-domain use is a
// deterministic panic: the offending operation occupies a fixed place in its
// thread's program order, so every run fails identically.
func (d *Domain) enter(t *Thread, kind, name string) *core.Scheduler {
	if t.dom != d {
		panic(fmt.Sprintf("qithread: %s %q of %s used by %v of %s; cross-domain synchronization is only legal through an XPipe",
			kind, name, d, t, t.dom))
	}
	return d.sched
}

// object is the header every synchronization object embeds: the domain it is
// bound to, its scheduler object id (0 in Nondet mode, and for a soft barrier
// without Config.SoftBarriers) and its debugging name. With Domain.enter,
// init and destroy below and Thread.await, it is the turn protocol the
// wrappers share.
type object struct {
	dom  *Domain
	obj  uint64
	name string
}

// bind binds the object to t's domain and returns the domain's scheduler
// (nil in Nondet mode). An object takes everything from the thread that
// builds it; rt, the receiver of the constructor, is only a check that the
// thread is one of its own.
func (o *object) bind(rt *Runtime, t *Thread, kind, name string) *core.Scheduler {
	if t.rt != rt {
		panic(fmt.Sprintf("qithread: %s %q created by %v, a thread of another runtime", strings.TrimSuffix(kind, ":"), name, t))
	}
	o.dom, o.name = t.dom, name
	return t.dom.sched
}

// init is bind, then in a deterministic run one ordered operation under the
// turn: allocate the object id under its kind prefix ("mutex:") and trace op.
func (o *object) init(rt *Runtime, t *Thread, kind, name string, op core.OpKind) {
	if s := o.bind(rt, t, kind, name); s != nil {
		s.GetTurn(t.ct())
		o.obj = s.NewObjectKind(kind, name)
		s.TraceOp(t.ct(), op, o.obj, core.StatusOK)
		t.release()
	}
}

// destroy retires the object (kind as for enter): an ordered operation that
// traces op and releases the scheduler's bookkeeping for the object id.
func (o *object) destroy(t *Thread, kind string, op core.OpKind) {
	s := o.dom.enter(t, kind, o.name)
	if s == nil {
		return
	}
	s.GetTurn(t.ct())
	s.TraceOp(t.ct(), op, o.obj, core.StatusOK)
	s.DestroyObject(t.ct(), o.obj)
	t.release()
}

// finished takes the domain, its driver done draining it, off the runtime's
// live domains. If every domain still live waits in an XPipe, none ever will
// run again: the deadlock is reported here (see XPipe.wait).
func (d *Domain) finished() {
	rt := d.rt
	rt.domMu.Lock()
	d.drained = true
	rt.xlive--
	msg := rt.parkLocked()
	rt.domMu.Unlock()
	if msg != "" {
		rt.main.sched.ReportDeadlock(msg)
	}
}

// Trace returns the domain's recorded schedule (empty unless Config.Record;
// nil in Nondet mode). An event's position in it is its sequence number
// within the domain. After a replay that recorded nothing beyond the schedule
// passed to SetReplay, the result may be that schedule itself (len == cap, so
// an append copies): it is read-only under the same borrow contract as
// SetReplay. See core.Scheduler.Trace.
func (d *Domain) Trace() []Event {
	if d.sched == nil {
		return nil
	}
	return d.sched.Trace()
}

// SetReplay installs a previously recorded schedule of THIS domain to
// enforce, exactly like Config.Replay does for the default domain. It must
// be called before the domain is launched. Replay is per domain: a
// partitioned execution replays from one recording per domain (the
// cross-domain delivery values are reproduced by the sender domains
// replaying, not by the log). Like Config.Replay, events is borrowed, not
// copied, and the domain's trace keeps the replayed prefix by reference (Trace
// may return events itself): do not modify it while the run replays it or a
// trace of the run is in use.
func (d *Domain) SetReplay(events []Event) {
	if d.sched == nil {
		panic("qithread: Domain.SetReplay requires a deterministic Mode")
	}
	d.sched.SetReplay(events)
}

// Start queues a root thread for the domain: name and entry point, started
// when Launch is called. Roots must be queued before Launch; the Start order
// fixes their thread IDs and schedule positions. Starting roots on the
// default domain panics — the default domain's root is Run's main thread,
// and everything else there comes from Thread.Create.
func (d *Domain) Start(name string, fn func(*Thread)) {
	if d.id == 0 {
		panic("qithread: Start on the default domain; the main thread runs there — use Thread.Create")
	}
	d.rt.domMu.Lock()
	defer d.rt.domMu.Unlock()
	if d.launched {
		panic(fmt.Sprintf("qithread: Start(%q) on %s after Launch", name, d))
	}
	d.pending = append(d.pending, pendingRoot{name: name, fn: fn})
}

// Launch registers every queued root in Start order and then starts them.
// Registration happens before any root runs, so the domain's thread IDs and
// initial run queue are a pure function of the Start sequence regardless of
// goroutine timing. Launch may be called once per domain, typically by the
// main thread during setup; the launching thread does not block.
//
// A domain of a deterministic run (see Run for the contract) runs on one
// goroutine of its own: root 0 is its driver, and the other roots and every
// thread they Create are coroutines of it. The driver drains them after its
// own body and only then counts as finished, so Run returns after the
// domain's host record is recycled, never while it is still in use.
func (d *Domain) Launch() {
	rt := d.rt
	rt.domMu.Lock()
	if d.launched {
		rt.domMu.Unlock()
		panic(fmt.Sprintf("qithread: %s launched twice", d))
	}
	d.launched = true
	roots := d.pending
	d.rooted = len(roots) > 0
	d.pending = nil
	if d.rooted && rt.det() {
		rt.xlive++ // before any root runs: the domain is live until it drained
	}
	rt.domMu.Unlock()
	if len(roots) == 0 {
		return
	}

	if rt.det() {
		d.sched.HostThreads()
		d.sched.ShareDeadlockHandler(rt.main.sched)
	}
	threads := make([]*Thread, len(roots))
	for i, r := range roots {
		t := rt.newThread(r.name, d)
		t.fn = r.fn
		if rt.det() {
			t.register()
		}
		threads[i] = t
	}
	// A root begins with thread_begin exactly like a Create'd child (both run
	// Thread.run), so its initialization is deterministically ordered within
	// its domain. Root 0 starts last: a hosted driver must find its siblings
	// already handed to the host.
	rt.wg.Add(len(threads))
	for _, t := range threads[1:] {
		spawn(t)
	}
	spawn(threads[0])
}
