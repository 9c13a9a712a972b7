package qithread

import (
	"fmt"
	"sync"

	"qithread/internal/core"
	"qithread/internal/domain"
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
// and XPipes degrade to plain buffered channels, so one workload runs
// unchanged under every mode. The partition rules above are enforced all the
// same — a workload that breaks them panics under every mode, not only the
// deterministic ones.
type Domain struct {
	rt  *Runtime
	rec domain.Domain // id, name, scheduler (nil in Nondet mode) and boundary counter; XPipe channels point at it

	stack   *policy.Stack // rec.Sched.Stack(), cached for the wrappers' hook calls; nil in Nondet mode
	chooser Chooser       // Config.Chooser(id), asked once at creation; shared by the scheduler and the domain's gateways

	mu       sync.Mutex
	launched bool
	rooted   bool // launched with at least one root
	pending  []pendingRoot
}

type pendingRoot struct {
	name string
	fn   func(*Thread)
}

// ID returns the domain's creation index within its runtime (the default
// domain is 0).
func (d *Domain) ID() int { return d.rec.ID }

// Name returns the domain's debugging name.
func (d *Domain) Name() string { return d.rec.Name }

func (d *Domain) label() string { return d.rec.String() }

func (d *Domain) String() string { return d.label() }

// hasThreads reports whether the domain has threads of its own: the default
// domain always (Run's main thread), another once Launch started a root.
// Unlike the domain's scheduler, which only its own threads may touch while
// it runs, it may be asked from any thread.
func (d *Domain) hasThreads() bool {
	if d.rec.ID == 0 {
		return true
	}
	d.mu.Lock()
	defer d.mu.Unlock()
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
			kind, name, d.label(), t, t.dom.label()))
	}
	return d.rec.Sched
}

// Trace returns the domain's recorded schedule (empty unless Config.Record;
// nil in Nondet mode). Event sequence numbers are domain-local.
func (d *Domain) Trace() []Event {
	if d.rec.Sched == nil {
		return nil
	}
	return d.rec.Sched.Trace()
}

// TurnCount returns the number of completed scheduling turns in this domain
// (0 in Nondet mode). Call it after Run returns or from a thread of this
// domain.
func (d *Domain) TurnCount() int64 {
	if d.rec.Sched == nil {
		return 0
	}
	return d.rec.Sched.TurnCount()
}

// SetReplay installs a previously recorded schedule of THIS domain to
// enforce, exactly like Config.Replay does for the default domain. It must
// be called before the domain is launched. Replay is per domain: a
// partitioned execution replays from one recording per domain (the
// cross-domain delivery values are reproduced by the sender domains
// replaying, not by the log). Like Config.Replay, events is borrowed, not
// copied: do not modify it until the run ends.
func (d *Domain) SetReplay(events []Event) {
	if d.rec.Sched == nil {
		panic("qithread: Domain.SetReplay requires a deterministic Mode")
	}
	d.rec.Sched.SetReplay(events)
}

// Start queues a root thread for the domain: name and entry point, started
// when Launch is called. Roots must be queued before Launch; the Start order
// fixes their thread IDs and schedule positions. Starting roots on the
// default domain panics — the default domain's root is Run's main thread,
// and everything else there comes from Thread.Create.
func (d *Domain) Start(name string, fn func(*Thread)) {
	if d.rec.ID == 0 {
		panic("qithread: Start on the default domain; the main thread runs there — use Thread.Create")
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.launched {
		panic(fmt.Sprintf("qithread: Start(%q) on %s after Launch", name, d.label()))
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
	d.mu.Lock()
	if d.launched {
		d.mu.Unlock()
		panic(fmt.Sprintf("qithread: %s launched twice", d.label()))
	}
	d.launched = true
	roots := d.pending
	d.rooted = len(roots) > 0
	d.pending = nil
	d.mu.Unlock()
	if len(roots) == 0 {
		return
	}

	rt := d.rt
	if rt.det() {
		d.rec.Sched.HostThreads()
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
