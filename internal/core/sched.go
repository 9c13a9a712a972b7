package core

import (
	"fmt"
	"math"
	"strings"
	"sync"

	"qithread/internal/logio"
	"qithread/internal/policy"
)

// Scheduler is the deterministic user-space scheduler. It maintains the three
// queues of Section 3.1 (run, wake-up, wait) and grants the turn to the
// thread its policy stack picks (internal/policy). Everything outside
// synchronization operations is delegated to the Go runtime scheduler,
// mirroring how Parrot and QiThread delegate non-synchronization execution to
// the OS scheduler (Figure 4).
//
// Every Table 1 primitive is O(1) or O(log n) in the number of blocked
// threads: each object's wait list is a field of its entry in the object
// table (objs), timed waiters are indexed by a deadline min-heap (timers),
// and a free turn is handed directly to the already-parked next-eligible
// thread (passTurnLocked), so wake-ups never rescan unrelated waiters.
//
// One owner. Every field is plain data, owned by whoever is inside the
// scheduler. A hosted scheduler (host.go) runs all its threads on one
// goroutine, so entering it (lock) takes nothing. An unhosted one, whose
// threads bring goroutines of their own, is entered under mu: its one user
// is benchmark/probes.go, and unhosted_test.go its one test file. It detects
// no deadlock: only a hosted domain's driver sees that none of its threads can
// run (Scheduler.stuck). Outside its threads, a hosted scheduler may be read
// before its first thread runs and after its driver has drained it.
type Scheduler struct {
	mu  sync.Mutex // the entry lock of an unhosted scheduler only
	cfg Config

	// stack decides turn grants (PickNext) and wake-up routing (WakeQueue)
	// and observes threads blocking. It is held by value — a scheduler is one
	// heap object — and fixed at construction; the wrappers reach its lease
	// hooks through Stack().
	stack policy.Stack

	// holder is the current turn holder, nil if the turn is free.
	holder *Thread

	runQ  tqueue // FIFO runnable queue
	wakeQ tqueue // FIFO just-woken queue (fed when a policy boosts wake-ups)

	// objs is the object table: one entry per named object and per object a
	// thread has waited on, holding the object's label and its FIFO wait
	// list by value (objEntry), so Signal and the per-object waiter count are
	// O(1), Broadcast is O(waiters on that object), and an object costs a map
	// slot, never a heap record of its own. An entry whose list empties stays
	// until DestroyObject deletes it. Every wrapper object is destroyed by its
	// owner, a thread's join object by the thread's own exit, so the table is
	// bounded by live objects (TestThreadChurnRetention in the root package).
	// It is created on first use: a Runtime constructs one scheduler per
	// domain, and partitioned programs create domains in bulk.
	objs     map[uint64]objEntry
	nWaiting int    // total blocked threads across all wait lists
	waitSeq  uint64 // global FIFO park order, the heap's deadline tie-break

	// timers indexes timed waiters by (deadline, seq): expiry is an O(1)
	// peek per turn advance and the idle-time jump reads the heap top.
	timers dheap

	// turn is logical time: completed scheduling turns (Stats.Turns).
	turn int64

	// nextObj numbers every object, wrapper objects and threads' join
	// objects alike. Only wrapper objects are labelled in objs: a join object
	// is named by its thread (labelLocked), so creating a thread adds no
	// entry.
	nextTID int
	nextObj uint64

	// threads is the thread table, thread ID → *Thread, for O(1)
	// replay-eligibility lookups. Entries are cleared on Exit so long-running
	// programs do not accumulate dead threads; the slot itself (one word per
	// thread ever registered) is all an exited thread leaves behind. A hosted
	// scheduler's table is its host record's (Host.threads), which is
	// recycled with its capacity, so a run on a warm host grows no table; an
	// unhosted scheduler makes its own at its first Register. Nil before the
	// first thread and once a hosted run has drained (tableLocked).
	threads *[]*Thread

	// Virtual-time model (see core.go): vLastOp is the virtual end time of
	// the most recent synchronization operation (guarded by the turn, i.e.
	// only the holder updates it); vMakespan is the maximum final virtual
	// clock of exited threads.
	vLastOp   int64
	vMakespan int64

	live int // registered, not yet exited threads

	// trace is the retained schedule (Record without a sink). traceLen and
	// traceHash count and fold EVERY recorded event whether retained or
	// streamed (see TraceOp); suspended mutes recording during a checkpoint
	// restore's setup phase.
	trace     traceLog
	traceLen  int64
	traceHash uint64
	suspended bool

	// Replay state (see replay.go).
	replay    []Event
	replayPos int

	// Choice-point state (see chooseTurnLocked). chosen is a turn-grant
	// override committed by the Chooser while the turn is free: it pins the
	// grantee until that thread actually takes the turn, so the chooser is
	// consulted exactly once per handoff no matter how many times the grant
	// loops run. chooseIDs is the reusable candidate-enumeration buffer
	// (choose.go), backed by chooseIDsInline until a run shows the chooser
	// more than inlineCands candidates.
	chosen          *Thread
	chooseIDs       []int
	chooseIDsInline [inlineCands]int

	// stats holds every counter but Turns, which is turn (countersLocked).
	stats Counters

	// onDeadlock, if non-nil, receives the deadlock reports of s and of every
	// scheduler that shares it (ReportDeadlock); deadlocks, if non-nil, is the
	// scheduler whose handler receives s's instead (ShareDeadlockHandler).
	onDeadlock func(msg string)
	deadlocks  *Scheduler

	// host, when non-nil, makes this a hosted scheduler: its threads run on
	// one goroutine (host.go). Set before the first Register, cleared when the
	// run has drained.
	host *Host

	// granted wakes the goroutines of an unhosted scheduler's threads when
	// grantLocked sets a flag; awaitGrant sets L to &mu.
	granted sync.Cond
}

// lock enters the scheduler and unlock leaves it: defer s.unlock(s.lock()).
// A hosted scheduler is entered only from its own goroutine and takes
// nothing; an unhosted one takes mu. host changes only while no thread of s
// runs (HostThreads, DrainHosted), so an entry and its exit agree.
func (s *Scheduler) lock() bool {
	if s.host != nil {
		return false
	}
	s.mu.Lock()
	return true
}

func (s *Scheduler) unlock(locked bool) {
	if locked {
		s.mu.Unlock()
	}
}

// New creates a scheduler with the given configuration; its policy stack is
// the mode's base turn policy with the policies of cfg.Policies layered above.
func New(cfg Config) *Scheduler {
	cfg.NoLease = cfg.NoLease || noLeases
	s := &Scheduler{
		cfg:       cfg,
		traceHash: logio.FNVOffset64,
		suspended: cfg.SuspendRecording,
	}
	s.stack.Init(cfg.Mode, cfg.Policies)
	s.chooseIDs = s.chooseIDsInline[:0]
	return s
}

// noLeases makes New build every scheduler with Config.NoLease (DisableLeases).
var noLeases bool

// DisableLeases makes every scheduler New builds unleased, as if its
// Config.NoLease were set, until the returned function restores the default.
// It is a seam for tests and benchmarks that compare leased runs with
// unleased ones through the root package, whose Config has no such field:
// call it only while no run is in flight.
func DisableLeases() (restore func()) {
	old := noLeases
	noLeases = true
	return func() { noLeases = old }
}

// tableLocked is the thread table, nil while there is none (threads).
func (s *Scheduler) tableLocked() []*Thread {
	if s.threads == nil {
		return nil
	}
	return *s.threads
}

// Stack returns the scheduler's policy stack.
func (s *Scheduler) Stack() *policy.Stack { return &s.stack }

// VirtualMakespan returns the maximum final virtual clock over all exited
// threads — the critical-path estimate of parallel execution time. Call it
// after the program has finished.
func (s *Scheduler) VirtualMakespan() int64 {
	defer s.unlock(s.lock())
	return s.vMakespan
}

// SetDeadlockHandler installs the runtime's deadlock handler: fn receives
// every deadlock report instead of the panic ReportDeadlock raises without a
// handler. Install it before Run, on the default domain's scheduler; it then
// receives every domain's deadlock, a domain's own and a cross-domain one
// alike. fn runs on the goroutine of the domain that reports — for its own
// deadlock, its driver —, which does not proceed once fn returns, and other
// domains may still be running then.
func (s *Scheduler) SetDeadlockHandler(fn func(msg string)) {
	defer s.unlock(s.lock())
	s.onDeadlock = fn
}

// ShareDeadlockHandler makes owner's handler receive s's deadlock reports:
// the root package gives every domain it launches the default domain's.
func (s *Scheduler) ShareDeadlockHandler(owner *Scheduler) { s.deadlocks = owner }

// ReportDeadlock delivers a deadlock report, the one path every deadlock of a
// runtime takes: to the handler SetDeadlockHandler installed, or, without
// one, as a panic. The caller holds no lock the handler could need.
func (s *Scheduler) ReportDeadlock(msg string) {
	if s.deadlocks != nil {
		s = s.deadlocks
	}
	if s.onDeadlock == nil {
		panic(msg)
	}
	s.onDeadlock(msg)
}

// Register adds a new thread to the tail of the run queue and returns its
// handle. Registration order determines thread IDs, so callers must register
// deterministically: the main thread before any concurrency starts, children
// from the create wrapper while holding the turn.
func (s *Scheduler) Register(name string) *Thread { return s.RegisterIn(new(Thread), name) }

// RegisterIn is Register into caller-owned storage: t, which must be a zero
// Thread, becomes the scheduler's queue node in place and is returned. The
// qithread wrappers embed a Thread in their own per-thread record this way,
// so a thread is one heap object. A registered Thread must not be copied
// (the queues link to it). A domain registers at most math.MaxInt32+1
// threads: an Event holds the id as an int32, and a wrapped id would alias a
// live thread's in the schedule.
func (s *Scheduler) RegisterIn(t *Thread, name string) *Thread {
	defer s.unlock(s.lock())
	if t.sched != nil {
		panic(fmt.Sprintf("core: RegisterIn(%q) into %v, which is already registered", name, t))
	}
	if s.nextTID > math.MaxInt32 {
		panic(fmt.Sprintf("core: RegisterIn(%q): thread id %d is past math.MaxInt32, the largest a schedule event holds", name, s.nextTID))
	}
	t.id = s.nextTID
	t.name = name
	t.sched = s
	t.queue = qRun
	t.heapIdx = -1
	s.nextTID++
	if s.threads == nil {
		s.threads = new([]*Thread) // unhosted: HostThreads lends a hosted one its host's
	}
	*s.threads = append(*s.threads, t)
	s.live++
	if s.live > s.stats.MaxLiveThreads {
		s.stats.MaxLiveThreads = s.live
	}
	s.runQ.pushBack(t)
	return t
}

// TurnCount returns the number of completed scheduling turns, the logical
// time base used for deterministic timeouts.
func (s *Scheduler) TurnCount() int64 {
	defer s.unlock(s.lock())
	return s.turn
}

// GetTurn blocks until t holds the turn. If t already holds the turn the call
// returns immediately, which is what makes turn retention by the CSWhole,
// WakeAMAP and CreateAll wrapper policies work: a retained turn simply makes
// the next wrapper's GetTurn a no-op.
func (s *Scheduler) GetTurn(t *Thread) {
	defer s.unlock(s.lock())
	if s.holder == t {
		return
	}
	if t.queue == qNone {
		panic("core: GetTurn on exited thread " + t.String())
	}
	t.wantTurn = true
	s.kickLocked(t)
	if s.holder != t {
		// Uncontended, the free turn went straight to the requester;
		// otherwise wait for the grant.
		s.awaitGrant(t)
	}
}

// awaitGrant suspends t, which has asked for the turn, until grantLocked sets
// its granted flag, and clears it. A hosted thread yields to, or is, its
// run's driver (host.go); an unhosted one waits on granted, which releases mu
// while it sleeps. Whether s is hosted cannot change under a thread of s
// (see lock).
func (s *Scheduler) awaitGrant(t *Thread) {
	if s.host != nil {
		s.host.await(s, t)
		return
	}
	s.granted.L = &s.mu
	for !t.granted {
		s.granted.Wait()
	}
	t.granted = false
}

// PutTurn releases the turn held by t: t moves to the tail of the run queue
// and the next eligible thread is granted the turn.
//
// When t is the only live thread of the scheduler — no other runnable
// thread, no waiter — that release deterministically returns the turn to t
// itself: it would move t to the (otherwise empty) run queue, find nobody
// asking for the turn, store holder = nil, and t's next GetTurn would
// re-grant it. PutTurn therefore keeps the turn with t (soloLocked), the
// solo lease: it advances logical time, counts a lease extension and
// returns. The lease is trace-neutral — the same thread executes the same
// operations in the same turn order, so recorded schedules, replay, and
// fingerprints are byte-identical with it on or off — and it is no state of
// its own: every release asks the queues again, so a thread registered or
// woken since the last one is seen.
func (s *Scheduler) PutTurn(t *Thread) {
	defer s.unlock(s.lock())
	s.requireTurnLocked(t, "PutTurn")
	if s.soloLocked(t) {
		s.advanceTimeLocked(t)
		s.stats.LeaseExtends++
		return
	}
	s.advanceTimeLocked(t)
	s.removeRunnableLocked(t)
	t.queue = qRun
	s.runQ.pushBack(t)
	s.releaseTurnLocked()
}

// Exit removes t from the scheduler. t must hold the turn. After Exit the
// thread may never call scheduler primitives again.
func (s *Scheduler) Exit(t *Thread) {
	defer s.unlock(s.lock())
	s.requireTurnLocked(t, "Exit")
	s.advanceTimeLocked(t)
	s.vMakespan = max(s.vMakespan, t.vtime)
	s.removeRunnableLocked(t)
	t.queue = qNone
	(*s.threads)[t.id] = nil
	s.live--
	s.releaseTurnLocked()
	if t.granted {
		panic(fmt.Sprintf("core: %v exits with an unconsumed grant token\n%s", t, s.dumpLocked()))
	}
}

// AddWork advances t's virtual and logical instruction clocks by n. In
// LogicalClock mode clock changes can make a previously ineligible thread
// eligible, so the scheduler is re-kicked; under VirtualClock it is the
// virtual clock that drives eligibility (the instruction clock is still
// maintained so work accounting is consistent across modes). RoundRobin
// never consults clocks.
func (s *Scheduler) AddWork(t *Thread, n int64) {
	defer s.unlock(s.lock())
	t.vtime += n
	t.clock += n
	if s.cfg.Mode != policy.RoundRobin {
		s.kickLocked(nil)
	}
}

// --- internals ---

func (s *Scheduler) requireTurnLocked(t *Thread, op string) {
	if s.holder != t {
		panic(fmt.Sprintf("core: %s by %v which does not hold the turn (holder=%v)", op, t, s.holder))
	}
}

// syncClockTick is the amount added to a thread's logical clock per executed
// synchronization operation in LogicalClock mode. Round-robin mode ignores
// clocks entirely.
const syncClockTick = 1

// advanceTimeLocked completes a scheduling turn: logical time advances, the
// logical clock of the departing holder ticks (LogicalClock mode), and
// expired timed waiters are woken in FIFO order (waits.go).
func (s *Scheduler) advanceTimeLocked(t *Thread) {
	s.turn++
	if s.cfg.Mode == policy.LogicalClock {
		t.clock += syncClockTick
	}
	s.expireLocked()
}

// soloLocked reports whether PutTurn keeps the turn with t, the holder: t is
// the only runnable thread and nobody waits — i.e. t is the only live thread,
// so the release would re-select t. Whether time advances first does not
// matter: with no waiter there is no timer to expire. Replay runs never keep
// the turn this way (the recorded schedule drives eligibility), and NoLease
// disables it.
func (s *Scheduler) soloLocked(t *Thread) bool {
	return !s.cfg.NoLease &&
		s.replay == nil &&
		s.onlyRunnableLocked(t) &&
		s.nWaiting == 0
}

// onlyRunnableLocked reports whether t is the only runnable thread: the run
// queue is exactly [t] and the wake-up queue is empty.
func (s *Scheduler) onlyRunnableLocked(t *Thread) bool {
	return s.runQ.head == t && t.qnext == nil && s.wakeQ.head == nil
}

// removeRunnableLocked removes t from the run or wake-up queue.
func (s *Scheduler) removeRunnableLocked(t *Thread) {
	switch t.queue {
	case qRun:
		s.runQ.remove(t)
	case qWake:
		s.wakeQ.remove(t)
	default:
		panic(fmt.Sprintf("core: thread %v not runnable (queue=%v)", t, t.queue))
	}
}

// FrontRun returns the head of the run queue. It implements policy.View and
// is only meaningful during a PickNext call.
func (s *Scheduler) FrontRun() policy.Thread {
	if t := s.runQ.head; t != nil {
		return t
	}
	return nil
}

// FrontWake returns the head of the wake-up queue. It implements policy.View
// and is only meaningful during a PickNext call.
func (s *Scheduler) FrontWake() policy.Thread {
	if t := s.wakeQ.head; t != nil {
		return t
	}
	return nil
}

// NextRunnable walks the runnable threads in queue order (run queue first,
// then wake-up queue). It implements policy.View and is only meaningful
// during a PickNext call.
func (s *Scheduler) NextRunnable(after policy.Thread) policy.Thread {
	if after == nil {
		if t := s.runQ.head; t != nil {
			return t
		}
		return s.FrontWake()
	}
	t := after.(*Thread)
	if t.qnext != nil {
		return t.qnext
	}
	if t.queue == qRun {
		return s.FrontWake()
	}
	return nil
}

// eligibleLocked returns the thread that should hold the turn next, or nil if
// no thread is runnable. An active replay schedule takes precedence over the
// policy stack: the recording embeds all policy effects. A committed chooser
// override (chosen) takes precedence over the stack for the same reason.
func (s *Scheduler) eligibleLocked() *Thread {
	if s.replayingLocked() {
		return s.replayEligibleLocked()
	}
	if s.chosen != nil {
		return s.chosen
	}
	t := s.stack.PickNext(s)
	if t == nil {
		return nil
	}
	def := t.(*Thread)
	if s.cfg.Chooser == nil || !def.wantTurn {
		return def
	}
	return s.chooseTurnLocked(def)
}

// kickLocked grants the free turn directly to the next eligible thread if
// that thread is currently waiting for it (passTurnLocked). self is the
// thread executing this call (nil when unknown): when the grantee is self it
// is not waiting — it will observe holder == self synchronously after
// kickLocked returns — so its granted flag is not set.
func (s *Scheduler) kickLocked(self *Thread) {
	if s.holder == nil {
		s.passTurnLocked(self)
	}
}

// passTurnLocked is the grant loop over a free turn: the turn goes to the
// next eligible thread if that thread is asking for it (grantLocked), and
// otherwise stays free until that thread asks. If no thread is runnable but
// timed waiters exist, logical time jumps forward deterministically to the
// earliest deadline — the heap top — (this is how a "logical sleep" in an
// otherwise idle program makes progress). If nothing can ever run, the turn
// stays free too: the domain's driver, finding nothing to resume, reports
// that (Scheduler.stuck).
func (s *Scheduler) passTurnLocked(self *Thread) {
	for {
		e := s.eligibleLocked()
		if e != nil && e.wantTurn {
			s.grantLocked(e, self)
			return
		}
		if e == nil && s.nWaiting != 0 && s.timers.len() != 0 {
			// No runnable thread: advance logical time to the earliest timed
			// deadline and look again.
			s.turn = s.timers.top().deadline
			s.expireLocked()
			continue
		}
		// The turn stays free: its next holder is still running user code,
		// there are no threads at all (program finished or not started), or
		// every thread is blocked without a timeout.
		return
	}
}

// grantLocked is the turn handoff: e, which is asking for the turn, becomes
// the holder and — unless e is self, the thread executing this call, which
// observes holder == self synchronously — gets its granted flag, the one
// token of the handoff, which e clears before it can ask again. A flag
// already set is a scheduler bug that would lose a grant silently, hence the
// panic with the queue dump.
//
// This is also where a pick is committed, so it is where the policy stack
// counts it (eligibleLocked is re-evaluated every time a not-yet-eligible
// thread asks, a grant happens once per handoff) and where "the pick is
// always on a runnable queue" is asserted. A grant the recorded schedule
// dictated is nobody's decision and is not counted.
func (s *Scheduler) grantLocked(e, self *Thread) {
	from := policy.QueueRun
	if e.queue == qWake {
		from = policy.QueueWake
	} else if e.queue != qRun {
		panic(fmt.Sprintf("core: grant to %v which is not runnable (queue=%v)\n%s", e, e.queue, s.dumpLocked()))
	}
	if !s.replayingLocked() {
		s.stack.OnGrant(from)
	}
	e.wantTurn = false
	s.chosen = nil
	s.holder = e
	if e == self {
		return
	}
	s.stats.Handoffs++
	if e.granted {
		panic(fmt.Sprintf("core: grant to %v which already has an unconsumed grant token\n%s", e, s.dumpLocked()))
	}
	e.granted = true
	if s.host == nil {
		s.granted.Broadcast()
	}
}

// releaseTurnLocked passes the turn from its current holder to the next
// eligible thread (passTurnLocked).
func (s *Scheduler) releaseTurnLocked() {
	s.holder = nil
	s.passTurnLocked(nil)
}

// Dump renders the scheduler state — queues, holder, wait lists — for
// diagnostics (deadlock reports, failed quiescence drives).
func (s *Scheduler) Dump() string {
	defer s.unlock(s.lock())
	return s.dumpLocked()
}

// dumpLocked renders the scheduler state for deadlock diagnostics, listing
// each object's wait list straight from the per-object structures.
func (s *Scheduler) dumpLocked() string {
	var b strings.Builder
	fmt.Fprintf(&b, "  turn=%d holder=%v stack=%v\n", s.turn, s.holder, &s.stack)
	fmt.Fprintf(&b, "  runQ: %s\n", threadNames(s.runQ))
	fmt.Fprintf(&b, "  wakeQ: %s\n", threadNames(s.wakeQ))
	for _, k := range s.waitedObjsLocked() {
		fmt.Fprintf(&b, "  waitQ[%s#%d]: %s\n", s.labelLocked(k), k, threadNames(s.objs[k].waits))
	}
	return b.String()
}

func threadNames(q tqueue) string {
	if q.head == nil {
		return "(empty)"
	}
	var names []string
	for t := q.head; t != nil; t = t.qnext {
		names = append(names, t.String())
	}
	return strings.Join(names, " ")
}
