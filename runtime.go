package qithread

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"qithread/internal/core"
	"qithread/internal/logio"
	"qithread/internal/policy"
)

// Runtime owns one deterministically scheduled multithreaded execution. All
// threads and synchronization objects of a program belong to one Runtime.
// A Runtime is single-use: create it, call Run, read results.
type Runtime struct {
	cfg  Config
	main Domain // the default domain (id 0); its scheduler is nil in Nondet mode

	domMu    sync.Mutex  // guards the lists below, the detector state and each domain's lifecycle flags
	domains  []*Domain   // id order; domains[0] is &main
	domain0  [1]*Domain  // backing array of domains until NewDomain outgrows it
	xpipes   []*XPipe    // creation order: a pipe's id is its index + 1
	xpipe0   [1]*XPipe   // backing array of xpipes until a second one outgrows it
	gateways []*Gateway  // ingress gateways in creation order (checkpoint order)
	gateway0 [1]*Gateway // backing array of gateways until a second one outgrows it

	wg      sync.WaitGroup
	nthread atomic.Int64 // total threads ever created (diagnostics); Create bumps it from any domain

	// The cross-domain deadlock detector's state (pipe.go), under domMu: the
	// live domains, how many of them are parked in an XPipe, and whether the
	// deadlock they then form was reported.
	xlive, xparked int32
	xreported      bool
}

// New creates a runtime with the given configuration.
func New(cfg Config) *Runtime {
	if cfg.Mode.Deterministic() {
		if cfg.StreamTrace != nil && !cfg.Record {
			panic("qithread: Config.StreamTrace requires Record")
		}
		if cfg.Resume != nil && !cfg.Record {
			panic("qithread: Config.Resume requires Record")
		}
	} else {
		if cfg.Replay != nil {
			panic("qithread: Config.Replay requires a deterministic Mode")
		}
		if cfg.StreamTrace != nil {
			panic("qithread: Config.StreamTrace requires a deterministic Mode")
		}
		if cfg.Resume != nil {
			panic("qithread: Config.Resume requires a deterministic Mode")
		}
		if cfg.Chooser != nil {
			panic("qithread: Config.Chooser requires a deterministic Mode")
		}
	}
	rt := &Runtime{cfg: cfg}
	if cfg.Mode.Deterministic() {
		rt.xlive = 1 // the default domain, until Run's drain
	}
	rt.domains = rt.domain0[:0]
	rt.xpipes = rt.xpipe0[:0]
	rt.gateways = rt.gateway0[:0]
	rt.addDomain(&rt.main, "main")
	if cfg.Replay != nil {
		rt.main.sched.SetReplay(cfg.Replay)
	}
	return rt
}

// addDomain makes d the runtime's next scheduler domain (thread-safe; callers
// must still create domains in a deterministic order, see NewDomain): the
// next id, and in deterministic modes the domain's scheduler and its one
// choice-point hook — the scheduler and the domain's ingress gateways share
// the instance, so a single decision sequence covers turn, wake and admission
// choices.
func (rt *Runtime) addDomain(d *Domain, name string) *Domain {
	rt.domMu.Lock()
	defer rt.domMu.Unlock()
	cfg := &rt.cfg
	id := len(rt.domains)
	if id > math.MaxInt32 {
		// An Event holds the domain id as an int32; past it the id would wrap.
		panic(fmt.Sprintf("qithread: NewDomain(%q): domain id %d is past math.MaxInt32, the largest a schedule event holds", name, id))
	}
	d.rt, d.id, d.name = rt, id, name
	if cfg.Mode.Deterministic() {
		mode := policy.RoundRobin
		switch cfg.Mode {
		case LogicalClock:
			mode = policy.LogicalClock
		case VirtualParallel:
			mode = policy.VirtualClock
		}
		var sink core.TraceSink
		if cfg.StreamTrace != nil {
			sink = cfg.StreamTrace(id)
		}
		if cfg.Chooser != nil {
			d.chooser = cfg.Chooser(id)
		}
		d.sched = core.New(core.Config{
			Mode: mode, Policies: cfg.Policies, Record: cfg.Record,
			Sink: sink, SuspendRecording: cfg.Resume != nil,
			DomainID: id, Chooser: d.chooser,
		})
		d.stack = d.sched.Stack()
	}
	rt.domains = append(rt.domains, d)
	return d
}

// NewDomain creates an additional scheduler domain (beyond the default one).
// Domain ids follow creation order, so domains must be created
// deterministically — in practice by the setup code before Run, or by the
// main thread. Populate the domain with Domain.Start + Domain.Launch.
func (rt *Runtime) NewDomain(name string) *Domain {
	return rt.addDomain(new(Domain), name)
}

// Domain returns the domain with the given id (0 is the default domain).
func (rt *Runtime) Domain(id int) *Domain {
	rt.domMu.Lock()
	defer rt.domMu.Unlock()
	if id < 0 || id >= len(rt.domains) {
		panic(fmt.Sprintf("qithread: no domain %d (have %d)", id, len(rt.domains)))
	}
	return rt.domains[id]
}

// NumDomains returns the number of scheduler domains.
func (rt *Runtime) NumDomains() int {
	rt.domMu.Lock()
	defer rt.domMu.Unlock()
	return len(rt.domains)
}

// registered snapshots one of the runtime's lists under domMu: the domains in
// id order, the XPipes or the gateways in creation order. The lists are only
// ever appended to, so the snapshot is a view of the list capped at its
// length, not a copy: later appends write past its end or into a new array,
// and an append to the view copies.
func registered[T any](rt *Runtime, list *[]T) []T {
	rt.domMu.Lock()
	defer rt.domMu.Unlock()
	return (*list)[:len(*list):len(*list)]
}

// VirtualMakespan returns the critical-path estimate of the program's
// parallel execution time in work units (see the virtual-time model in
// internal/core). Valid after Run returns. The experiment harness measures
// virtual makespans so the paper's parallelism results reproduce on any
// host, including single-core machines. 0 in Nondet mode, which keeps no
// virtual time: the modelled native baseline is VirtualParallel.
func (rt *Runtime) VirtualMakespan() int64 {
	if !rt.det() {
		return 0
	}
	// A partitioned execution finishes when its slowest domain does.
	var max int64
	for _, d := range registered(rt, &rt.domains) {
		if v := d.sched.VirtualMakespan(); v > max {
			max = v
		}
	}
	return max
}

// Config returns the runtime configuration.
func (rt *Runtime) Config() Config { return rt.cfg }

// Scheduler exposes the underlying deterministic scheduler (nil in Nondet
// mode). It is intended for tests and tools; programs use the wrappers.
func (rt *Runtime) Scheduler() *core.Scheduler { return rt.main.sched }

// Run executes main as the program's main thread and returns when every
// thread of every domain — the main thread, everything it transitively
// created, and all launched domain roots — has finished.
//
// A deterministic run is hosted (internal/core/host.go): the calling
// goroutine also executes every other thread of the default domain, as
// coroutines it drives while the main thread waits for a turn and drains once
// main has exited, before waiting for the other domains (each runs on one
// goroutine of its own, see Domain.Launch). The contract for every thread of
// such a run is that it blocks natively only on something outside its own
// domain — an ingress source, an XPipe peer — and on its own domain's threads
// only through the wrappers: a native block on a sibling blocks the goroutine
// the sibling would have to run on. Nondet runs, which have no scheduler,
// start one goroutine per thread.
func (rt *Runtime) Run(main func(t *Thread)) {
	t := rt.newThread("main", &rt.main)
	if rt.det() {
		rt.main.sched.HostThreads()
		// Nothing joins the main thread, so it gets no join object.
		rt.main.sched.RegisterIn(&t.node, "main")
	}
	rt.wg.Add(1)
	func() {
		defer rt.wg.Done()
		main(t)
		t.exit()
	}()
	rt.wg.Wait()
}

// Trace returns the default domain's recorded schedule (empty unless
// Config.Record). For other domains use Domain.Trace; for a whole
// partitioned execution use Fingerprint. Call it after Run returns or from a
// thread of the default domain. After a replay that recorded nothing beyond
// Config.Replay, the result may be Config.Replay itself (len == cap, so an
// append copies): it is read-only under the same borrow contract as
// Config.Replay.
func (rt *Runtime) Trace() []Event { return rt.main.Trace() }

// Fingerprint condenses a partitioned execution for determinism checking:
// it has no global total order to hash, but each domain's schedule plus the
// stamps of every cross-domain delivery characterize it fully. Two runs of
// the same program and configuration must produce equal fingerprints.
type Fingerprint struct {
	// DomainHashes holds each domain's schedule hash (trace.Hash) in domain
	// id order.
	DomainHashes []uint64
	// Deliveries hashes the cross-domain delivery history: an FNV-64a stream
	// of (pipe id, delivered count, pipe delivery hash) per XPipe in id
	// order, each pipe's delivery hash being the running fold of its
	// delivery stamps. Per pipe the delivery order IS the message-sequence
	// order (FIFO), so this commits to every stamp of every delivery
	// without keeping a log of them.
	Deliveries uint64
}

// Equal reports whether two fingerprints describe the same execution.
func (f Fingerprint) Equal(o Fingerprint) bool {
	return f.Deliveries == o.Deliveries && slices.Equal(f.DomainHashes, o.DomainHashes)
}

func (f Fingerprint) String() string {
	var b strings.Builder
	for i, h := range f.DomainHashes {
		fmt.Fprintf(&b, "d%d:%016x ", i, h)
	}
	fmt.Fprintf(&b, "x:%016x", f.Deliveries)
	return b.String()
}

// Fingerprint condenses the execution for determinism checking: per-domain
// schedule hashes in id order plus a hash of the cross-domain deliveries.
// It replaces the single global schedule hash for partitioned executions
// (and subsumes it: with one domain it is exactly that hash plus the hash of
// no deliveries). The domain hashes are each scheduler's running trace hash,
// so Record must be on for them to mean anything (a non-recording domain
// reports the empty-trace hash). Call it after Run returns: it reads every domain's
// scheduler, which only that domain's threads may touch while it runs. Zero
// value in Nondet mode.
func (rt *Runtime) Fingerprint() Fingerprint {
	if !rt.det() {
		return Fingerprint{}
	}
	hs, deliveries := rt.AppendFingerprint(make([]uint64, 0, rt.NumDomains()))
	return Fingerprint{DomainHashes: hs, Deliveries: deliveries}
}

// AppendFingerprint is Fingerprint without a slice of its own: it appends
// the domain hashes to hs and returns the result with the delivery hash. The
// explorer builds a run's pruning key from it on a stack buffer. Deterministic
// runtimes only.
func (rt *Runtime) AppendFingerprint(hs []uint64) ([]uint64, uint64) {
	for _, d := range registered(rt, &rt.domains) {
		hs = append(hs, d.sched.TraceHash())
	}
	deliveries := uint64(logio.FNVOffset64)
	for _, p := range registered(rt, &rt.xpipes) {
		p.mu.Lock()
		deliveries = logio.FNVFold64(deliveries, p.id)
		deliveries = logio.FNVFold64(deliveries, p.delivered)
		deliveries = logio.FNVFold64(deliveries, p.hash)
		p.mu.Unlock()
	}
	return hs, deliveries
}

// ThreadsCreated returns the total number of threads the runtime created,
// including the main thread.
func (rt *Runtime) ThreadsCreated() int64 { return rt.nthread.Load() }

// Stats returns the default domain scheduler's activity counters (zero value
// in Nondet mode, which has no deterministic scheduler). Call it after Run
// returns or from a thread of the default domain.
func (rt *Runtime) Stats() core.Snapshot {
	if !rt.det() {
		return core.Snapshot{}
	}
	return rt.main.sched.Stats()
}

func (rt *Runtime) newThread(name string, d *Domain) *Thread {
	id := rt.nthread.Add(1) - 1
	t := &Thread{rt: rt, dom: d, id: int(id)}
	t.node.SetName(name)
	if !rt.det() {
		// Only Nondet-mode Join reads the done channel; deterministic modes
		// order exit observation under the turn, so they skip the allocation.
		t.nondetDone = make(chan struct{})
	}
	return t
}

// det reports whether the runtime schedules deterministically.
func (rt *Runtime) det() bool { return rt.main.sched != nil }
