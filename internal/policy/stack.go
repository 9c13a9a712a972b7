package policy

import (
	"fmt"
	"strings"
)

// Stack is an ordered composition of scheduling policies: one base turn
// policy at the bottom and zero or more semantics-aware layers above it.
// The order is fixed at construction and never changes mid-run — hooks are
// always dispatched in stack order, which is what makes schedules
// deterministic and decisions attributable.
//
// A Stack carries no per-run state besides its decision counters: policy
// state lives on the threads themselves (PerThread slots), so one Stack may
// be reused across sequential runs. Counters accumulate across runs; call
// ResetMetrics between runs for per-run attribution.
type Stack struct {
	base   Policy
	layers []Policy

	// Per-hook dispatch tables, precomputed in stack order. pickers has the
	// base policy appended last so it decides when no layer does.
	pickers      []Picker
	wakers       []Waker
	blockers     []Blocker
	registrars   []Registrar
	exiters      []Exiter
	leasers      []Leaser
	acquirers    []Acquirer
	signalers    []Signaler
	broadcasters []Broadcaster
	armers       []Armer
	creators     []Creator
	aligners     []Aligner

	all     []Policy
	metrics []Metrics // the live counter block of all[i], Policy name filled in
	slots   int

	// buf is the inline backing for every slice above. Stacks of up to
	// stackInlinePolicies policies — every canonical stack — construct with a
	// single allocation: the tables slice into buf instead of the heap. A
	// stack is built per scheduler domain per Runtime, so construction cost
	// is measurable on benchmarks that build runtimes in a loop.
	buf stackBuf
}

// stackInlinePolicies bounds the stack size served by the inline backing
// (base + the five semantic layers fit with headroom).
const stackInlinePolicies = 8

type stackBuf struct {
	all     [stackInlinePolicies]Policy
	metrics [stackInlinePolicies]Metrics

	pickers      [stackInlinePolicies]Picker
	wakers       [stackInlinePolicies]Waker
	blockers     [stackInlinePolicies]Blocker
	registrars   [stackInlinePolicies]Registrar
	exiters      [stackInlinePolicies]Exiter
	leasers      [stackInlinePolicies]Leaser
	acquirers    [stackInlinePolicies]Acquirer
	signalers    [stackInlinePolicies]Signaler
	broadcasters [stackInlinePolicies]Broadcaster
	armers       [stackInlinePolicies]Armer
	creators     [stackInlinePolicies]Creator
	aligners     [stackInlinePolicies]Aligner
}

// New composes a stack from a base turn policy (which must implement
// Picker) and semantics-aware layers in stack order. Every policy object is
// attached to exactly one stack; passing a policy to two stacks panics via
// double attachment being indistinguishable — construct fresh objects per
// stack (the New* constructors are cheap).
func New(base Policy, layers ...Policy) *Stack {
	if _, ok := base.(Picker); !ok {
		panic(fmt.Sprintf("policy: base policy %q does not implement Picker", base.Name()))
	}
	s := &Stack{base: base}
	n := len(layers) + 1
	// One backing array for every policy's counter block, inline when it
	// fits: construction-heavy benchmarks see every per-element heap
	// allocation here.
	if n <= stackInlinePolicies {
		s.all = s.buf.all[:n]
		s.metrics = s.buf.metrics[:n]
	} else {
		s.all = make([]Policy, n)
		s.metrics = make([]Metrics, n)
	}
	copy(s.all, layers)
	s.all[n-1] = base
	s.layers = s.all[:n-1]
	s.slots = n
	for i, p := range s.all {
		s.metrics[i].Policy = p.Name()
		p.Attach(i, &s.metrics[i])
	}
	// Layers dispatch in stack order; the base picker runs after all layer
	// pickers so it only decides when no layer does (index iterates s.all,
	// which has the base last).
	s.index()
	return s
}

// index builds the dispatch table of every hook from s.all in one pass,
// filing each policy under the hook interfaces it satisfies. Inline-backed
// stacks (every canonical one) append directly into buf — statically large
// enough — so no table grows; oversized custom stacks append with ordinary
// slice growth. Tables dispatch in stack order, which the per-policy append
// preserves within each table.
func (s *Stack) index() {
	if len(s.all) <= stackInlinePolicies {
		s.pickers = s.buf.pickers[:0]
		s.wakers = s.buf.wakers[:0]
		s.blockers = s.buf.blockers[:0]
		s.registrars = s.buf.registrars[:0]
		s.exiters = s.buf.exiters[:0]
		s.leasers = s.buf.leasers[:0]
		s.acquirers = s.buf.acquirers[:0]
		s.signalers = s.buf.signalers[:0]
		s.broadcasters = s.buf.broadcasters[:0]
		s.armers = s.buf.armers[:0]
		s.creators = s.buf.creators[:0]
		s.aligners = s.buf.aligners[:0]
	}
	for _, p := range s.all {
		if h, ok := p.(Picker); ok {
			s.pickers = append(s.pickers, h)
		}
		if h, ok := p.(Waker); ok {
			s.wakers = append(s.wakers, h)
		}
		if h, ok := p.(Blocker); ok {
			s.blockers = append(s.blockers, h)
		}
		if h, ok := p.(Registrar); ok {
			s.registrars = append(s.registrars, h)
		}
		if h, ok := p.(Exiter); ok {
			s.exiters = append(s.exiters, h)
		}
		if h, ok := p.(Leaser); ok {
			s.leasers = append(s.leasers, h)
		}
		if h, ok := p.(Acquirer); ok {
			s.acquirers = append(s.acquirers, h)
		}
		if h, ok := p.(Signaler); ok {
			s.signalers = append(s.signalers, h)
		}
		if h, ok := p.(Broadcaster); ok {
			s.broadcasters = append(s.broadcasters, h)
		}
		if h, ok := p.(Armer); ok {
			s.armers = append(s.armers, h)
		}
		if h, ok := p.(Creator); ok {
			s.creators = append(s.creators, h)
		}
		if h, ok := p.(Aligner); ok {
			s.aligners = append(s.aligners, h)
		}
	}
}

// InitState initializes pt in place as the per-thread state block for this
// stack: the lease-hint mask plus one word per policy slot. Stacks of up to
// len(pt.inline)-1 policies — every canonical stack — use the block embedded
// in pt itself, so registering a thread allocates no separate state; larger
// custom stacks fall back to the heap.
//
// pt must not be copied after InitState: the words slice may alias pt.inline.
// The scheduler initializes the block embedded in core.Thread in place,
// which never moves.
func (s *Stack) InitState(pt *PerThread) {
	n := s.slots + 1
	if n <= len(pt.inline) {
		pt.words = pt.inline[:n]
		clear(pt.words)
		return
	}
	pt.words = make([]uint64, n)
}

// --- scheduler-level dispatch ---

// PickNext returns the thread that should hold the turn next, or nil if no
// thread is runnable. Pickers are consulted in stack order; the base policy
// decides last.
func (s *Stack) PickNext(v View) Thread {
	for _, p := range s.pickers {
		if t := p.PickNext(v); t != nil {
			return t
		}
	}
	return nil
}

// WakeQueue returns the runnable queue a just-woken thread joins. The first
// decisive waker in stack order wins; the default is the run queue.
func (s *Stack) WakeQueue(t Thread, timedOut bool) Queue {
	for _, p := range s.wakers {
		if q, ok := p.OnWake(t, timedOut); ok {
			return q
		}
	}
	return QueueRun
}

// OnBlock notifies the stack that t is parking on the wait queue.
func (s *Stack) OnBlock(t Thread) {
	for _, p := range s.blockers {
		p.OnBlock(t)
	}
}

// OnRegister notifies the stack of a newly registered thread.
func (s *Stack) OnRegister(t Thread) {
	for _, p := range s.registrars {
		p.OnRegister(t)
	}
}

// OnExit notifies the stack that t has exited.
func (s *Stack) OnExit(t Thread) {
	for _, p := range s.exiters {
		p.OnExit(t)
	}
}

// --- wrapper-level dispatch ---

// ExtendLease reports whether any policy's lease keeps the turn with t at a
// release point. Leasers are consulted in stack order; the first extension
// wins. The common case — no lease held — is answered from t's lease-hint
// mask with a single load, since release points vastly outnumber lease state
// changes.
func (s *Stack) ExtendLease(t Thread) bool {
	if len(s.leasers) == 0 || *t.PolicyState().leaseHint() == 0 {
		return false
	}
	for _, p := range s.leasers {
		if p.ExtendLease(t) {
			return true
		}
	}
	return false
}

// OnAcquire notifies the stack of an exclusive lock acquisition and reports
// whether a lease on the turn begins at the acquisition site.
func (s *Stack) OnAcquire(t Thread) bool {
	lease := false
	for _, p := range s.acquirers {
		if p.OnAcquire(t) {
			lease = true
		}
	}
	return lease
}

// OnRelease notifies the stack of an exclusive lock release.
func (s *Stack) OnRelease(t Thread) {
	for _, p := range s.acquirers {
		p.OnRelease(t)
	}
}

// NeedWaiters reports whether any policy consumes the remaining-waiter count
// of OnSignal, letting wrappers skip computing it otherwise.
func (s *Stack) NeedWaiters() bool { return len(s.signalers) > 0 }

// OnSignal notifies the stack of a wake-producing operation with the number
// of threads still waiting on the object.
func (s *Stack) OnSignal(t Thread, waitersLeft int) {
	for _, p := range s.signalers {
		p.OnSignal(t, waitersLeft)
	}
}

// OnBroadcast notifies the stack of a condition-variable broadcast.
func (s *Stack) OnBroadcast(t Thread) {
	for _, p := range s.broadcasters {
		p.OnBroadcast(t)
	}
}

// OnArm dispatches a keep_turn arming request. With no Armer in the stack it
// is a no-op, so instrumented programs behave identically to uninstrumented
// ones under other configurations (Figure 7a).
func (s *Stack) OnArm(t Thread) {
	for _, p := range s.armers {
		p.OnArm(t)
	}
}

// OnCreate notifies the stack of a thread creation.
func (s *Stack) OnCreate(parent, child Thread) {
	for _, p := range s.creators {
		p.OnCreate(parent, child)
	}
}

// WantDummySync reports whether dummy synchronization operations are
// enabled (some policy implements Aligner).
func (s *Stack) WantDummySync() bool { return len(s.aligners) > 0 }

// OnDummySync accounts one executed dummy synchronization operation.
func (s *Stack) OnDummySync(t Thread) {
	for _, p := range s.aligners {
		p.OnDummySync(t)
	}
}

// --- introspection ---

// Base returns the base turn policy.
func (s *Stack) Base() Policy { return s.base }

// Layers returns the semantics-aware layers in stack order.
func (s *Stack) Layers() []Policy { return append([]Policy(nil), s.layers...) }

// Has reports whether the stack contains a policy with the given name.
func (s *Stack) Has(name string) bool {
	for _, p := range s.all {
		if p.Name() == name {
			return true
		}
	}
	return false
}

// Metrics snapshots every policy's decision counters in stack order (layers
// first, base last).
func (s *Stack) Metrics() []Metrics { return append([]Metrics(nil), s.metrics...) }

// ResetMetrics zeroes every policy's decision counters.
func (s *Stack) ResetMetrics() {
	for i := range s.metrics {
		s.metrics[i] = Metrics{Policy: s.metrics[i].Policy}
	}
}

// String renders the stack descriptor: base|layer>layer>...
func (s *Stack) String() string {
	if len(s.layers) == 0 {
		return s.base.Name()
	}
	names := make([]string, len(s.layers))
	for i, p := range s.layers {
		names[i] = p.Name()
	}
	return s.base.Name() + "|" + strings.Join(names, ">")
}

// FromSet compiles the legacy bitmask configuration down to a canonical
// stack: the given base policy plus the enabled semantics-aware policies in
// the paper's Section 5.2 order (BB → CA → CSW → WAMAP → BW). Passing a
// non-round-robin base with a non-empty set is allowed but unusual; the
// callers in internal/core gate semantic layers to the round-robin base,
// matching the original implementation.
func FromSet(base Policy, set Set) *Stack {
	b := &semBundle{}
	return New(base, b.layers(set)...)
}

// CanonicalStack is FromSet with a fresh round-robin base, the configuration
// every additional scheduler domain compiles to. Base, layers, and layer
// buffer come out of one bundle allocation.
func CanonicalStack(set Set) *Stack {
	b := &semBundle{}
	return New(&b.rr, b.layers(set)...)
}

// semBundle backs one canonical stack's policy objects with a single
// allocation. Partitioned runtimes build one stack per domain, so the five
// separate policy allocations of the naive construction are measurable.
type semBundle struct {
	rr   roundRobin
	bb   boostBlocked
	ca   createAll
	csw  csWhole
	wam  wakeAMAP
	bw   branchedWake
	lbuf [5]Policy
}

// layers materializes the enabled semantic policies in canonical order,
// pointing into the bundle.
func (b *semBundle) layers(set Set) []Policy {
	out := b.lbuf[:0]
	if set.Has(BoostBlocked) {
		out = append(out, &b.bb)
	}
	if set.Has(CreateAll) {
		out = append(out, &b.ca)
	}
	if set.Has(CSWhole) {
		out = append(out, &b.csw)
	}
	if set.Has(WakeAMAP) {
		out = append(out, &b.wam)
	}
	if set.Has(BranchedWake) {
		out = append(out, &b.bw)
	}
	return out
}
