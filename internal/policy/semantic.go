package policy

// The five semantics-aware policies of the paper (Section 3), as composable
// stack layers. Each holds no mutable state beyond its counters and its
// per-thread state word, so a policy object can be reused across runs.

// boostBlocked implements Section 3.1: threads woken from the wait queue go
// to a higher-priority wake-up queue which is scheduled before the run
// queue.
type boostBlocked struct{ Base }

// NewBoostBlocked returns the BoostBlocked policy layer.
func NewBoostBlocked() Policy { return &boostBlocked{} }

func (*boostBlocked) Name() string { return "BoostBlocked" }

func (p *boostBlocked) PickNext(v View) Thread {
	if t := v.FrontWake(); t != nil {
		p.m.Picks++
		return t
	}
	return nil
}

func (p *boostBlocked) OnWake(t Thread, timedOut bool) (Queue, bool) {
	p.m.WakeBoosts++
	return QueueWake, true
}

// createAll implements Section 3.2 (Figure 7a) as a one-shot lease: an armed
// keep_turn grants a lease that covers exactly the thread's next release
// point, so a creation loop completes back to back. The per-thread word is
// the pending-arm flag.
type createAll struct{ Base }

// NewCreateAll returns the CreateAll policy layer.
func NewCreateAll() Policy { return &createAll{} }

func (*createAll) Name() string { return "CreateAll" }

func (p *createAll) OnArm(t Thread) {
	*p.word(t) = 1
	p.HintLease(t, true)
	p.m.Arms++
}

func (p *createAll) ExtendLease(t Thread) bool {
	w := p.word(t)
	if *w == 0 {
		return false
	}
	*w = 0 // one-shot: the lease covers exactly the next release point
	p.HintLease(t, false)
	p.m.LeaseExtends++
	return true
}

// csWhole implements Section 3.3 as a critical-section-scoped lease: lock
// acquisition grants it, every release point inside the section extends it,
// and the matching unlock revokes it, so the whole section is scheduled as a
// single turn. The per-thread word is the nesting depth of exclusive sections
// currently held (the lease ends when the outermost section does).
type csWhole struct{ Base }

// NewCSWhole returns the CSWhole policy layer.
func NewCSWhole() Policy { return &csWhole{} }

func (*csWhole) Name() string { return "CSWhole" }

func (p *csWhole) OnAcquire(t Thread) bool {
	ps := t.PolicyState()
	w := ps.Word(p.Slot())
	*w++
	if *w == 1 {
		p.hintLeaseIn(ps, true)
	}
	p.m.LeaseExtends++
	return true
}

func (p *csWhole) OnRelease(t Thread) {
	ps := t.PolicyState()
	if w := ps.Word(p.Slot()); *w > 0 {
		*w--
		if *w == 0 {
			p.hintLeaseIn(ps, false)
		}
	}
}

func (p *csWhole) ExtendLease(t Thread) bool {
	if *p.word(t) == 0 {
		return false
	}
	p.m.LeaseExtends++
	return true
}

// wakeAMAP implements Section 3.4 as a sticky wake lease: a thread executing
// unblocking operations holds the lease while more threads are waiting on the
// same object, so the whole unblocking loop runs before anyone else is
// scheduled and the woken threads resume aligned. The per-thread word is the
// lease flag; it is revoked when a wake-up finds no more waiters, when the
// thread broadcasts, or when the thread itself blocks.
type wakeAMAP struct{ Base }

// NewWakeAMAP returns the WakeAMAP policy layer.
func NewWakeAMAP() Policy { return &wakeAMAP{} }

func (*wakeAMAP) Name() string { return "WakeAMAP" }

func (p *wakeAMAP) OnSignal(t Thread, waitersLeft int) {
	hold := waitersLeft > 0
	if hold {
		*p.word(t) = 1
	} else {
		*p.word(t) = 0
	}
	p.HintLease(t, hold)
}

func (p *wakeAMAP) OnBroadcast(t Thread) {
	*p.word(t) = 0
	p.HintLease(t, false)
}

func (p *wakeAMAP) OnBlock(t Thread) {
	*p.word(t) = 0
	p.HintLease(t, false)
}

func (p *wakeAMAP) ExtendLease(t Thread) bool {
	if *p.word(t) == 0 {
		return false
	}
	p.m.LeaseExtends++
	return true
}

// branchedWake implements Section 3.5 (Figure 7b): its presence in the stack
// enables the dummy synchronization operation that re-aligns threads which
// skipped an unblocking operation on a branch; without it Thread.DummySync
// is a no-op (the program counts as uninstrumented).
type branchedWake struct{ Base }

// NewBranchedWake returns the BranchedWake policy layer.
func NewBranchedWake() Policy { return &branchedWake{} }

func (*branchedWake) Name() string { return "BranchedWake" }

func (p *branchedWake) OnDummySync(t Thread) { p.m.DummySyncs++ }

// newSemantic returns a fresh policy object for a canonical single-policy
// set.
func newSemantic(p Set) Policy {
	switch p {
	case BoostBlocked:
		return NewBoostBlocked()
	case CreateAll:
		return NewCreateAll()
	case CSWhole:
		return NewCSWhole()
	case WakeAMAP:
		return NewWakeAMAP()
	case BranchedWake:
		return NewBranchedWake()
	}
	return nil
}
