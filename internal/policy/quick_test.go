package policy

import (
	"fmt"
	"testing"
	"testing/quick"
)

// fakeThread is a minimal Thread for stack-level dispatch tests.
type fakeThread struct {
	id    int
	clock int64
	vtime int64
	ps    PerThread
}

func (t *fakeThread) ID() int                 { return t.id }
func (t *fakeThread) Clock() int64            { return t.clock }
func (t *fakeThread) VTime() int64            { return t.vtime }
func (t *fakeThread) PolicyState() *PerThread { return &t.ps }

// newFakeThread returns a thread whose policy state block is sized for stk.
func newFakeThread(stk *Stack, id int) *fakeThread {
	t := &fakeThread{id: id}
	stk.InitState(&t.ps)
	return t
}

// fakeView serves a fixed pair of queues.
type fakeView struct{ run, wake []*fakeThread }

func (v *fakeView) FrontRun() Thread {
	if len(v.run) == 0 {
		return nil
	}
	return v.run[0]
}

func (v *fakeView) FrontWake() Thread {
	if len(v.wake) == 0 {
		return nil
	}
	return v.wake[0]
}

func (v *fakeView) NextRunnable(after Thread) Thread {
	all := append(append([]*fakeThread{}, v.run...), v.wake...)
	if after == nil {
		if len(all) == 0 {
			return nil
		}
		return all[0]
	}
	for i, t := range all {
		if Thread(t) == after {
			if i+1 < len(all) {
				return all[i+1]
			}
			return nil
		}
	}
	return nil
}

// fakeLayer is a configurable layer policy: a fixed PickNext decision, a
// fixed OnWake decision, a fixed ExtendLease/OnAcquire answer, and call
// counts.
type fakeLayer struct {
	Base
	name     string
	pick     Thread // nil = defer to the next picker
	wakeQ    Queue
	wakeOK   bool
	keep     bool
	retain   bool
	acquires int
	releases int
}

func (p *fakeLayer) Name() string { return p.name }

func (p *fakeLayer) PickNext(View) Thread { return p.pick }

func (p *fakeLayer) OnWake(Thread, bool) (Queue, bool) { return p.wakeQ, p.wakeOK }

func (p *fakeLayer) ExtendLease(Thread) bool { return p.keep }

func (p *fakeLayer) OnAcquire(Thread) bool { p.acquires++; return p.retain }

func (p *fakeLayer) OnRelease(Thread) { p.releases++ }

// TestQuickSetStringRoundTrip: every set prints to a string ParseSet maps
// back to the identical set.
func TestQuickSetStringRoundTrip(t *testing.T) {
	f := func(bits uint8) bool {
		set := Set(bits) & AllPolicies
		got, err := ParseSet(set.String())
		return err == nil && got == set
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestQuickFromSetCanonical: compiling any bitmask to a stack yields layers
// in the canonical Section 5.2 order, Has() answers matching the bitmask, and
// a descriptor that never changes across calls.
func TestQuickFromSetCanonical(t *testing.T) {
	f := func(bits uint8) bool {
		set := Set(bits) & AllPolicies
		stk := FromSet(RoundRobin(), set)
		// Layer names must be the enabled subsequence of the canonical order.
		want := []string{}
		for _, name := range Names() {
			if p, ok := SetForName(name); ok && set.Has(p) {
				want = append(want, name)
			}
		}
		layers := stk.Layers()
		if len(layers) != len(want) {
			return false
		}
		for i, p := range layers {
			if p.Name() != want[i] {
				return false
			}
		}
		for _, name := range Names() {
			p, _ := SetForName(name)
			if stk.Has(name) != set.Has(p) {
				return false
			}
		}
		return stk.String() == stk.String() && stk.Base().Name() == "round-robin"
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestQuickPickerFirstDecisiveWins: PickNext returns the decision of the
// first decisive layer in stack order, falling through to the base policy
// when every layer defers.
func TestQuickPickerFirstDecisiveWins(t *testing.T) {
	f := func(decisive uint8, nLayers uint8) bool {
		n := int(nLayers)%5 + 1
		front := &fakeThread{id: 100}
		v := &fakeView{run: []*fakeThread{front}}
		layers := make([]Policy, n)
		picks := make([]*fakeThread, n)
		for i := range layers {
			l := &fakeLayer{name: fmt.Sprintf("l%d", i)}
			if decisive&(1<<i) != 0 {
				picks[i] = &fakeThread{id: i}
				l.pick = picks[i]
			}
			layers[i] = l
		}
		stk := New(RoundRobin(), layers...)
		got := stk.PickNext(v)
		for i := range layers {
			if picks[i] != nil {
				return got == Thread(picks[i])
			}
		}
		return got == Thread(front) // all deferred: base picks FrontRun
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestQuickWakeQueueFirstOKWins: WakeQueue returns the first decisive
// waker's queue, defaulting to the run queue when every waker defers.
func TestQuickWakeQueueFirstOKWins(t *testing.T) {
	f := func(okMask, queueMask, nLayers uint8) bool {
		n := int(nLayers)%5 + 1
		layers := make([]Policy, n)
		for i := range layers {
			layers[i] = &fakeLayer{
				name:   fmt.Sprintf("l%d", i),
				wakeOK: okMask&(1<<i) != 0,
				wakeQ:  Queue(queueMask >> i & 1),
			}
		}
		stk := New(RoundRobin(), layers...)
		got := stk.WakeQueue(&fakeThread{}, false)
		for i := range layers {
			l := layers[i].(*fakeLayer)
			if l.wakeOK {
				return got == l.wakeQ
			}
		}
		return got == QueueRun
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestQuickRetainAndAcquireSemantics: ExtendLease grants iff any leaser with
// a published hint grants (the hint mask gates dispatch); OnAcquire leases
// iff any acquirer leases AND always notifies every acquirer (no
// short-circuit — acquirers track critical-section depth and must see every
// acquisition); OnRelease notifies every acquirer.
func TestQuickRetainAndAcquireSemantics(t *testing.T) {
	f := func(keepMask, retainMask, nLayers uint8) bool {
		n := int(nLayers)%5 + 1
		layers := make([]Policy, n)
		anyKeep, anyRetain := false, false
		for i := range layers {
			keep := keepMask&(1<<i) != 0
			retain := retainMask&(1<<i) != 0
			anyKeep = anyKeep || keep
			anyRetain = anyRetain || retain
			layers[i] = &fakeLayer{name: fmt.Sprintf("l%d", i), keep: keep, retain: retain}
		}
		stk := New(RoundRobin(), layers...)
		th := newFakeThread(stk, 0)
		for i := range layers {
			l := layers[i].(*fakeLayer)
			l.HintLease(th, l.keep) // Leaser contract: hint when ExtendLease may grant
		}
		if stk.ExtendLease(th) != anyKeep {
			return false
		}
		if stk.OnAcquire(th) != anyRetain {
			return false
		}
		stk.OnRelease(th)
		for i := range layers {
			l := layers[i].(*fakeLayer)
			if l.acquires != 1 || l.releases != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestQuickSlotIsolation: every policy in a stack is assigned a distinct
// per-thread state slot, InitState sizes the block to the stack, and writes
// through one policy's slot never alias another's.
func TestQuickSlotIsolation(t *testing.T) {
	f := func(bits uint8) bool {
		set := Set(bits) & AllPolicies
		stk := FromSet(RoundRobin(), set)
		all := append(stk.Layers(), stk.Base())
		var pt PerThread
		stk.InitState(&pt)
		if len(pt.words) != len(all)+1 { // +1: the lease-hint mask word
			return false
		}
		seen := map[int]bool{}
		for _, p := range all {
			s := p.(interface{ Slot() int }).Slot()
			if s < 0 || s >= len(all) || seen[s] {
				return false
			}
			seen[s] = true
			*pt.Word(s) = uint64(s) + 1
		}
		for _, p := range all {
			s := p.(interface{ Slot() int }).Slot()
			if *pt.Word(s) != uint64(s)+1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestMetricsOrderAndReset: Metrics reports layers first and the base last,
// names match the stack descriptor, and ResetMetrics zeroes every counter.
func TestMetricsOrderAndReset(t *testing.T) {
	stk := FromSet(RoundRobin(), AllPolicies)
	v := &fakeView{run: []*fakeThread{newFakeThread(stk, 1)}}
	for i := 0; i < 7; i++ {
		if stk.PickNext(v) == nil {
			t.Fatal("expected a pick")
		}
	}
	ms := stk.Metrics()
	if len(ms) != len(stk.Layers())+1 {
		t.Fatalf("got %d metrics, want %d", len(ms), len(stk.Layers())+1)
	}
	for i, p := range stk.Layers() {
		if ms[i].Policy != p.Name() {
			t.Fatalf("metrics[%d] = %q, want %q", i, ms[i].Policy, p.Name())
		}
	}
	if last := ms[len(ms)-1]; last.Policy != "round-robin" || last.Picks == 0 {
		t.Fatalf("base metrics %+v, want round-robin with picks", last)
	}
	stk.ResetMetrics()
	for _, m := range stk.Metrics() {
		if m.Total() != 0 {
			t.Fatalf("counters for %s not reset: %+v", m.Policy, m)
		}
	}
}
