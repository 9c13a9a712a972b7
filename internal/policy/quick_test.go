package policy

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// fakeThread is a minimal Thread for hook tests.
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

func newStack(base BaseKind, set Set) *Stack {
	s := &Stack{}
	s.Init(base, set)
	return s
}

// enabledNames lists set's policies in the Section 5.2 order.
func enabledNames(set Set) []string {
	var out []string
	for _, name := range Names() {
		if p, _ := SetForName(name); set.Has(p) {
			out = append(out, name)
		}
	}
	return out
}

// TestQuickDescriptorCanonical: for any bitmask the descriptor is the base
// name followed by the enabled policies in the canonical Section 5.2 order,
// Metrics names the same policies in the same order with the base last, and
// a clock base runs without semantic layers whatever the bitmask asks for.
func TestQuickDescriptorCanonical(t *testing.T) {
	f := func(bits uint8) bool {
		set := Set(bits) & AllPolicies
		stk := newStack(RoundRobin, set)
		names := enabledNames(set)
		want := "round-robin"
		if len(names) > 0 {
			want += "|" + strings.Join(names, ">")
		}
		if stk.String() != want {
			t.Logf("set %v: descriptor %q, want %q", set, stk, want)
			return false
		}
		var got []string
		for _, m := range listed(stk.Metrics()) {
			got = append(got, m.Policy)
		}
		if !reflect.DeepEqual(got, append(names, "round-robin")) {
			t.Logf("set %v: metrics order %v", set, got)
			return false
		}
		for _, base := range []BaseKind{LogicalClock, VirtualClock} {
			stk := newStack(base, set)
			if stk.String() != base.String() || len(listed(stk.Metrics())) != 1 || stk.NeedWaiters() || stk.WantDummySync() {
				t.Logf("set %v on %v: %q", set, base, stk)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// wantCounts is the expected non-zero counters of one run, by policy name.
type wantCounts map[string]Metrics

// blocks is every counter block of stk under its slot's name, disabled
// policies' included, which Metrics() does not report.
func blocks(stk *Stack) (out [Slots]Metrics) {
	for i, n := range setNames {
		out[i] = stk.counts[i].named(n.s)
	}
	out[slotBase] = stk.counts[slotBase].named(stk.base.String())
	return out
}

// listed is the named entries of a snapshot, the zero ones after the base
// policy dropped.
func listed(ms [Slots]Metrics) []Metrics {
	for i, m := range ms {
		if m.Policy == "" {
			return ms[:i]
		}
	}
	return ms[:]
}

// TestCountsMirrorMetrics: a slot's live block is Metrics without the name,
// field for field, so named copies every counter there is.
func TestCountsMirrorMetrics(t *testing.T) {
	var want []string
	m := reflect.TypeOf(Metrics{})
	for i := 1; i < m.NumField(); i++ {
		want = append(want, m.Field(i).Name)
	}
	var got []string
	c := reflect.TypeOf(counts{})
	for i := 0; i < c.NumField(); i++ {
		got = append(got, c.Field(i).Name)
	}
	if m.Field(0).Name != "Policy" || !reflect.DeepEqual(got, want) {
		t.Fatalf("counts has fields %v, Metrics %v after its name", got, want)
	}
	var blk counts
	v := reflect.ValueOf(&blk).Elem()
	for i := 0; i < v.NumField(); i++ {
		v.Field(i).SetInt(int64(i + 1))
	}
	if got := blk.named("p"); got != (Metrics{"p", 1, 2, 3, 4, 5}) {
		t.Fatalf("named copied %+v", got)
	}
}

// checkCounts compares every counter block of stk — disabled policies'
// included, which Metrics() does not report — against want.
func checkCounts(t *testing.T, stk *Stack, want wantCounts) {
	t.Helper()
	for _, m := range blocks(stk) {
		w := want[m.Policy]
		w.Policy = m.Policy
		if m != w {
			t.Errorf("counters %+v, want %+v", m, w)
		}
	}
}

// TestPolicyTable is the five policies and the three base policies one by
// one: what each decides at its hooks, what it leaves on the thread, and what
// it counts.
func TestPolicyTable(t *testing.T) {
	a, b, c := &fakeThread{id: 1}, &fakeThread{id: 2}, &fakeThread{id: 3}
	for _, row := range []struct {
		name string
		base BaseKind
		set  Set
		run  func(t *testing.T, stk *Stack, th *fakeThread)
		want wantCounts
	}{
		{"round-robin picks the run-queue head and ignores the wake-up queue", RoundRobin, NoPolicies,
			func(t *testing.T, stk *Stack, th *fakeThread) {
				if got := stk.PickNext(&fakeView{run: []*fakeThread{b, a}, wake: []*fakeThread{c}}); got != Thread(b) {
					t.Errorf("picked %v, want the run-queue head", got)
				}
				if got := stk.PickNext(&fakeView{}); got != nil {
					t.Errorf("picked %v from empty queues", got)
				}
				if q := stk.WakeQueue(th, false); q != QueueRun {
					t.Errorf("wake-up routed to queue %d, want the run queue", q)
				}
				stk.OnGrant(QueueRun)
			},
			wantCounts{"round-robin": {Picks: 1}}},
		{"logical-clock picks the minimal (clock, id) over both queues", LogicalClock, NoPolicies,
			func(t *testing.T, stk *Stack, th *fakeThread) {
				x, y, z := &fakeThread{id: 5, clock: 7, vtime: 1}, &fakeThread{id: 4, clock: 3, vtime: 9}, &fakeThread{id: 2, clock: 3, vtime: 9}
				if got := stk.PickNext(&fakeView{run: []*fakeThread{x, y}, wake: []*fakeThread{z}}); got != Thread(z) {
					t.Errorf("picked %v, want T2 (clock 3, lowest id)", got)
				}
				stk.OnGrant(QueueRun)
			},
			wantCounts{"logical-clock": {Picks: 1}}},
		{"virtual-clock keys on the virtual clock", VirtualClock, NoPolicies,
			func(t *testing.T, stk *Stack, th *fakeThread) {
				x, y := &fakeThread{id: 5, clock: 7, vtime: 1}, &fakeThread{id: 4, clock: 3, vtime: 9}
				if got := stk.PickNext(&fakeView{run: []*fakeThread{y, x}}); got != Thread(x) {
					t.Errorf("picked %v, want T5 (vtime 1)", got)
				}
				stk.OnGrant(QueueRun)
			},
			wantCounts{"virtual-clock": {Picks: 1}}},
		{"BoostBlocked routes wake-ups to the wake-up queue and picks from it first", RoundRobin, BoostBlocked,
			func(t *testing.T, stk *Stack, th *fakeThread) {
				if q := stk.WakeQueue(th, false); q != QueueWake {
					t.Errorf("wake-up routed to queue %d, want the wake-up queue", q)
				}
				if q := stk.WakeQueue(th, true); q != QueueWake {
					t.Errorf("timed-out wake-up routed to queue %d, want the wake-up queue", q)
				}
				if got := stk.PickNext(&fakeView{run: []*fakeThread{a}, wake: []*fakeThread{c, b}}); got != Thread(c) {
					t.Errorf("picked %v, want the wake-up queue head", got)
				}
				if got := stk.PickNext(&fakeView{run: []*fakeThread{a}}); got != Thread(a) {
					t.Errorf("picked %v, want the run-queue head when nobody was woken", got)
				}
				stk.OnGrant(QueueWake)
				stk.OnGrant(QueueRun)
				stk.OnGrant(QueueRun)
			},
			wantCounts{"BoostBlocked": {Picks: 1, WakeBoosts: 2}, "round-robin": {Picks: 2}}},
		{"PickNext counts nothing however often it is re-evaluated", RoundRobin, AllPolicies,
			func(t *testing.T, stk *Stack, th *fakeThread) {
				v := &fakeView{run: []*fakeThread{a}, wake: []*fakeThread{b}}
				for i := 0; i < 5; i++ {
					stk.PickNext(v)
				}
			},
			wantCounts{}},
		{"CreateAll's lease is one-shot", RoundRobin, CreateAll,
			func(t *testing.T, stk *Stack, th *fakeThread) {
				if stk.ExtendLease(th) {
					t.Error("lease extended before keep_turn")
				}
				stk.OnArm(th)
				stk.OnArm(th) // arming twice is still one lease
				if !th.ps.Armed || !stk.ExtendLease(th) {
					t.Error("armed keep_turn did not extend the lease")
				}
				if th.ps.Armed || stk.ExtendLease(th) {
					t.Error("lease outlived its one release point")
				}
			},
			wantCounts{"CreateAll": {Arms: 2, LeaseExtends: 1}}},
		{"CSWhole nests", RoundRobin, CSWhole,
			func(t *testing.T, stk *Stack, th *fakeThread) {
				if !stk.OnAcquire(th) || !stk.OnAcquire(th) {
					t.Error("lock acquisition did not begin a lease")
				}
				stk.OnRelease(th)
				if th.ps.CSDepth != 1 || !stk.ExtendLease(th) {
					t.Error("lease ended with the inner section")
				}
				stk.OnRelease(th)
				if stk.ExtendLease(th) {
					t.Error("lease outlived the outermost section")
				}
				stk.OnRelease(th) // unbalanced release (cond wait re-entry) must not underflow
				if th.ps.CSDepth != 0 {
					t.Errorf("depth %d after an unbalanced release", th.ps.CSDepth)
				}
			},
			wantCounts{"CSWhole": {LeaseExtends: 3}}},
		{"WakeAMAP holds while waiters remain and drops on the last waiter, a broadcast and blocking", RoundRobin, WakeAMAP,
			func(t *testing.T, stk *Stack, th *fakeThread) {
				if !stk.NeedWaiters() {
					t.Error("NeedWaiters false")
				}
				for _, end := range []func(){
					func() { stk.OnSignal(th, 0) },
					func() { stk.OnBroadcast(th) },
					func() { stk.OnBlock(th) },
				} {
					stk.OnSignal(th, 2)
					if !stk.ExtendLease(th) || !stk.ExtendLease(th) {
						t.Error("wake lease not held (it is sticky) while waiters remain")
					}
					end()
					if th.ps.Wake || stk.ExtendLease(th) {
						t.Error("wake lease survived its revocation")
					}
				}
			},
			wantCounts{"WakeAMAP": {LeaseExtends: 6}}},
		{"BranchedWake enables and counts dummy syncs", RoundRobin, BranchedWake,
			func(t *testing.T, stk *Stack, th *fakeThread) {
				if !stk.WantDummySync() {
					t.Error("WantDummySync false")
				}
				stk.OnDummySync(th)
			},
			wantCounts{"BranchedWake": {DummySyncs: 1}}},
		{"ExtendLease asks CreateAll, then CSWhole, then WakeAMAP, and only the winner counts", RoundRobin, AllPolicies,
			func(t *testing.T, stk *Stack, th *fakeThread) {
				stk.OnSignal(th, 1)
				stk.OnAcquire(th)
				stk.OnArm(th)
				for _, step := range []struct {
					winner string
					after  func()
				}{
					{"CreateAll", func() {}}, // consumes the one-shot arm
					{"CSWhole", func() { stk.OnRelease(th) }},
					{"WakeAMAP", func() { stk.OnBroadcast(th) }},
				} {
					before := blocks(stk)
					if !stk.ExtendLease(th) {
						t.Fatalf("no extension with %s's lease standing", step.winner)
					}
					for i, m := range blocks(stk) {
						want := before[i]
						if m.Policy == step.winner {
							want.LeaseExtends++
						}
						if m != want {
							t.Errorf("%s should win: counters %+v, want %+v", step.winner, m, want)
						}
					}
					step.after()
				}
				if stk.ExtendLease(th) {
					t.Error("extension with every lease gone")
				}
			},
			wantCounts{"CreateAll": {Arms: 1, LeaseExtends: 1}, "CSWhole": {LeaseExtends: 2}, "WakeAMAP": {LeaseExtends: 1}}},
		{"disabled policies never touch state or counters", RoundRobin, NoPolicies,
			func(t *testing.T, stk *Stack, th *fakeThread) {
				stk.OnArm(th)
				if stk.OnAcquire(th) {
					t.Error("OnAcquire leased without CSWhole")
				}
				stk.OnSignal(th, 3)
				stk.OnDummySync(th)
				if stk.NeedWaiters() || stk.WantDummySync() || stk.ExtendLease(th) {
					t.Error("a disabled policy answered")
				}
				stk.OnRelease(th)
				stk.OnBroadcast(th)
				stk.OnBlock(th)
			},
			wantCounts{}},
	} {
		t.Run(row.name, func(t *testing.T) {
			stk, th := newStack(row.base, row.set), &fakeThread{}
			row.run(t, stk, th)
			if th.ps != (PerThread{}) {
				t.Errorf("thread left holding %+v", th.ps)
			}
			checkCounts(t, stk, row.want)
		})
	}
}

// TestQuickRetainAndAcquireSemantics drives random hook sequences through
// every bitmask against the rules written out longhand: ExtendLease grants
// iff an enabled policy's lease stands (CreateAll's consumed by the grant),
// OnAcquire leases iff CSWhole is enabled and every acquisition and release
// moves the depth, a wake lease follows the last OnSignal, and the state and
// counters of a disabled policy stay zero throughout.
func TestQuickRetainAndAcquireSemantics(t *testing.T) {
	f := func(bits uint8, ops []uint8) bool {
		set := Set(bits) & AllPolicies
		stk, th := newStack(RoundRobin, set), &fakeThread{}
		var want PerThread
		ext := map[Set]int64{}
		var arms int64
		for _, op := range ops {
			switch op % 7 {
			case 0:
				stk.OnArm(th)
				if set.Has(CreateAll) {
					want.Armed = true
					arms++
				}
			case 1:
				if stk.OnAcquire(th) != set.Has(CSWhole) {
					return false
				}
				if set.Has(CSWhole) {
					want.CSDepth++
					ext[CSWhole]++
				}
			case 2:
				stk.OnRelease(th)
				if want.CSDepth > 0 {
					want.CSDepth--
				}
			case 3:
				left := int(op / 7 % 3)
				stk.OnSignal(th, left)
				want.Wake = set.Has(WakeAMAP) && left > 0
			case 4:
				stk.OnBroadcast(th)
				want.Wake = false
			case 5:
				stk.OnBlock(th)
				want.Wake = false
			case 6:
				winner := Set(0)
				switch {
				case want.Armed:
					winner, want.Armed = CreateAll, false
				case want.CSDepth > 0:
					winner = CSWhole
				case want.Wake:
					winner = WakeAMAP
				}
				if stk.ExtendLease(th) != (winner != 0) {
					return false
				}
				if winner != 0 {
					ext[winner]++
				}
			}
			if th.ps != want || !stk.Owns(th.ps) {
				t.Logf("set %v: state %+v, want %+v", set, th.ps, want)
				return false
			}
		}
		checkCounts(t, stk, wantCounts{
			"CreateAll": {Arms: arms, LeaseExtends: ext[CreateAll]},
			"CSWhole":   {LeaseExtends: ext[CSWhole]},
			"WakeAMAP":  {LeaseExtends: ext[WakeAMAP]},
		})
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestOwns: a thread state is the stack's own iff every lease in it belongs
// to an enabled policy — what a checkpoint restore checks before trusting it.
func TestOwns(t *testing.T) {
	for _, c := range []struct {
		ps    PerThread
		owner Set
	}{
		{PerThread{Armed: true}, CreateAll},
		{PerThread{CSDepth: 2}, CSWhole},
		{PerThread{Wake: true}, WakeAMAP},
	} {
		for set := NoPolicies; set <= AllPolicies; set++ {
			if got := newStack(RoundRobin, set).Owns(c.ps); got != set.Has(c.owner) {
				t.Errorf("%v owns %+v = %v", set, c.ps, got)
			}
		}
		if newStack(LogicalClock, AllPolicies).Owns(c.ps) {
			t.Errorf("a clock base owns %+v", c.ps)
		}
	}
	if !newStack(LogicalClock, NoPolicies).Owns(PerThread{}) {
		t.Error("the zero state belongs to every stack")
	}
}

// TestMetricsOrderAndReset: Metrics reports the enabled layers first, the
// base next and zero entries after it, as copies of the live blocks, and
// filling the stack again starts every counter from zero.
func TestMetricsOrderAndReset(t *testing.T) {
	stk := newStack(RoundRobin, AllPolicies)
	th := &fakeThread{}
	for i := 0; i < 7; i++ {
		stk.OnGrant(QueueRun)
	}
	stk.OnGrant(QueueWake)
	stk.WakeQueue(th, false)
	stk.OnArm(th)
	stk.OnAcquire(th)
	stk.OnDummySync(th)
	want := [Slots]Metrics{
		{Policy: "BoostBlocked", Picks: 1, WakeBoosts: 1},
		{Policy: "CreateAll", Arms: 1},
		{Policy: "CSWhole", LeaseExtends: 1},
		{Policy: "WakeAMAP"},
		{Policy: "BranchedWake", DummySyncs: 1},
		{Policy: "round-robin", Picks: 7},
	}
	ms := stk.Metrics()
	if !reflect.DeepEqual(ms, want) {
		t.Fatalf("metrics %+v, want %+v", ms, want)
	}
	ms[0].Picks = 99
	if stk.Metrics()[0].Picks != 1 {
		t.Fatal("Metrics returned the live blocks, not a snapshot")
	}
	stk.Init(RoundRobin, CSWhole|WakeAMAP)
	ms = stk.Metrics()
	if want := [Slots]Metrics{{Policy: "CSWhole"}, {Policy: "WakeAMAP"}, {Policy: "round-robin"}}; ms != want {
		t.Fatalf("metrics after Init %+v, want %+v", ms, want)
	}
	if got := stk.String(); got != "round-robin|CSWhole>WakeAMAP" {
		t.Fatalf("descriptor after Init %q", got)
	}
}
