package core

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"
)

// The turn grant is park-first: a thread that is not the holder blocks on a
// plain receive of its grant channel, and the releaser wakes it with exactly
// one token (grantLocked). How a waiter waits must be invisible in every
// schedule observable, whatever the number of Ps the goroutines are spread
// over — `make cpu-matrix` runs this file at -cpu 1,2,4 and under -race.

// handoffRun is everything one stress execution exposes: the recorded
// schedule and how each thread's timed waits ended.
type handoffRun struct {
	trace    []Event
	timeouts []int
}

// handoffSeen keeps the first execution of every stress scenario for the
// life of the test binary. `go test -cpu 1,2,4` re-runs the test function in
// the same process at each GOMAXPROCS value, so comparing against the first
// execution is what makes the neutrality check span the cpu values.
var handoffSeen sync.Map // scenario name -> handoffRun

// handoffStress runs n threads through a fixed script mixing every way the
// turn changes hands: Yield (PutTurn handoff), timed Wait cut short by a
// Signal or a Broadcast or left to expire, an untimed Wait released by a
// Broadcast (a barrier), and Exit while the others are still trading turns
// (every fourth thread leaves before the barrier). All decisions are taken
// under the turn, so the run is a pure function of (cfg, n).
func handoffStress(t *testing.T, cfg Config, n int) handoffRun {
	t.Helper()
	const (
		rounds  = 12
		objs    = 3
		barrier = uint64(100)
	)
	cfg.Record = true
	s := New(cfg)
	ths := make([]*Thread, n)
	for i := range ths {
		ths[i] = s.Register(fmt.Sprintf("h%d", i))
	}
	party := n - n/4 // threads with i%4 == 3 exit early
	arrived := 0     // guarded by the turn
	timeouts := make([]int, n)

	var wg sync.WaitGroup
	for i, th := range ths {
		wg.Add(1)
		go func(i int, th *Thread) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				obj := uint64((i+r)%objs) + 1
				s.GetTurn(th)
				switch (i + r) % 4 {
				case 0:
					s.TraceOp(th, OpYield, 0, StatusOK)
				case 1:
					s.TraceOp(th, OpCondTimedWait, obj, StatusBlocked)
					if s.Wait(th, obj, int64(r%5)+1) == WaitTimeout {
						timeouts[i]++
					}
					s.TraceOp(th, OpCondTimedWait, obj, StatusReturn)
				case 2:
					s.TraceOp(th, OpCondSignal, obj, StatusOK)
					s.Signal(th, obj)
				case 3:
					s.TraceOp(th, OpCondBroadcast, obj, StatusOK)
					s.Broadcast(th, obj)
				}
				s.PutTurn(th)
				s.AddWork(th, int64(i%3)+1)
			}
			if i%4 != 3 {
				s.GetTurn(th)
				arrived++
				if arrived == party {
					s.TraceOp(th, OpCondBroadcast, barrier, StatusOK)
					s.Broadcast(th, barrier)
				} else {
					s.TraceOp(th, OpCondWait, barrier, StatusBlocked)
					s.Wait(th, barrier, NoTimeout)
					s.TraceOp(th, OpCondWait, barrier, StatusReturn)
				}
				s.PutTurn(th)
			}
			s.GetTurn(th)
			s.TraceOp(th, OpThreadEnd, 0, StatusOK)
			s.Exit(th)
		}(i, th)
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatalf("handoff stress hung (lost grant?)\n%s", s.Dump())
	}
	// One token per handoff, consumed by the grantee before it can ask again:
	// a token left behind means a grant went to a thread that never parked.
	// Exit asserts that itself before it recycles the channel, so what is left
	// to check here is that every channel did go back.
	for _, th := range ths {
		if th.grant != nil {
			t.Errorf("%v exited without recycling its grant channel", th)
		}
	}
	if live := s.Live(); live != 0 {
		t.Errorf("%d threads still live after the run", live)
	}
	return handoffRun{trace: s.Trace(), timeouts: timeouts}
}

func (a handoffRun) equal(b handoffRun) bool {
	return tracesEqual(a.trace, b.trace) && slices.Equal(a.timeouts, b.timeouts)
}

// TestHandoffStressNeutralAcrossProcs: the stress script yields the same
// schedule on repeated runs and at every GOMAXPROCS the binary is run at,
// leaves no grant token behind, and never hangs.
func TestHandoffStressNeutralAcrossProcs(t *testing.T) {
	for _, cfg := range []Config{
		{Mode: RoundRobin},
		{Mode: RoundRobin, Policies: BoostBlocked},
		{Mode: LogicalClock},
	} {
		for _, n := range []int{2, 4, 64} {
			name := fmt.Sprintf("%v/policies=%v/threads=%d", cfg.Mode, cfg.Policies, n)
			t.Run(name, func(t *testing.T) {
				first := handoffStress(t, cfg, n)
				if len(first.trace) == 0 {
					t.Fatal("empty trace")
				}
				if again := handoffStress(t, cfg, n); !first.equal(again) {
					t.Fatal("schedule differs between two runs at the same GOMAXPROCS")
				}
				if prev, loaded := handoffSeen.LoadOrStore(name, first); loaded && !first.equal(prev.(handoffRun)) {
					t.Fatal("schedule differs from the run at an earlier -cpu value")
				}
			})
		}
	}
}

// TestGrantToUnconsumedTokenPanics: a second token into a thread's grant
// channel can only come from a scheduler bug; it must be loud, not a silently
// dropped grant that hangs the grantee.
func TestGrantToUnconsumedTokenPanics(t *testing.T) {
	s := New(Config{Mode: RoundRobin})
	a, b := s.Register("a"), s.Register("b")
	s.GetTurn(a)
	b.grant <- struct{}{} // the bug: a token nobody accounted for
	b.wantTurn = true
	defer func() {
		if recover() == nil {
			t.Fatal("granting into a full channel did not panic")
		}
	}()
	s.PutTurn(a)
}

// TestExitWithUnconsumedTokenPanics: an exiting thread's grant channel goes
// back to the process-global free list, where a leftover token would become a
// spurious grant in some later thread of any scheduler. Exit must refuse to
// recycle it, as loudly as the full-channel arm of grantLocked.
func TestExitWithUnconsumedTokenPanics(t *testing.T) {
	s := New(Config{Mode: RoundRobin})
	a := s.Register("a")
	s.GetTurn(a)
	a.grant <- struct{}{} // the bug: a token nobody accounted for
	defer func() {
		if recover() == nil {
			t.Fatal("Exit recycled a grant channel that still held a token")
		}
	}()
	s.Exit(a)
}

// TestGrantChannelsRecycled: Register takes its grant channel from the free
// list Exit feeds, and everything on the list is an empty cap-1 channel.
func TestGrantChannelsRecycled(t *testing.T) {
	s := New(Config{Mode: RoundRobin})
	a := s.Register("a")
	g := a.grant
	s.GetTurn(a)
	for len(freeGrants) > 0 { // leave a's channel as the only one to take
		<-freeGrants
	}
	s.Exit(a)
	if b := New(Config{Mode: RoundRobin}).Register("b"); b.grant != g {
		t.Error("a thread registered right after an exit did not get the recycled grant channel")
	}

	handoffStress(t, Config{Mode: RoundRobin}, 64)
	if len(freeGrants) < 64 {
		t.Errorf("free list holds %d channels after 64 threads exited, want >= 64", len(freeGrants))
	}
	for n := len(freeGrants); n > 0; n-- {
		g := <-freeGrants
		if len(g) != 0 || cap(g) != 1 {
			t.Errorf("free list holds a grant channel with len %d cap %d, want 0 and 1", len(g), cap(g))
		}
		freeGrants <- g
	}
}
