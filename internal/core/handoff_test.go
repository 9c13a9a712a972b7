package core

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"qithread/internal/policy"
)

// A turn grant is one flag per handoff (grantLocked), consumed by its
// grantee. These tests hold the hosted path (host.go) to that: the same
// schedule on every run and at every GOMAXPROCS `make check` runs the package
// at (-cpu 1,2,4, plain and under -race), no token left behind, and a loud
// panic on a second one. unhosted_test.go runs the same stress script with
// each thread on a goroutine of its own against the hosted record.

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

// runner runs n threads of s, body(i, thread) on each: hostedRun, or
// goroutineRun on an unhosted scheduler.
type runner func(s *Scheduler, n int, body func(i int, th *Thread))

// handoffStress runs n threads through a fixed script mixing every way the
// turn changes hands: Yield (PutTurn handoff), timed Wait cut short by a
// Signal or a Broadcast or left to expire, an untimed Wait released by a
// Broadcast (a barrier), and Exit while the others are still trading turns
// (every fourth thread leaves before the barrier). All decisions are taken
// under the turn, so the run is a pure function of (cfg, n), whichever
// runner runs it.
func handoffStress(t *testing.T, cfg Config, n int, run runner) handoffRun {
	t.Helper()
	const (
		rounds  = 12
		objs    = 3
		barrier = uint64(100)
	)
	cfg.Record = true
	s := New(cfg)
	ths := make([]*Thread, n)
	party := n - n/4 // threads with i%4 == 3 exit early
	arrived := 0     // guarded by the turn
	timeouts := make([]int, n)

	script := func(i int, th *Thread) {
		ths[i] = th
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
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		run(s, n, script)
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal(s.Failure("handoff stress hung (lost grant?)"))
	}
	// One token per handoff, consumed by the grantee before it can ask again:
	// a token left behind means a grant went to a thread that never waited.
	for _, th := range ths {
		if th.granted {
			t.Errorf("%v exited with its granted flag set", th)
		}
	}
	if live := s.live; live != 0 {
		t.Errorf("%d threads still live after the run", live)
	}
	return handoffRun{trace: s.Trace(), timeouts: timeouts}
}

func (a handoffRun) equal(b handoffRun) bool {
	return tracesEqual(a.trace, b.trace) && slices.Equal(a.timeouts, b.timeouts)
}

// TestHandoffStressNeutralAcrossProcs: the stress script yields the same
// schedule on repeated hosted runs, and at every GOMAXPROCS the binary is run
// at, leaves no grant token behind, and never hangs.
func TestHandoffStressNeutralAcrossProcs(t *testing.T) {
	for _, cfg := range handoffConfigs {
		for _, n := range []int{2, 4, 64} {
			name := fmt.Sprintf("%v/policies=%v/threads=%d", cfg.Mode, cfg.Policies, n)
			t.Run(name, func(t *testing.T) {
				first := handoffStress(t, cfg, n, hostedRun)
				if len(first.trace) == 0 {
					t.Fatal("empty trace")
				}
				if again := handoffStress(t, cfg, n, hostedRun); !first.equal(again) {
					t.Fatal("schedule differs between two runs at the same GOMAXPROCS")
				}
				if prev, loaded := handoffSeen.LoadOrStore(name, first); loaded && !first.equal(prev.(handoffRun)) {
					t.Fatal("schedule differs from the run at an earlier -cpu value")
				}
			})
		}
	}
}

// handoffConfigs are the base policies and policy sets the stress script
// runs under.
var handoffConfigs = []Config{
	{Mode: policy.RoundRobin},
	{Mode: policy.RoundRobin, Policies: policy.BoostBlocked},
	{Mode: policy.LogicalClock},
}

// TestGrantToUnconsumedTokenPanics: a second grant to a thread whose granted
// flag is still set can only come from a scheduler bug; it must be loud, not
// a silently lost grant.
func TestGrantToUnconsumedTokenPanics(t *testing.T) {
	s := New(Config{Mode: policy.RoundRobin})
	s.HostThreads()
	a, b := s.Register("a"), s.Register("b")
	s.GetTurn(a)
	b.granted = true // the bug: a token nobody accounted for
	b.wantTurn = true
	defer func() {
		if recover() == nil {
			t.Fatal("granting to a thread that already has a token did not panic")
		}
	}()
	s.PutTurn(a)
}

// TestExitWithUnconsumedTokenPanics: a granted flag left set at Exit means a
// grant went to a thread that never waited for it; Exit refuses it as loudly
// as grantLocked refuses a second grant.
func TestExitWithUnconsumedTokenPanics(t *testing.T) {
	s := New(Config{Mode: policy.RoundRobin})
	s.HostThreads()
	a := s.Register("a")
	s.GetTurn(a)
	a.granted = true // the bug: a token nobody accounted for
	defer func() {
		if recover() == nil {
			t.Fatal("Exit let a thread go that still held a grant token")
		}
	}()
	s.Exit(a)
}

// TestHostRecordsRecycled: what a hosted run recycles is one coroutine per
// thread but the driver, each idle — no body — on the list, and the host
// record, emptied.
func TestHostRecordsRecycled(t *testing.T) {
	for len(freeWorkers) > 0 {
		(<-freeWorkers).stop()
	}
	for len(freeHosts) > 0 {
		<-freeHosts
	}
	handoffStress(t, Config{Mode: policy.RoundRobin}, workerPoolCap, hostedRun)
	if n := len(freeWorkers); n != workerPoolCap-1 {
		t.Errorf("free list holds %d coroutines after a hosted run of %d threads, want %d", n, workerPoolCap, workerPoolCap-1)
	}
	for n := len(freeWorkers); n > 0; n-- {
		w := <-freeWorkers
		if w.body != nil {
			t.Error("free list holds a coroutine that still has a body")
		}
		freeWorkers <- w
	}
	if len(freeHosts) != 1 {
		t.Fatalf("free list holds %d host records after one hosted run, want 1", len(freeHosts))
	}
	rec := <-freeHosts
	if len(rec.workers) != 0 || len(rec.fresh) != 0 || rec.next != 0 || rec.active != 0 || len(rec.aside) != 0 || rec.popped != nil || rec.idle != 0 {
		t.Errorf("recycled host record is not empty: %+v", *rec)
	}
	freeHosts <- rec
}

// bodyFunc is a function as a hosted thread's Body.
type bodyFunc func()

func (f bodyFunc) Run() { f() }
