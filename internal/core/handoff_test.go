package core

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"qithread/internal/policy"
)

// A turn grant is one flag per handoff (grantLocked). A hosted scheduler
// (host.go) runs its threads on one goroutine; a direct user of this package
// may run each on a goroutine of its own, which waits for its flag on the
// scheduler's condition variable. How a waiter waits must be invisible in
// every schedule observable, whatever the number of Ps the goroutines are
// spread over — `make check` runs this file at -cpu 1,2,4, plain and under
// -race — so every scenario is run both ways against one record.

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
// under the turn, so the run is a pure function of (cfg, n) — hosted, with
// thread 0 driving on one goroutine, or not.
func handoffStress(t *testing.T, cfg Config, n int, hosted bool) handoffRun {
	t.Helper()
	const (
		rounds  = 12
		objs    = 3
		barrier = uint64(100)
	)
	cfg.Record = true
	s := New(cfg)
	if hosted {
		s.HostThreads()
	}
	ths := make([]*Thread, n)
	for i := range ths {
		ths[i] = s.Register(fmt.Sprintf("h%d", i))
	}
	party := n - n/4 // threads with i%4 == 3 exit early
	arrived := 0     // guarded by the turn
	timeouts := make([]int, n)

	script := func(i int, th *Thread) {
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
		if hosted {
			for i, th := range ths[1:] {
				s.StartHosted(th, bodyFunc(func() { script(i+1, th) }))
			}
			script(0, ths[0])
			s.DrainHosted()
			return
		}
		var wg sync.WaitGroup
		for i, th := range ths {
			wg.Add(1)
			go func() {
				defer wg.Done()
				script(i, th)
			}()
		}
		wg.Wait()
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatalf("handoff stress hung (lost grant?)\n%s", s.Dump())
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
// schedule on repeated runs, hosted on one goroutine, and at every GOMAXPROCS
// the binary is run at, leaves no grant token behind, and never hangs.
func TestHandoffStressNeutralAcrossProcs(t *testing.T) {
	for _, cfg := range []Config{
		{Mode: policy.RoundRobin},
		{Mode: policy.RoundRobin, Policies: policy.BoostBlocked},
		{Mode: policy.LogicalClock},
	} {
		for _, n := range []int{2, 4, 64} {
			name := fmt.Sprintf("%v/policies=%v/threads=%d", cfg.Mode, cfg.Policies, n)
			t.Run(name, func(t *testing.T) {
				first := handoffStress(t, cfg, n, false)
				if len(first.trace) == 0 {
					t.Fatal("empty trace")
				}
				if again := handoffStress(t, cfg, n, false); !first.equal(again) {
					t.Fatal("schedule differs between two runs at the same GOMAXPROCS")
				}
				if hosted := handoffStress(t, cfg, n, true); !first.equal(hosted) {
					t.Fatal("schedule differs between the goroutine run and the hosted run")
				}
				if prev, loaded := handoffSeen.LoadOrStore(name, first); loaded && !first.equal(prev.(handoffRun)) {
					t.Fatal("schedule differs from the run at an earlier -cpu value")
				}
			})
		}
	}
}

// TestGrantToUnconsumedTokenPanics: a second grant to a thread whose granted
// flag is still set can only come from a scheduler bug; it must be loud, not
// a silently lost grant.
func TestGrantToUnconsumedTokenPanics(t *testing.T) {
	for _, hosted := range []bool{false, true} {
		s := New(Config{Mode: policy.RoundRobin})
		if hosted {
			s.HostThreads()
		}
		a, b := s.Register("a"), s.Register("b")
		s.GetTurn(a)
		b.granted = true // the bug: a token nobody accounted for
		b.wantTurn = true
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("hosted=%v: granting to a thread that already has a token did not panic", hosted)
				}
			}()
			s.PutTurn(a)
		}()
	}
}

// TestExitWithUnconsumedTokenPanics: a granted flag left set at Exit means a
// grant went to a thread that never waited for it; Exit refuses it as loudly
// as grantLocked refuses a second grant.
func TestExitWithUnconsumedTokenPanics(t *testing.T) {
	for _, hosted := range []bool{false, true} {
		s := New(Config{Mode: policy.RoundRobin})
		if hosted {
			s.HostThreads()
		}
		a := s.Register("a")
		s.GetTurn(a)
		a.granted = true // the bug: a token nobody accounted for
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("hosted=%v: Exit let a thread go that still held a grant token", hosted)
				}
			}()
			s.Exit(a)
		}()
	}
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
	handoffStress(t, Config{Mode: policy.RoundRobin}, workerPoolCap, true)
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
