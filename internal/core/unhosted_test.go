package core

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"qithread/internal/policy"
)

// The unhosted mode: a scheduler that was never HostThreads'd serves threads
// that bring goroutines of their own. Entering it takes mu, and a thread
// waiting for the turn sleeps on granted, for good if nobody can grant it: the
// mode detects no deadlock. The runtime hosts every
// deterministic domain, so the mode's one user is benchmark/probes.go, whose
// probeTurn and probeWaitSignal drive a bare scheduler; TestUnhostedProbeTurn
// and TestUnhostedWaitSignal make exactly their calls. Every other test of
// this package and of internal/ckpt runs hosted, through hostedRun or
// HostThreads (TestInventory in the root package holds that), and this file
// is the only one that starts an unhosted scheduler's threads.

// goroutineRun is the unhosted runner: it registers n threads on s, which is
// not hosted, runs body(i, thread) for each on a goroutine of its own and
// returns once every body has.
func goroutineRun(s *Scheduler, n int, body func(i int, th *Thread)) {
	ths := make([]*Thread, n)
	for i := range ths {
		ths[i] = s.Register("t")
	}
	var wg sync.WaitGroup
	for i, th := range ths {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body(i, th)
		}()
	}
	wg.Wait()
}

// TestUnhostedHandoffMatchesHosted: how a thread waits for its grant is
// invisible in every schedule observable. The stress script of
// handoff_test.go on goroutines of their own, spread over every GOMAXPROCS
// the package is run at, records what the hosted run records.
func TestUnhostedHandoffMatchesHosted(t *testing.T) {
	for _, cfg := range handoffConfigs {
		for _, n := range []int{2, 4, 64} {
			t.Run(fmt.Sprintf("%v/policies=%v/threads=%d", cfg.Mode, cfg.Policies, n), func(t *testing.T) {
				if !handoffStress(t, cfg, n, goroutineRun).equal(handoffStress(t, cfg, n, hostedRun)) {
					t.Fatal("schedule differs between the goroutine run and the hosted run")
				}
			})
		}
	}
}

// TestUnhostedUnconsumedTokenPanics: an unhosted scheduler refuses a second
// grant token and an exit with one left unconsumed as loudly as a hosted one
// (TestGrantToUnconsumedTokenPanics, TestExitWithUnconsumedTokenPanics).
func TestUnhostedUnconsumedTokenPanics(t *testing.T) {
	for _, c := range []struct {
		what string
		bug  func(s *Scheduler, a, b *Thread)
	}{
		{"granting to a thread that already has a token", func(s *Scheduler, a, b *Thread) {
			b.granted, b.wantTurn = true, true
			s.PutTurn(a)
		}},
		{"Exit of a thread that still holds a grant token", func(s *Scheduler, a, _ *Thread) {
			a.granted = true
			s.Exit(a)
		}},
	} {
		s := New(Config{Mode: policy.RoundRobin})
		a, b := s.Register("a"), s.Register("b")
		s.GetTurn(a)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", c.what)
				}
			}()
			c.bug(s, a, b)
		}()
	}
}

// TestHostedSchedulerTakesNoLock: a hosted scheduler is its driver's goroutine
// alone, so no primitive takes the entry lock an unhosted one needs. With mu
// held by the test throughout, a three-thread hosted script that touches
// every primitive — leased and unleased releases, a signal, a broadcast and a
// timed-wait expiry, recording, LogicalClock work — must still finish.
func TestHostedSchedulerTakesNoLock(t *testing.T) {
	s := New(Config{Mode: policy.LogicalClock, Record: true})
	s.mu.Lock()
	defer s.mu.Unlock()
	done := make(chan Snapshot, 1)
	go func() {
		s.HostThreads()
		d := s.Register("d")
		cv := s.NewObject("cv")
		for i := 0; i < 3; i++ { // solo: every release keeps the turn
			s.GetTurn(d)
			s.TraceOp(d, OpYield, 0, StatusOK)
			s.PutTurn(d)
		}
		s.GetTurn(d)
		a, b := s.Register("a"), s.Register("b") // d is no longer solo
		ready := false                           // guarded by the turn
		s.StartHosted(a, bodyFunc(func() {
			s.GetTurn(a)
			for !ready {
				s.TraceOp(a, OpCondWait, cv, StatusBlocked)
				s.Wait(a, cv, NoTimeout)
			}
			s.TraceOp(a, OpCondWait, cv, StatusReturn)
			s.PutTurn(a)
			s.AddWork(a, 100)
			s.GetTurn(a)
			s.Exit(a)
		}))
		s.StartHosted(b, bodyFunc(func() {
			s.GetTurn(b)
			s.TraceOp(b, OpSleep, 0, StatusBlocked)
			if s.Wait(b, 0, 1) != WaitTimeout {
				t.Error("b's timed wait was not expired")
			}
			s.PutTurn(b)
			s.GetTurn(b)
			s.Exit(b)
		}))
		s.PutTurn(d) // a parks on cv, b on its timeout
		s.GetTurn(d)
		ready = true
		s.TraceOp(d, OpCondSignal, cv, StatusOK)
		s.Signal(d, cv)
		s.TraceOp(d, OpCondBroadcast, cv, StatusOK)
		s.Broadcast(d, cv)
		s.PutTurn(d)
		s.GetTurn(d)
		st := s.Stats()
		s.Exit(d)
		s.DrainHosted()
		done <- st
	}()
	select {
	case st := <-done:
		if st.LeaseExtends != 3 || st.WokenBySignal != 1 || st.WokenByTimeout != 1 || st.Ops == 0 {
			t.Errorf("the script did not take every path: %+v", st)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a hosted scheduler waited for its entry lock")
	}
}

// TestTurnExclusive: at most one of an unhosted scheduler's goroutines holds
// the turn at any moment. (On a hosted scheduler one goroutine runs them all.)
func TestTurnExclusive(t *testing.T) {
	s := New(Config{Mode: policy.RoundRobin})
	var inTurn, max, count int
	var mu sync.Mutex
	goroutineRun(s, 8, func(i int, th *Thread) {
		for r := 0; r < 50; r++ {
			s.GetTurn(th)
			mu.Lock()
			inTurn++
			if inTurn > max {
				max = inTurn
			}
			count++
			mu.Unlock()
			mu.Lock()
			inTurn--
			mu.Unlock()
			s.PutTurn(th)
		}
		s.GetTurn(th)
		s.Exit(th)
	})
	if max != 1 {
		t.Fatalf("turn held by %d threads simultaneously", max)
	}
	if count != 8*50 {
		t.Fatalf("count = %d, want %d", count, 8*50)
	}
}

// countSink counts the events streamed to it.
type countSink int

func (c *countSink) Append(Event) error {
	*c++
	return nil
}

// TestUnhostedProbeTurn makes the calls of probeTurn: a solo thread's
// GetTurn/PutTurn pairs on the calling goroutine, with a TraceOp in each when
// traceOp is set, then its exit, in each configuration the benchmark times it
// under — leased, NoLease, and recording into a Sink.
func TestUnhostedProbeTurn(t *testing.T) {
	const n = 100
	var sunk countSink
	for _, c := range []struct {
		cfg          Config
		traceOp      bool
		extends, ops int64
	}{
		{Config{}, false, n, 0},
		{Config{NoLease: true}, false, 0, 0},
		{Config{}, true, n, n},
		{Config{Record: true, Sink: &sunk}, true, n, n},
	} {
		s := New(c.cfg)
		th := s.Register("solo")
		for i := 0; i < n; i++ {
			s.GetTurn(th)
			if c.traceOp {
				s.TraceOp(th, OpYield, 0, StatusOK)
			}
			s.PutTurn(th)
		}
		s.GetTurn(th)
		s.Exit(th)
		if st := s.Stats(); st.LeaseExtends != c.extends || st.Ops != c.ops || st.Turns != n+1 || s.live != 0 {
			t.Errorf("%+v, traceOp %v: %+v, %d live; want %d lease extensions, %d ops, %d turns",
				c.cfg, c.traceOp, st, s.live, c.extends, c.ops, n+1)
		}
	}
	if sunk != n {
		t.Errorf("the sink received %d events, want %d", sunk, n)
	}
}

// TestUnhostedWaitSignal makes the calls of probeWaitSignal: two threads on
// goroutines of their own pass a ball, each signalling the peer and waiting,
// untimed, for it to come back. The counters are the hosted run's but for
// Handoffs, which counts grants whose grantee was already parked: timing, on
// goroutines.
func TestUnhostedWaitSignal(t *testing.T) {
	const rounds = 500
	pingPong := func(run runner) Snapshot {
		s := New(Config{})
		objs := [2]uint64{s.NewObject("a"), s.NewObject("b")}
		ball := 0 // guarded by the turn
		run(s, 2, func(me int, th *Thread) {
			peer := 1 - me
			s.GetTurn(th)
			for r := 0; r < rounds; r++ {
				for ball != me {
					s.Wait(th, objs[me], NoTimeout)
				}
				ball = peer
				s.Signal(th, objs[peer])
			}
			s.Exit(th)
		})
		st := s.Stats()
		st.Handoffs = 0
		if s.live != 0 {
			t.Errorf("%d threads live after the ping-pong", s.live)
		}
		return st
	}
	unhosted, hosted := pingPong(goroutineRun), pingPong(hostedRun)
	if unhosted.Signals != 2*rounds || unhosted.Waits == 0 || unhosted.WokenBySignal != unhosted.Waits {
		t.Errorf("unhosted ping-pong: %v", unhosted)
	}
	if !reflect.DeepEqual(unhosted, hosted) {
		t.Errorf("unhosted ping-pong counted\n  %#v\nhosted\n  %#v", unhosted, hosted)
	}
}
