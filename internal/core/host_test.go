package core

import (
	"strings"
	"testing"
	"time"
)

// The hosted path's schedule neutrality is TestHandoffStressNeutralAcrossProcs
// and its recycling TestGrantChannelsRecycled (handoff_test.go); what is here
// is how a hosted run ends when it does not end well.

// hostedRun registers n threads on a hosted scheduler and runs body(i, thread)
// for each: thread 0 on the calling goroutine, the rest as its coroutines.
func hostedRun(s *Scheduler, n int, body func(i int, th *Thread)) {
	s.HostThreads()
	ths := make([]*Thread, n)
	for i := range ths {
		ths[i] = s.Register("t")
	}
	for i, th := range ths[1:] {
		s.StartHosted(th, bodyFunc(func() { body(i+1, th) }))
	}
	body(0, ths[0])
	s.DrainHosted()
}

// TestHostedBodyPanicReachesDriver: a panic in a hosted thread's body unwinds
// the goroutine that is waiting for a turn on its behalf — the driver — with
// the same value, and the coroutine it killed is not offered for reuse.
func TestHostedBodyPanicReachesDriver(t *testing.T) {
	for len(freeWorkers) > 0 {
		(<-freeWorkers).stop()
	}
	s := New(Config{Mode: RoundRobin})
	var got any
	func() {
		defer func() { got = recover() }()
		hostedRun(s, 2, func(i int, th *Thread) {
			if i == 1 {
				panic("boom in a body")
			}
			s.GetTurn(th)
			s.Wait(th, 7, NoTimeout) // the driver blocks; only then does t1 start
			t.Error("the driver's Wait returned")
		})
	}()
	if got != "boom in a body" {
		t.Fatalf("driver recovered %v, want the body's panic value", got)
	}
	if n := len(freeWorkers); n != 0 {
		t.Fatalf("%d coroutines on the free list after a body panicked, want 0", n)
	}
}

// TestHostedDeadlock: a hosted run whose threads all block reports the
// deterministic deadlock like any other; a handler that freezes the reporting
// thread freezes the run, one that returns leaves the driver parked.
func TestHostedDeadlock(t *testing.T) {
	for _, freeze := range []bool{true, false} {
		s := New(Config{Mode: RoundRobin})
		deadlock := make(chan string, 1)
		s.SetDeadlockHandler(func(msg string) {
			deadlock <- msg
			if freeze {
				select {}
			}
		})
		returned := make(chan struct{})
		go func() { // leaks, parked, by design
			hostedRun(s, 3, func(i int, th *Thread) {
				s.GetTurn(th)
				s.Wait(th, uint64(10+i), NoTimeout) // nobody will ever signal
			})
			close(returned)
		}()
		if msg := <-deadlock; !strings.Contains(msg, "deterministic deadlock") {
			t.Fatalf("freeze=%v: handler got %q", freeze, msg)
		}
		select {
		case <-returned:
			t.Fatalf("freeze=%v: a deadlocked hosted run returned", freeze)
		case <-time.After(20 * time.Millisecond):
		}
	}
}

// TestHostedAfterRegisterPanics: hosting is decided before the first
// thread exists; a scheduler cannot change paths under its threads.
func TestHostedAfterRegisterPanics(t *testing.T) {
	s := New(Config{Mode: RoundRobin})
	s.Register("early")
	defer func() {
		if recover() == nil {
			t.Fatal("HostThreads after Register did not panic")
		}
	}()
	s.HostThreads()
}
