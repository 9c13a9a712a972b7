package core

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"qithread/internal/policy"
)

// The hosted path's schedule neutrality is TestHandoffStressNeutralAcrossProcs
// and its recycling TestHostRecordsRecycled (handoff_test.go); what is here
// is how a hosted run ends when it does not end well, and the FIFO outside
// the turn.

// hostedRun is how a test of this package runs threads: it makes s hosted,
// registers n threads and runs body(i, thread) for each, thread 0 on the
// calling goroutine — before any other — and the rest as its coroutines.
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
	s := New(Config{Mode: policy.RoundRobin})
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
// deterministic deadlock from its driver, which finds nothing to resume; a
// handler that freezes the driver freezes the run, one that returns leaves the
// driver parked. The report, like Dump, names the policy stack by its
// descriptor.
func TestHostedDeadlock(t *testing.T) {
	const stack = "stack=round-robin|BoostBlocked>CreateAll>CSWhole>WakeAMAP>BranchedWake\n"
	for _, freeze := range []bool{true, false} {
		s := New(Config{Mode: policy.RoundRobin, Policies: policy.AllPolicies})
		if dump := s.Dump(); !strings.Contains(dump, stack) {
			t.Fatalf("Dump() lacks %q:\n%s", stack, dump)
		}
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
		if msg := <-deadlock; !strings.HasPrefix(msg, "core: deterministic deadlock in domain 0: all threads blocked without timeout\n") || !strings.Contains(msg, stack) {
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
	s := New(Config{Mode: policy.RoundRobin})
	s.Register("early")
	defer func() {
		if recover() == nil {
			t.Fatal("HostThreads after Register did not panic")
		}
	}()
	s.HostThreads()
}

// offLock is a lock taken outside the turn, the way the root package's PCS
// mutex is: a retry loop around YieldOffTurn, and a virtual-clock tick on
// every acquisition and release (the FIFO outside the turn's progress witness).
type offLock struct{ owner *Thread }

func (l *offLock) lock(s *Scheduler, th *Thread) {
	for l.owner != nil {
		s.YieldOffTurn(th)
	}
	l.owner = th
	th.AddVTime(1)
}

func (l *offLock) unlock(th *Thread) {
	l.owner = nil
	th.AddVTime(1)
}

// TestHostedOffTurn: a thread that finds its lock taken leaves the turn to
// others and is retried only when nothing fresh and no granted holder can
// run, and it gets the lock once the holder, parked inside its section and
// woken ahead of it (BoostBlocked), has let go.
func TestHostedOffTurn(t *testing.T) {
	s := New(Config{Mode: policy.RoundRobin, Policies: policy.BoostBlocked})
	s.HostThreads()
	var l offLock
	var log []string
	d, h := s.Register("d"), s.Register("h")
	s.StartHosted(h, bodyFunc(func() {
		l.lock(s, h)
		log = append(log, "h locks")
		s.GetTurn(h)
		s.Wait(h, 1, NoTimeout)
		s.PutTurn(h)
		log = append(log, "h unlocks")
		l.unlock(h)
		s.GetTurn(h)
		s.Exit(h)
	}))
	s.GetTurn(d)
	s.PutTurn(d) // h runs, locks and parks
	s.GetTurn(d)
	c := s.Register("c")
	s.StartHosted(c, bodyFunc(func() {
		log = append(log, "c tries")
		l.lock(s, c)
		log = append(log, "c locks")
		l.unlock(c)
		s.GetTurn(c)
		s.Exit(c)
	}))
	s.Signal(d, 1)
	s.PutTurn(d) // h, woken, is granted the turn; c is fresh
	s.GetTurn(d)
	s.Exit(d)
	s.DrainHosted()
	want := []string{"h locks", "c tries", "h unlocks", "c locks"}
	if !slices.Equal(log, want) {
		t.Fatalf("log %q, want %q", log, want)
	}
}

// TestHostedOffTurnDeadlock: threads outside the turn that wait for a lock
// whose holder is parked for good are a deadlock the driver reports, with
// the FIFO outside the turn in the message — whether the one spinning is a
// coroutine or the driver itself — instead of retrying forever.
func TestHostedOffTurnDeadlock(t *testing.T) {
	for _, spinner := range []string{"T2(c)]", "T0(d)]"} {
		s := New(Config{Mode: policy.RoundRobin})
		deadlock := make(chan string, 1)
		s.SetDeadlockHandler(func(msg string) { deadlock <- msg })
		go func() { // leaks, parked, by design
			s.HostThreads()
			var l offLock
			d, h := s.Register("d"), s.Register("h")
			s.StartHosted(h, bodyFunc(func() {
				l.lock(s, h)
				s.GetTurn(h)
				s.Wait(h, 1, NoTimeout) // nobody will ever signal
			}))
			if spinner == "T0(d)]" {
				s.GetTurn(d)
				s.PutTurn(d)
				s.GetTurn(d) // h runs, locks and parks
				l.lock(s, d)
				return
			}
			c := s.Register("c")
			s.StartHosted(c, bodyFunc(func() { l.lock(s, c) }))
			s.GetTurn(d)
			s.Exit(d)
			s.DrainHosted()
		}()
		select {
		case msg := <-deadlock:
			if !strings.Contains(msg, "deterministic deadlock") || !strings.Contains(msg, "offTurn: ["+spinner) {
				t.Fatalf("%s spinning: handler got %q", spinner, msg)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s spinning: an off-turn deadlock was never reported", spinner)
		}
	}
}

// jobFunc is a function as a Job: the driver calls it when it takes the
// computing thread's entry off the FIFO outside the turn.
type jobFunc func()

func (f jobFunc) Join() { f() }

// TestAsideResumesInYieldOrder: a computation and a lock retry wait in one
// FIFO outside the turn and come off it in the order they yielded. c takes
// the lock and offloads a computation, then r finds the lock taken and
// yields behind it: c's entry comes off first, c lets the lock go, and r's
// first retry takes it. Taking every retry before any computation would
// spend a fruitless retry of r first.
func TestAsideResumesInYieldOrder(t *testing.T) {
	s := New(Config{Mode: policy.RoundRobin})
	s.HostThreads()
	var l offLock
	var log []string
	d, c, r := s.Register("d"), s.Register("c"), s.Register("r")
	s.StartHosted(c, bodyFunc(func() {
		l.lock(s, c)
		s.YieldComputing(c, jobFunc(func() { log = append(log, "c joined") }))
		l.unlock(c)
		s.GetTurn(c)
		s.Exit(c)
	}))
	s.StartHosted(r, bodyFunc(func() {
		for l.owner != nil {
			log = append(log, "r tries")
			s.YieldOffTurn(r)
		}
		l.lock(s, r)
		log = append(log, "r locks")
		l.unlock(r)
		s.GetTurn(r)
		s.Exit(r)
	}))
	s.GetTurn(d)
	s.PutTurn(d) // c is next and has never run: the turn stays free for it
	s.GetTurn(d)
	s.Exit(d)
	s.DrainHosted()
	want := []string{"r tries", "c joined", "r locks"}
	if !slices.Equal(log, want) {
		t.Fatalf("log %q, want %q", log, want)
	}
}

// TestAsideStuckOnlyOnRetries: the driver declares its domain stuck once as
// many retries in a row as the FIFO outside the turn holds came straight
// back, never while a computation waits in it. k spinners queue on a lock h
// holds, h steps aside behind them, and each retries once in vain before h,
// taken off, offloads a computation: it queues behind the spinners, each
// retries in vain again, and only then is the computation joined, which
// frees the lock — k fruitless retries after k fruitless retries, at no
// point the report. With the holder waiting for a turn nobody will give up
// instead, the k-th fruitless retry is the deadlock report.
func TestAsideStuckOnlyOnRetries(t *testing.T) {
	spin := func(s *Scheduler, l *offLock, th *Thread, fruitless *int) {
		for l.owner != nil {
			s.YieldOffTurn(th)
			if l.owner != nil {
				*fruitless++
			}
		}
		l.lock(s, th)
		l.unlock(th)
		s.GetTurn(th)
		s.Exit(th)
	}
	for k := 1; k <= 5; k++ {
		s := New(Config{Mode: policy.RoundRobin}) // no handler: a report panics out of the run
		s.HostThreads()
		var l offLock
		fruitless := 0
		d := s.Register("d")
		for range k {
			th := s.Register("s")
			s.StartHosted(th, bodyFunc(func() { spin(s, &l, th, &fruitless) }))
		}
		h := s.Register("h")
		l.owner = h
		s.StartHosted(h, bodyFunc(func() {
			s.YieldOffTurn(h)
			s.YieldComputing(h, jobFunc(func() {}))
			l.unlock(h)
			s.GetTurn(h)
			s.Exit(h)
		}))
		s.GetTurn(d)
		s.PutTurn(d)
		s.GetTurn(d)
		s.Exit(d)
		s.DrainHosted()
		if fruitless != 2*k {
			t.Errorf("%d spinners: %d fruitless retries before the computation was joined, want %d", k, fruitless, 2*k)
		}
	}
	for k := 1; k <= 5; k++ {
		s := New(Config{Mode: policy.RoundRobin})
		type report struct {
			fruitless int
			msg       string
		}
		reported := make(chan report, 1)
		fruitless := 0
		s.SetDeadlockHandler(func(msg string) { reported <- report{fruitless, msg} })
		go func() { // leaks, parked, by design
			s.HostThreads()
			var l offLock
			d := s.Register("d")
			for range k {
				th := s.Register("s")
				s.StartHosted(th, bodyFunc(func() { spin(s, &l, th, &fruitless) }))
			}
			l.lock(s, d)
			s.GetTurn(d)
			s.PutTurn(d)
			s.GetTurn(d) // the first spinner is next and never asks
		}()
		queue := make([]string, k)
		for i := range queue {
			queue[i] = fmt.Sprintf("T%d(s)", i+1)
		}
		want := "offTurn: [" + strings.Join(queue, " ") + "]"
		select {
		case r := <-reported:
			if r.fruitless != k || !strings.Contains(r.msg, want) {
				t.Errorf("%d spinners: reported after %d fruitless retries, want %d and %s; report %q", k, r.fruitless, k, want, r.msg)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%d spinners on a lock nobody can release were never reported", k)
		}
	}
}
