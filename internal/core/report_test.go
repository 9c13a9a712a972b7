package core

import (
	"strings"
	"testing"

	"qithread/internal/policy"
)

// TestFlightRecorder: a hosted domain's report ends with its last ringLen
// operations, oldest first — a longer run's oldest are gone —, a run on a
// recycled host record shows only its own, a broken contract's panic carries
// them like a deadlock does, and an unhosted scheduler, which has no flight
// recorder, reports its state alone.
func TestFlightRecorder(t *testing.T) {
	yields := func(n int) (report string) {
		s := New(Config{Mode: policy.RoundRobin})
		hostedRun(s, 1, func(_ int, th *Thread) {
			s.GetTurn(th)
			for range n {
				s.TraceOp(th, OpYield, 0, StatusOK)
				s.PutTurn(th) // the solo lease: the turn is kept
			}
			report = s.Failure("after %d yields", n)
			s.Exit(th)
		})
		return report
	}
	long := yields(20)
	if want := "after 20 yields\n  turn=20 holder=T0(t) stack=round-robin\n  runQ: T0(t)\n  wakeQ: (empty)\n" +
		"  last 16 of 20 ops, oldest first:\n    turn=4 T0 yield (kept)\n"; !strings.HasPrefix(long, want) ||
		!strings.HasSuffix(long, "    turn=19 T0 yield (kept)\n") || strings.Count(long, "\n    turn=") != ringLen {
		t.Errorf("20 yields reported\n%s\nwant it to start\n%sand end with op 19", long, want)
	}
	if got, want := yields(1), "  last 1 of 1 ops, oldest first:\n    turn=0 T0 yield (run-queue grant)\n"; !strings.HasSuffix(got, want) {
		t.Errorf("one yield on a recycled host record reported\n%s\nwant it to end\n%s", got, want)
	}

	s := New(Config{Mode: policy.RoundRobin})
	var got any
	func() {
		defer func() { got = recover() }()
		hostedRun(s, 2, func(i int, th *Thread) {
			if i == 1 {
				s.PutTurn(th) // T0 waits: nobody holds the turn
			}
			s.GetTurn(th)
			s.TraceOp(th, OpYield, 0, StatusOK)
			s.Wait(th, 7, NoTimeout)
		})
	}()
	if msg, _ := got.(string); msg != "core: PutTurn by T1(t) which does not hold the turn (holder=<nil>)\n"+
		"  turn=1 holder=<nil> stack=round-robin\n  runQ: T1(t)\n  wakeQ: (empty)\n  waitQ[#7]: T0(t)\n"+
		"  last 1 of 1 ops, oldest first:\n    turn=0 T0 yield (run-queue grant)\n" {
		t.Errorf("a PutTurn outside the turn panicked with\n%v", got)
	}

	if got := New(Config{Mode: policy.RoundRobin}).Failure("unhosted"); got != "unhosted\n  turn=0 holder=<nil> stack=round-robin\n  runQ: (empty)\n  wakeQ: (empty)\n" {
		t.Errorf("an unhosted scheduler reported\n%s", got)
	}
}
