package core

import (
	"reflect"
	"testing"

	"qithread/internal/policy"
)

// TestSameDeadlineFIFOExpiry parks three threads with timeouts chosen so all
// three share the exact same logical deadline. The deadline heap breaks the
// tie by wait sequence, so expiry must release them in the order they parked
// — the same order the old linear waitQ scan produced.
func TestSameDeadlineFIFOExpiry(t *testing.T) {
	s := New(Config{Mode: policy.RoundRobin})
	const target = int64(50) // common deadline, far past every park turn
	var order []int
	hostedRun(s, 3, func(i int, th *Thread) {
		s.GetTurn(th)
		// Wait advances the turn by one before stamping the deadline, so
		// parking at turn T with timeout target-T-1 lands exactly on target.
		timeout := target - s.TurnCount() - 1
		if timeout <= 0 {
			t.Errorf("thread %d: turn already past target", i)
		}
		st := s.Wait(th, uint64(200+i), timeout)
		if st != WaitTimeout {
			t.Errorf("thread %d: status %v, want timeout", i, st)
		}
		order = append(order, i)
		s.PutTurn(th)
		s.GetTurn(th)
		s.Exit(th)
	})
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("same-deadline expiry order %v, want FIFO [0 1 2]", order)
	}
}

// timedMixWorkload is a three-thread schedule exercising both wake-up paths:
// t0 times out (nobody signals its object), t1 is signaled before its
// generous timeout fires, and t2 drives the turns and sends the signal. Every
// operation is traced so the schedule can be recorded and replayed.
func timedMixWorkload(t *testing.T, s *Scheduler) {
	hostedRun(s, 3, func(i int, th *Thread) {
		switch i {
		case 0:
			s.GetTurn(th)
			s.TraceOp(th, OpCondTimedWait, 1, StatusBlocked)
			if st := s.Wait(th, 1, 5); st != WaitTimeout {
				t.Errorf("t0: status %v, want timeout", st)
			}
			s.TraceOp(th, OpCondTimedWait, 1, StatusReturn)
			s.PutTurn(th)
		case 1:
			s.GetTurn(th)
			s.TraceOp(th, OpCondTimedWait, 2, StatusBlocked)
			if st := s.Wait(th, 2, 1000); st != WaitSignaled {
				t.Errorf("t1: status %v, want signaled", st)
			}
			s.TraceOp(th, OpCondTimedWait, 2, StatusReturn)
			s.PutTurn(th)
		case 2:
			for r := 0; r < 4; r++ { // let both waiters park
				s.GetTurn(th)
				s.TraceOp(th, OpYield, 0, StatusOK)
				s.PutTurn(th)
			}
			s.GetTurn(th)
			s.Signal(th, 2)
			s.TraceOp(th, OpCondSignal, 2, StatusOK)
			s.PutTurn(th)
		}
		s.GetTurn(th)
		s.TraceOp(th, OpThreadEnd, 0, StatusOK)
		s.Exit(th)
	})
}

// TestReplayMixedTimeouts records an execution that mixes signaled and
// timed-out waiters, replays it, and requires the replayed trace to be
// identical — timeouts are logical, so the deadline heap must reproduce the
// recorded expiry turns exactly.
func TestReplayMixedTimeouts(t *testing.T) {
	rec := New(Config{Mode: policy.RoundRobin, Record: true})
	timedMixWorkload(t, rec)
	trace := rec.Trace()
	if len(trace) == 0 {
		t.Fatal("recording produced no events")
	}

	rep := New(Config{Mode: policy.RoundRobin, Record: true})
	rep.SetReplay(trace)
	timedMixWorkload(t, rep)
	if got := rep.ReplayPos(); got != len(trace) {
		t.Fatalf("replay consumed %d of %d recorded ops", got, len(trace))
	}
	if !reflect.DeepEqual(rep.Trace(), trace) {
		t.Fatalf("replayed trace differs from recording:\nrecorded: %v\nreplayed: %v", trace, rep.Trace())
	}
}

// TestIdleSleepJumpReplay checks the idle fast-forward: a lone thread doing a
// long logical sleep must make the scheduler jump straight to the heap-top
// deadline rather than spin, and a replay of that execution must land on the
// same turn count.
func TestIdleSleepJumpReplay(t *testing.T) {
	run := func(s *Scheduler) {
		hostedRun(s, 1, func(i int, th *Thread) {
			s.GetTurn(th)
			s.TraceOp(th, OpSleep, 0, StatusBlocked)
			if st := s.Wait(th, 9, 1000); st != WaitTimeout {
				t.Errorf("status %v, want timeout", st)
			}
			s.TraceOp(th, OpSleep, 0, StatusReturn)
			s.PutTurn(th)
			s.GetTurn(th)
			s.TraceOp(th, OpThreadEnd, 0, StatusOK)
			s.Exit(th)
		})
	}

	rec := New(Config{Mode: policy.RoundRobin, Record: true})
	run(rec)
	if got := rec.TurnCount(); got < 1000 {
		t.Fatalf("turn count %d after 1000-turn sleep, want >= 1000 (idle jump)", got)
	}
	trace := rec.Trace()

	rep := New(Config{Mode: policy.RoundRobin, Record: true})
	rep.SetReplay(trace)
	run(rep)
	if got := rep.ReplayPos(); got != len(trace) {
		t.Fatalf("replay consumed %d of %d recorded ops", got, len(trace))
	}
	if rep.TurnCount() != rec.TurnCount() {
		t.Fatalf("replay turn count %d, recording %d", rep.TurnCount(), rec.TurnCount())
	}
	if !reflect.DeepEqual(rep.Trace(), trace) {
		t.Fatalf("replayed trace differs from recording")
	}
}
