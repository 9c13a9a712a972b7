package core

import (
	"testing"
	"testing/quick"

	"qithread/internal/policy"
)

// The solo lease (PutTurn's soloLocked branch, see sched.go) must be
// invisible in every determinism observable: same traces, same turn counts,
// same schedules under record and replay. These tests pin when it applies
// and the trace-neutrality claim; the model test (model_test.go) checks the
// leased scheduler against a lease-free Table 1 model after every operation.

// soloLoop runs one registered thread through n yield turns and an exit, the
// canonical leaseable workload, and returns the scheduler for inspection.
func soloLoop(cfg Config, n int) *Scheduler {
	s := New(cfg)
	th := s.Register("solo")
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < n; i++ {
			s.GetTurn(th)
			s.TraceOp(th, OpYield, 0, StatusOK)
			s.PutTurn(th)
		}
		s.GetTurn(th)
		s.TraceOp(th, OpThreadEnd, 0, StatusOK)
		s.Exit(th)
	}()
	<-done
	return s
}

// TestLeaseSoloThread: every release of a solo thread keeps the turn, and
// the turn count is identical to the unleased baseline (one turn per
// release).
func TestLeaseSoloThread(t *testing.T) {
	const n = 10
	st := soloLoop(Config{Mode: policy.RoundRobin}, n).Stats()
	if st.LeaseExtends != n {
		t.Fatalf("LeaseExtends = %d, want %d (every release of a solo thread)", st.LeaseExtends, n)
	}
	if want := int64(n + 1); st.Turns != want {
		t.Fatalf("Turns = %d, want %d (leasing must not change logical time)", st.Turns, want)
	}
}

// TestLeaseDisabled: NoLease turns the lease off — every release takes the
// queue-and-handoff path.
func TestLeaseDisabled(t *testing.T) {
	st := soloLoop(Config{Mode: policy.RoundRobin, NoLease: true}, 10).Stats()
	if st.LeaseExtends != 0 {
		t.Fatalf("NoLease run kept the turn %d times", st.LeaseExtends)
	}
	if st.Turns != 11 {
		t.Fatalf("Turns = %d, want 11", st.Turns)
	}
}

// TestLeaseRevokedOnRegister: a thread registered during a solo stretch ends
// it, so the holder's next release hands off and the newcomer runs. A lease
// that outlived the registration would never schedule the child.
func TestLeaseRevokedOnRegister(t *testing.T) {
	s := New(Config{Mode: policy.RoundRobin})
	a := s.Register("a")
	childRan := false
	done := make(chan struct{})
	go func() {
		defer close(done)
		// A solo stretch: two releases that keep the turn.
		s.GetTurn(a)
		s.PutTurn(a)
		s.GetTurn(a)
		s.PutTurn(a)
		// Register under the turn, exactly like the create wrapper does.
		s.GetTurn(a)
		b := s.Register("b")
		bDone := make(chan struct{})
		go func() {
			defer close(bDone)
			s.GetTurn(b)
			childRan = true
			s.Exit(b)
		}()
		s.PutTurn(a) // must hand off to b, not keep the turn
		<-bDone
		s.GetTurn(a)
		s.Exit(a)
	}()
	<-done
	if !childRan {
		t.Fatal("registered thread never ran")
	}
}

// TestLeaseDisabledDuringReplay: replay schedules drive eligibility from the
// recording, so replay runs never lease — and reproduce the recorded trace of
// a leased run exactly, which is the record/replay half of trace neutrality.
func TestLeaseDisabledDuringReplay(t *testing.T) {
	run := func(replay []Event) (*Scheduler, []Event) {
		s := New(Config{Mode: policy.RoundRobin, Record: true})
		if replay != nil {
			s.SetReplay(replay)
		}
		th := s.Register("t")
		done := make(chan struct{})
		go func() {
			defer close(done)
			for i := 0; i < 5; i++ {
				s.GetTurn(th)
				s.TraceOp(th, OpYield, 0, StatusOK)
				s.PutTurn(th)
			}
			s.GetTurn(th)
			s.TraceOp(th, OpThreadEnd, 0, StatusOK)
			s.Exit(th)
		}()
		<-done
		return s, s.Trace()
	}
	rec, events := run(nil)
	if rec.Stats().LeaseExtends == 0 {
		t.Fatal("recording run should have leased (solo thread)")
	}
	rep, got := run(events)
	if n := rep.Stats().LeaseExtends; n != 0 {
		t.Fatalf("replay run kept the turn %d times, want 0", n)
	}
	if !tracesEqual(events, got) {
		t.Fatalf("replay trace diverged from recording:\n rec: %v\n got: %v", events, got)
	}
}

// TestQuickLeaseTraceNeutral: for any random script, the trace with the
// lease on and off is byte-identical.
func TestQuickLeaseTraceNeutral(t *testing.T) {
	f := func(sc script) bool {
		return tracesEqual(runScript(sc, Config{Mode: policy.RoundRobin}), runScript(sc, Config{Mode: policy.RoundRobin, NoLease: true}))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickLeaseTurnCountNeutral: beyond the trace, logical time itself is
// unchanged — the same script finishes at the same turn count with the lease
// on and off, so logical timeouts behave identically.
func TestQuickLeaseTurnCountNeutral(t *testing.T) {
	count := func(sc script, noLease bool) int64 {
		s := New(Config{Mode: policy.RoundRobin, Record: true, NoLease: noLease})
		_ = runScriptOn(s, sc)
		return s.TurnCount()
	}
	f := func(sc script) bool {
		return count(sc, false) == count(sc, true)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestDisableLeases: the seam unleases every scheduler New builds while it is
// on — a solo thread's releases then extend nothing — and only those.
func TestDisableLeases(t *testing.T) {
	restore := DisableLeases()
	off := soloLoop(Config{Mode: policy.RoundRobin}, 10).Stats().LeaseExtends
	restore()
	on := soloLoop(Config{Mode: policy.RoundRobin}, 10).Stats().LeaseExtends
	if off != 0 || on != 10 {
		t.Fatalf("solo releases extended %d times with leases disabled and %d after, want 0 and 10", off, on)
	}
}
