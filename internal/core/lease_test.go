package core

import (
	"testing"
	"testing/quick"
)

// The scheduler lease (PutTurn's extension branch, see sched.go) must be
// invisible in every determinism observable: same traces, same turn counts,
// same schedules under record and replay. These tests pin the lease life
// cycle itself — grant, extend, revoke — and the trace-neutrality claim,
// including under adversarial veto interleavings that force arbitrary
// sequences of extensions and queue-and-handoff releases.

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

// TestLeaseSoloThread: the first release of a solo thread grants a lease,
// every later release extends it, and Exit revokes it. The
// turn count is identical to the unleased baseline (one turn per release).
func TestLeaseSoloThread(t *testing.T) {
	const n = 10
	st := soloLoop(Config{Mode: RoundRobin}, n).Stats()
	if st.LeaseGrants != 1 {
		t.Fatalf("LeaseGrants = %d, want 1", st.LeaseGrants)
	}
	if st.LeaseExtends != n-1 {
		t.Fatalf("LeaseExtends = %d, want %d (first release grants, the rest extend)", st.LeaseExtends, n-1)
	}
	if st.LeaseRevokes != 1 {
		t.Fatalf("LeaseRevokes = %d, want 1 (Exit revokes)", st.LeaseRevokes)
	}
	if st.LeaseHash == 0 {
		t.Fatal("LeaseHash = 0 despite lease activity")
	}
	if want := int64(n + 1); st.Turns != want {
		t.Fatalf("Turns = %d, want %d (leasing must not change logical time)", st.Turns, want)
	}
}

// TestLeaseDisabled: NoLease turns the whole machinery off — every release
// takes the queue-and-handoff path and the decision trail stays empty.
func TestLeaseDisabled(t *testing.T) {
	st := soloLoop(Config{Mode: RoundRobin, NoLease: true}, 10).Stats()
	if st.LeaseGrants != 0 || st.LeaseExtends != 0 || st.LeaseRevokes != 0 || st.LeaseHash != 0 {
		t.Fatalf("NoLease run has lease activity: grants=%d extends=%d revokes=%d hash=%#x",
			st.LeaseGrants, st.LeaseExtends, st.LeaseRevokes, st.LeaseHash)
	}
	if st.Turns != 11 {
		t.Fatalf("Turns = %d, want 11", st.Turns)
	}
}

// TestLeaseHashDeterministic: the lease decision trail is a pure function of
// the execution — identical runs fold identical hashes.
func TestLeaseHashDeterministic(t *testing.T) {
	a := soloLoop(Config{Mode: RoundRobin}, 25).Stats()
	b := soloLoop(Config{Mode: RoundRobin}, 25).Stats()
	if a.LeaseHash != b.LeaseHash {
		t.Fatalf("lease hashes diverged across identical runs: %#x vs %#x", a.LeaseHash, b.LeaseHash)
	}
	c := soloLoop(Config{Mode: RoundRobin}, 26).Stats()
	if a.LeaseHash == c.LeaseHash {
		t.Fatalf("lease hash insensitive to an extra turn: %#x", a.LeaseHash)
	}
}

// TestLeaseRevokedOnRegister: a thread registered while a lease is active
// revokes it, so the holder's next release hands off and the newcomer runs.
// Without the revocation in Register the child would never be scheduled.
func TestLeaseRevokedOnRegister(t *testing.T) {
	s := New(Config{Mode: RoundRobin})
	a := s.Register("a")
	childRan := false
	done := make(chan struct{})
	go func() {
		defer close(done)
		// Establish a lease: two solo releases.
		s.GetTurn(a)
		s.PutTurn(a)
		s.GetTurn(a)
		s.PutTurn(a)
		if got := s.Stats().LeaseGrants; got != 1 {
			t.Errorf("LeaseGrants = %d before Register, want 1", got)
		}
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
		s.PutTurn(a) // must hand off to b, not extend the (revoked) lease
		<-bDone
		s.GetTurn(a)
		s.Exit(a)
	}()
	<-done
	if !childRan {
		t.Fatal("registered thread never ran")
	}
	st := s.Stats()
	if st.LeaseRevokes < 1 {
		t.Fatalf("LeaseRevokes = %d, want >= 1 (Register must revoke)", st.LeaseRevokes)
	}
}

// TestLeaseDisabledDuringReplay: replay schedules drive eligibility from the
// recording, so replay runs never lease — and reproduce the recorded trace of
// a leased run exactly, which is the record/replay half of trace neutrality.
func TestLeaseDisabledDuringReplay(t *testing.T) {
	run := func(replay []Event) (*Scheduler, []Event) {
		s := New(Config{Mode: RoundRobin, Record: true})
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
	if rec.Stats().LeaseGrants == 0 {
		t.Fatal("recording run should have leased (solo thread)")
	}
	rep, got := run(events)
	if g := rep.Stats().LeaseGrants; g != 0 {
		t.Fatalf("replay run granted %d leases, want 0", g)
	}
	if !tracesEqual(events, got) {
		t.Fatalf("replay trace diverged from recording:\n rec: %v\n got: %v", events, got)
	}
}

// TestQuickLeaseTraceNeutral is the adversarial property test: for any random
// script, the trace with leasing on, leasing off, and leasing subjected to a
// randomized veto sequence — which forces arbitrary interleavings of lease
// extensions, revocations, and re-grants — are all byte-identical. The veto
// hook fires at both decision points (extension and grant), so the chaos
// covers extend-vs-revoke at every release.
func TestQuickLeaseTraceNeutral(t *testing.T) {
	f := func(sc script, vetoSeed uint64) bool {
		base := runScript(sc, Config{Mode: RoundRobin})
		noLease := runScript(sc, Config{Mode: RoundRobin, NoLease: true})
		x := vetoSeed | 1
		veto := func() bool {
			// xorshift64; calls are serialized by turn ownership, so the
			// shared state is race-free (see Scheduler.leaseVeto).
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			return x%3 == 0
		}
		vetoed := New(Config{Mode: RoundRobin, Record: true})
		vetoed.leaseVeto = veto
		chaotic := runScriptOn(vetoed, sc)
		return tracesEqual(base, noLease) && tracesEqual(base, chaotic)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickLeaseTurnCountNeutral: beyond the trace, logical time itself is
// unchanged — the same script finishes at the same turn count with leasing
// on, off, and vetoed, so logical timeouts behave identically.
func TestQuickLeaseTurnCountNeutral(t *testing.T) {
	count := func(sc script, noLease bool, veto func() bool) int64 {
		s := New(Config{Mode: RoundRobin, Record: true, NoLease: noLease})
		s.leaseVeto = veto
		_ = runScriptOn(s, sc)
		return s.TurnCount()
	}
	f := func(sc script, vetoSeed uint64) bool {
		on := count(sc, false, nil)
		off := count(sc, true, nil)
		x := vetoSeed | 1
		veto := func() bool {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			return x%2 == 0
		}
		chaotic := count(sc, false, veto)
		return on == off && on == chaotic
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
