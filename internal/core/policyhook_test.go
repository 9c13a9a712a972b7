package core

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"qithread/internal/policy"
)

// statsOf runs sc on a fresh scheduler and returns its trace, its counters
// and how many threads it still counts live.
func statsOf(sc script, cfg Config) ([]Event, Snapshot, int) {
	cfg.Record = true
	s := New(cfg)
	tr := runScriptOn(s, sc.program())
	return tr, s.Stats(), s.live
}

func totalPicks(st Snapshot) (picks, boosts int64) {
	for _, m := range st.PolicyMetrics {
		picks += m.Picks
		boosts += m.WakeBoosts
	}
	return picks, boosts
}

// TestQuickHookDispatchInvariants drives random scripts through every policy
// bitmask under the three modes and checks, on the scheduler's own counters,
// what the scheduler-side hooks (PickNext/OnGrant, WakeQueue, OnBlock) must
// keep true: every registered thread exits, every park is paired with
// exactly one wake-up, every wake-up is boosted exactly when BoostBlocked
// runs (round-robin base only), every handoff is a counted pick — grantLocked
// panics on a pick that is not on a runnable queue, so finishing at all
// covers that — and the same script run twice gives the same trace and the
// same counters, per-policy ones included. The 32 sets split into the two behaviours a
// scheduler-level script can tell apart: observe (wake-ups join the run
// queue) and boost (BoostBlocked routes them to the wake-up queue).
func TestQuickHookDispatchInvariants(t *testing.T) {
	for _, boost := range []bool{false, true} {
		name := "observe"
		if boost {
			name = "boost"
		}
		t.Run(name, func(t *testing.T) {
			for set := policy.NoPolicies; set <= policy.AllPolicies; set++ {
				if set.Has(policy.BoostBlocked) != boost {
					continue
				}
				for _, mode := range []policy.BaseKind{policy.RoundRobin, policy.LogicalClock, policy.VirtualClock} {
					cfg := Config{Mode: mode, Policies: set}
					f := func(sc script) bool {
						tr, st, live := statsOf(sc, cfg)
						n := sc.threads()
						if live != 0 || st.MaxLiveThreads != n {
							t.Logf("%d threads registered, %d still live", st.MaxLiveThreads, live)
							return false
						}
						woken := st.WokenBySignal + st.WokenByTimeout
						if st.Waits != woken {
							t.Logf("waits %d != woken %d", st.Waits, woken)
							return false
						}
						picks, boosts := totalPicks(st)
						if picks == 0 || picks < st.Handoffs {
							t.Logf("picks %d, handoffs %d", picks, st.Handoffs)
							return false
						}
						wantBoosts := int64(0)
						if boost && mode == policy.RoundRobin {
							wantBoosts = woken
						}
						if boosts != wantBoosts {
							t.Logf("wake boosts %d, want %d", boosts, wantBoosts)
							return false
						}
						tr2, st2, _ := statsOf(sc, cfg)
						if !tracesEqual(tr, tr2) {
							t.Logf("same script, different traces")
							return false
						}
						// Handoffs splits grants by whether the grantee was already
						// parked, which is timing, not schedule.
						st.Handoffs, st2.Handoffs = 0, 0
						if !reflect.DeepEqual(st, st2) {
							t.Logf("same script, different counters:\n  %#v\n  %#v", st, st2)
							return false
						}
						return true
					}
					if err := quick.Check(f, &quick.Config{MaxCount: 4}); err != nil {
						t.Fatalf("%v / %v: %v", mode, set, err)
					}
				}
			}
		})
	}
}

// TestPolicyMetricsDeterministic: the per-policy decision counters are a
// function of the schedule. A pick is counted where the grant commits, not
// where eligibility is evaluated — kickLocked re-evaluates it every time a
// not-yet-eligible thread asks for the turn, which depends on goroutine
// timing — so two runs of the same contended program report identical
// PolicyMetrics, at any GOMAXPROCS (make check runs this package at
// -cpu 1,2,4).
func TestPolicyMetricsDeterministic(t *testing.T) {
	for _, cfg := range []Config{
		{Mode: policy.RoundRobin, Policies: policy.AllPolicies},
		{Mode: policy.LogicalClock},
	} {
		t.Run(cfg.Mode.String(), func(t *testing.T) {
			for seed := uint64(1); seed <= 40; seed++ {
				// The largest script shape: 6 threads of 14 operations.
				sc := script{Seed: seed * 0x9e3779b97f4a7c15, NThreads: 4, NOps: 11}
				_, a, _ := statsOf(sc, cfg)
				_, b, _ := statsOf(sc, cfg)
				if !reflect.DeepEqual(a.PolicyMetrics, b.PolicyMetrics) {
					t.Fatalf("seed %d: same script, different policy metrics:\n  %v\n  %v", seed, a.PolicyMetrics, b.PolicyMetrics)
				}
			}
		})
	}
}

// TestReplayGrantsAreNotPicks: while a recorded schedule dictates who runs
// next no policy decides anything, so nothing is counted as a pick.
func TestReplayGrantsAreNotPicks(t *testing.T) {
	sc := script{Seed: 7, NThreads: 3, NOps: 9}
	rec, st, _ := statsOf(sc, Config{Policies: policy.BoostBlocked})
	if picks, _ := totalPicks(st); picks == 0 {
		t.Fatal("the recording run counted no pick")
	}
	s := New(Config{Policies: policy.BoostBlocked, Record: true})
	s.SetReplay(rec)
	if tr := runScriptOn(s, sc.program()); !tracesEqual(tr, rec) {
		t.Fatal("replay diverged from the recording")
	}
	if picks, _ := totalPicks(s.Stats()); picks != 0 {
		t.Fatalf("replay counted %d picks, want 0", picks)
	}
}

// TestRestoreRefusesForeignLeaseState: lease state in a snapshot must belong
// to a policy the restoring scheduler runs — ExtendLease trusts the state
// without asking the bitmask, so a checkpoint taken under other Policies is
// refused instead of resumed with leases nobody would ever revoke.
func TestRestoreRefusesForeignLeaseState(t *testing.T) {
	solo := func(set policy.Set) (*Scheduler, *Thread) {
		s := New(Config{Policies: set, Record: true, SuspendRecording: true})
		s.HostThreads()
		th := s.Register("main")
		s.GetTurn(th)
		return s, th
	}
	src, srcT := solo(policy.CSWhole)
	if !src.Stack().OnAcquire(srcT) {
		t.Fatal("CSWhole did not lease")
	}
	st, err := src.CaptureState(srcT)
	if err != nil {
		t.Fatal(err)
	}
	if want := (policy.PerThread{CSDepth: 1}); st.Threads[0].Policy != want {
		t.Fatalf("captured policy state %+v, want %+v", st.Threads[0].Policy, want)
	}
	dst, dstT := solo(policy.CSWhole | policy.WakeAMAP)
	if err := dst.RestoreState(dstT, st); err != nil {
		t.Fatal(err)
	}
	if *dstT.PolicyState() != st.Threads[0].Policy {
		t.Fatalf("restored policy state %+v, want %+v", *dstT.PolicyState(), st.Threads[0].Policy)
	}
	other, otherT := solo(policy.BoostBlocked)
	err = other.RestoreState(otherT, st)
	if want := "of a policy round-robin|BoostBlocked does not run"; err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("restore under other policies: error %v, want one containing %q", err, want)
	}
}
