package qithread

import (
	"slices"
	"testing"
	"time"

	"qithread/internal/core"
)

// TestTryLock covers the trylock wrapper in contended and uncontended cases
// across all modes.
func TestTryLock(t *testing.T) {
	for _, cfg := range allModes() {
		t.Run(cfg.Mode.String()+"/"+cfg.Policies.String(), func(t *testing.T) {
			rt := New(cfg)
			rt.Run(func(main *Thread) {
				m := rt.NewMutex(main, "m")
				if !m.TryLock(main) {
					t.Error("uncontended TryLock failed")
				}
				held := true
				w := main.Create("w", func(w *Thread) {
					if m.TryLock(w) && held {
						t.Error("TryLock succeeded while held")
					}
				})
				main.Join(w)
				m.Unlock(main)
				held = false
				if !m.TryLock(main) {
					t.Error("TryLock after unlock failed")
				}
				m.Unlock(main)
			})
		})
	}
}

// TestCondTimedWait: a timed wait with no signaler times out and re-acquires
// the mutex; a signaled timed wait reports success.
func TestCondTimedWait(t *testing.T) {
	rt := New(Config{Mode: RoundRobin, Policies: AllPolicies})
	rt.Run(func(main *Thread) {
		m := rt.NewMutex(main, "m")
		cv := rt.NewCond(main, "cv")
		m.Lock(main)
		if cv.TimedWait(main, m, 5) {
			t.Error("expected timeout with no signaler")
		}
		// The mutex must be re-acquired: unlocking must not panic and must
		// let another thread take it.
		m.Unlock(main)

		ready := false
		w := main.Create("w", func(w *Thread) {
			m.Lock(w)
			ready = true
			m.Unlock(w)
			cv.Signal(w)
		})
		m.Lock(main)
		ok := true
		for !ready {
			ok = cv.TimedWait(main, m, 10_000)
			if !ok {
				break
			}
		}
		m.Unlock(main)
		if !ok && !ready {
			t.Error("timed wait should have been signaled")
		}
		main.Join(w)
	})
}

// TestSemTimedWaitAndValue covers sem_timedwait timeout/success and
// sem_getvalue / sem_trywait.
func TestSemTimedWaitAndValue(t *testing.T) {
	rt := New(Config{Mode: RoundRobin})
	rt.Run(func(main *Thread) {
		s := rt.NewSem(main, "s", 2)
		if got := s.Value(main); got != 2 {
			t.Errorf("Value = %d, want 2", got)
		}
		if !s.TryWait(main) || !s.TryWait(main) {
			t.Error("TryWait should succeed twice")
		}
		if s.TryWait(main) {
			t.Error("TryWait should fail at zero")
		}
		if s.TimedWait(main, 4) {
			t.Error("TimedWait should time out at zero")
		}
		s.Post(main)
		if !s.TimedWait(main, 4) {
			t.Error("TimedWait should succeed after post")
		}
		// Timed wait satisfied by a post from another thread.
		w := main.Create("poster", func(w *Thread) {
			w.Work(50)
			s.Post(w)
		})
		if !s.TimedWait(main, 100_000) {
			t.Error("TimedWait should be woken by post")
		}
		main.Join(w)
	})
}

// TestNondetTimedWaitExpires: under Nondet a timed wait that nobody ends
// expires after turns*nondetSleepUnit of real time — a condition variable's
// with its mutex re-acquired, and a semaphore's — while one that is signaled
// or posted reports success. Each case runs under a 2 s bound, so a wait that
// never expires fails the test instead of hanging it.
func TestNondetTimedWaitExpires(t *testing.T) {
	for _, tc := range []struct {
		name string
		body func(rt *Runtime, main *Thread)
	}{
		{"cond", func(rt *Runtime, main *Thread) {
			m := rt.NewMutex(main, "m")
			cv := rt.NewCond(main, "cv")
			m.Lock(main)
			if cv.TimedWait(main, m, 5) {
				t.Error("Cond.TimedWait with no signaler reported a signal")
			}
			m.Unlock(main) // panics unless the wait re-acquired m
			ready := false
			w := main.Create("signaler", func(w *Thread) {
				m.Lock(w)
				ready = true
				m.Unlock(w)
				cv.Signal(w)
			})
			m.Lock(main)
			for !ready {
				if !cv.TimedWait(main, m, 1_000_000) {
					t.Error("Cond.TimedWait timed out instead of being signaled")
					break
				}
			}
			m.Unlock(main)
			main.Join(w)
		}},
		{"sem", func(rt *Runtime, main *Thread) {
			s := rt.NewSem(main, "s", 0)
			if s.TimedWait(main, 5) {
				t.Error("Sem.TimedWait at zero with no poster succeeded")
			}
			w := main.Create("poster", func(w *Thread) { s.Post(w) })
			if !s.TimedWait(main, 1_000_000) {
				t.Error("Sem.TimedWait timed out instead of taking the post")
			}
			main.Join(w)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			done := make(chan struct{})
			go func() {
				defer close(done)
				rt := New(Config{Mode: Nondet})
				rt.Run(func(main *Thread) { tc.body(rt, main) })
			}()
			select {
			case <-done:
			case <-time.After(2 * time.Second):
				t.Fatal("a Nondet timed wait nobody ends is still blocked after 2 s")
			}
		})
	}
}

// TestRWMutexTryLocks covers the try variants.
func TestRWMutexTryLocks(t *testing.T) {
	for _, cfg := range []Config{{Mode: Nondet}, {Mode: RoundRobin, Policies: AllPolicies}} {
		t.Run(cfg.Mode.String(), func(t *testing.T) {
			rt := New(cfg)
			rt.Run(func(main *Thread) {
				rw := rt.NewRWMutex(main, "rw")
				if !rw.TryRLock(main) {
					t.Error("TryRLock on free lock failed")
				}
				if rw.TryWLock(main) {
					t.Error("TryWLock should fail with a reader")
				}
				rw.RUnlock(main)
				if !rw.TryWLock(main) {
					t.Error("TryWLock on free lock failed")
				}
				if rw.TryRLock(main) {
					t.Error("TryRLock should fail with a writer")
				}
				rw.WUnlock(main)
			})
		})
	}
}

// TestRWMutexWriterPreference: once a writer waits, new readers queue behind
// it, so writers are not starved by a stream of readers.
func TestRWMutexWriterPreference(t *testing.T) {
	rt := New(Config{Mode: RoundRobin, Record: true})
	var order []string
	rt.Run(func(main *Thread) {
		rw := rt.NewRWMutex(main, "rw")
		rw.RLock(main) // hold as reader so the writer must wait
		writer := main.Create("writer", func(w *Thread) {
			rw.WLock(w)
			order = append(order, "writer")
			rw.WUnlock(w)
		})
		reader := main.Create("reader", func(w *Thread) {
			rw.RLock(w) // must queue behind the waiting writer
			order = append(order, "reader")
			rw.RUnlock(w)
		})
		// Let both contenders reach the lock, then release.
		main.Yield()
		main.Yield()
		main.Yield()
		rw.RUnlock(main)
		main.Join(writer)
		main.Join(reader)
	})
	if len(order) != 2 || order[0] != "writer" {
		t.Fatalf("writer should run before late reader: %v", order)
	}
}

// TestMutexUnlockNotLockedPanics: failure injection for the error path.
func TestRWUnlockMisusePanics(t *testing.T) {
	rt := New(Config{Mode: RoundRobin})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on RUnlock of unlocked rwlock")
		}
	}()
	rt.Run(func(main *Thread) {
		rw := rt.NewRWMutex(main, "rw")
		rw.RUnlock(main)
	})
}

// TestOnceRunsInitializerWithSyncOps: the once initializer may itself
// synchronize (it runs outside the turn).
func TestOnceRunsInitializerWithSyncOps(t *testing.T) {
	rt := New(Config{Mode: RoundRobin, Policies: AllPolicies})
	count := 0
	rt.Run(func(main *Thread) {
		once := rt.NewOnce(main, "o")
		m := rt.NewMutex(main, "m")
		var kids []*Thread
		for i := 0; i < 4; i++ {
			kids = append(kids, main.Create("w", func(w *Thread) {
				once.Do(w, func() {
					m.Lock(w)
					count++
					m.Unlock(w)
				})
			}))
		}
		for _, k := range kids {
			main.Join(k)
		}
	})
	if count != 1 {
		t.Fatalf("count = %d, want 1", count)
	}
}

// TestWakeHoldClearsOnBlock: a thread retaining the turn via WakeAMAP
// releases it when it blocks, so others make progress (Section 3.4's "or the
// unblocking thread itself gets blocked").
func TestWakeHoldClearsOnBlock(t *testing.T) {
	rt := New(Config{Mode: RoundRobin, Policies: WakeAMAP, Record: true})
	rt.Run(func(main *Thread) {
		cv := rt.NewCond(main, "cv")
		m := rt.NewMutex(main, "m")
		s := rt.NewSem(main, "gate", 0)
		var kids []*Thread
		for i := 0; i < 2; i++ {
			kids = append(kids, main.Create("waiter", func(w *Thread) {
				m.Lock(w)
				cv.Wait(w, m)
				m.Unlock(w)
			}))
		}
		poster := main.Create("poster", func(w *Thread) {
			s.Post(w)
		})
		// Let the waiters park.
		for i := 0; i < 6; i++ {
			main.Yield()
		}
		cv.Signal(main) // one waiter remains -> wakeHold set
		// Now block: the hold must be dropped or this deadlocks (the
		// waiters and poster could never run again).
		s.Wait(main)
		cv.Signal(main) // wake the second waiter
		main.Join(poster)
		for _, k := range kids {
			main.Join(k)
		}
	})
}

// TestCSWholeNested: nested critical sections stay whole until the outermost
// unlock.
func TestCSWholeNested(t *testing.T) {
	rt := New(Config{Mode: RoundRobin, Policies: CSWhole, Record: true})
	rt.Run(func(main *Thread) {
		a := rt.NewMutex(main, "a")
		b := rt.NewMutex(main, "b")
		other := main.Create("other", func(w *Thread) {
			for i := 0; i < 5; i++ {
				w.Yield()
			}
		})
		a.Lock(main)
		b.Lock(main)
		b.Unlock(main)
		a.Unlock(main)
		main.Join(other)
	})
	// In the trace, the four lock/unlock ops of main must be consecutive
	// (no 'other' yield inside the outer critical section).
	tr := rt.Trace()
	start := -1
	for i, e := range tr {
		if e.Op == core.OpMutexLock && e.TID == 0 && start == -1 {
			start = i
		}
	}
	if start == -1 {
		t.Fatal("no lock in trace")
	}
	for i := start; i < start+4 && i < len(tr); i++ {
		if tr[i].TID != 0 {
			t.Fatalf("foreign op inside CSWhole section at %d: %v\n", i, tr[i])
		}
	}
}

// TestPCSCondBypass: a condition variable used with a PCS mutex under
// Config.PCS still synchronizes, whether main broadcasts before the waiter
// gets to Wait or the waiter is already waiting — it waits on the scheduler
// like any waiter, since that is what Signal and Broadcast wake, and retakes
// the mutex outside the turn.
func TestPCSCondBypass(t *testing.T) {
	for _, waiterFirst := range []bool{false, true} {
		done := make(chan struct{})
		go func() {
			defer close(done)
			rt := New(Config{Mode: RoundRobin, PCS: true})
			delivered := false
			rt.Run(func(main *Thread) {
				m := rt.NewPCSMutex(main, "hot")
				cv := rt.NewCond(main, "hotcv")
				waiting := rt.NewSem(main, "waiting", 0)
				w := main.Create("w", func(w *Thread) {
					m.Lock(w)
					waiting.Post(w)
					for !delivered {
						cv.Wait(w, m)
					}
					m.Unlock(w)
				})
				if waiterFirst {
					// m is free again only once w waits on cv.
					waiting.Wait(main)
				}
				m.Lock(main)
				delivered = true
				m.Unlock(main)
				cv.Broadcast(main)
				main.Join(w)
			})
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("waiter first %v: the waiter was never woken", waiterFirst)
		}
	}
}

// TestVirtualMakespanMonotonicity: more work means a larger makespan in
// every deterministic mode; Nondet keeps no virtual time and reports 0.
func TestVirtualMakespanMonotonicity(t *testing.T) {
	run := func(cfg Config, work int64) int64 {
		rt := New(cfg)
		rt.Run(func(main *Thread) {
			var kids []*Thread
			for i := 0; i < 3; i++ {
				kids = append(kids, main.Create("w", func(w *Thread) {
					w.Work(work)
				}))
			}
			for _, k := range kids {
				main.Join(k)
			}
		})
		return rt.VirtualMakespan()
	}
	if v := run(Config{Mode: Nondet}, 10_000); v != 0 {
		t.Errorf("nondet: makespan %d, want 0", v)
	}
	for _, cfg := range []Config{
		{Mode: VirtualParallel},
		{Mode: RoundRobin},
		{Mode: RoundRobin, Policies: AllPolicies},
		{Mode: LogicalClock},
	} {
		small := run(cfg, 100)
		big := run(cfg, 10_000)
		if big <= small {
			t.Errorf("%v/%v: makespan not monotone in work: %d !> %d", cfg.Mode, cfg.Policies, big, small)
		}
	}
}

// TestSoftBarrierDisabledIsFree: with Config.SoftBarriers off, Arrive leaves
// no trace events, so hinted programs run unchanged under QiThread.
func TestSoftBarrierDisabledIsFree(t *testing.T) {
	rt := New(Config{Mode: RoundRobin, Policies: AllPolicies, Record: true})
	rt.Run(func(main *Thread) {
		sb := rt.NewSoftBarrier(main, "sb", 4)
		var kids []*Thread
		for i := 0; i < 4; i++ {
			kids = append(kids, main.Create("w", func(w *Thread) {
				sb.Arrive(w)
				w.Work(10)
			}))
		}
		for _, k := range kids {
			main.Join(k)
		}
	})
	for _, e := range rt.Trace() {
		if e.Op == core.OpSoftBarrier {
			t.Fatalf("soft barrier op recorded while hints disabled: %v", e)
		}
	}
}

// TestThreadAccessors exercises the small accessor surface.
func TestThreadAccessors(t *testing.T) {
	rt := New(Config{Mode: RoundRobin})
	rt.Run(func(main *Thread) {
		if main.ID() != 0 || main.Name() != "main" {
			t.Errorf("main accessors: id=%d name=%q", main.ID(), main.Name())
		}
		w := main.Create("worker", func(w *Thread) {
			if w.ID() != 1 || w.Name() != "worker" {
				t.Errorf("worker accessors: id=%d name=%q", w.ID(), w.Name())
			}
			_ = w.String()
		})
		main.Join(w)
	})
	if rt.ThreadsCreated() != 2 {
		t.Errorf("ThreadsCreated = %d", rt.ThreadsCreated())
	}
	if rt.Stats().Turns == 0 {
		t.Error("Stats().Turns should be positive after a run")
	}
	if rt.Config().Mode != RoundRobin {
		t.Error("Config accessor broken")
	}
}

// TestSetBaseTime covers the paper's set_base_time primitive (Section 5).
// Under RoundRobin each call records exactly one set_base_time event and
// returns the domain's turn count at the call: the turns completed before it,
// which without turn-retaining policies is the event's schedule position. A
// schedule recorded with the calls replays without divergence and hands every
// call the same base. Under Nondet it returns 0 and records nothing.
func TestSetBaseTime(t *testing.T) {
	const calls = 3
	// run has main and a worker each call SetBaseTime calls times between
	// critical sections on one mutex; bases[tid] holds what thread tid got.
	run := func(cfg Config) (rt *Runtime, bases [2][calls]int64) {
		rt = New(cfg)
		rt.Run(func(main *Thread) {
			m := rt.NewMutex(main, "m")
			before := rt.Stats().Turns // main is the only thread yet
			bases[0][0] = main.SetBaseTime()
			if bases[0][0] != before {
				t.Errorf("%v: SetBaseTime returned %d with %d turns completed", cfg.Policies, bases[0][0], before)
			}
			w := main.Create("w", func(w *Thread) {
				for i := range calls {
					m.Lock(w)
					bases[1][i] = w.SetBaseTime()
					m.Unlock(w)
				}
			})
			for i := 1; i < calls; i++ {
				m.Lock(main)
				m.Unlock(main)
				bases[0][i] = main.SetBaseTime()
			}
			main.Join(w)
		})
		return rt, bases
	}

	for _, pol := range []Policy{NoPolicies, AllPolicies} {
		cfg := Config{Mode: RoundRobin, Policies: pol, Record: true}
		rec, bases := run(cfg)
		var seqs [2][]int64
		for i, e := range rec.Trace() {
			if e.Op == core.OpSetBaseTime {
				seqs[e.TID] = append(seqs[e.TID], int64(i))
			}
		}
		for tid, got := range seqs {
			if len(got) != calls || pol == NoPolicies && !slices.Equal(got, bases[tid][:]) {
				t.Errorf("%v: thread %d: set_base_time events at %v, SetBaseTime returned %v", pol, tid, got, bases[tid])
			}
		}
		cfg.Replay = rec.Trace()
		rep, repBases := run(cfg)
		if !slices.Equal(rep.Trace(), rec.Trace()) || repBases != bases {
			t.Errorf("%v: replay returned bases %v, recorded %v (schedules equal: %v)", pol, repBases, bases, slices.Equal(rep.Trace(), rec.Trace()))
		}
	}

	nondet, bases := run(Config{Mode: Nondet, Record: true})
	if bases != [2][calls]int64{} || len(nondet.Trace()) != 0 {
		t.Errorf("Nondet: SetBaseTime returned %v and recorded %d events, want zeros and none", bases, len(nondet.Trace()))
	}
}

// TestDestroyOps exercises the destroy wrappers (ordered no-ops).
func TestDestroyOps(t *testing.T) {
	for _, cfg := range []Config{{Mode: Nondet}, {Mode: RoundRobin, Policies: AllPolicies}} {
		rt := New(cfg)
		rt.Run(func(main *Thread) {
			m := rt.NewMutex(main, "m")
			cv := rt.NewCond(main, "cv")
			s := rt.NewSem(main, "s", 0)
			b := rt.NewBarrier(main, "b", 1)
			rw := rt.NewRWMutex(main, "rw")
			b.Wait(main)
			m.Destroy(main)
			cv.Destroy(main)
			s.Destroy(main)
			b.Destroy(main)
			rw.Destroy(main)
		})
	}
}

// TestMutexOwnershipChecking: unlocking a mutex one does not hold is a
// caught error (PTHREAD_MUTEX_ERRORCHECK-style), in deterministic and
// native modes.
func TestMutexOwnershipChecking(t *testing.T) {
	for _, cfg := range []Config{{Mode: Nondet}, {Mode: RoundRobin, Policies: AllPolicies}} {
		t.Run(cfg.Mode.String(), func(t *testing.T) {
			rt := New(cfg)
			caught := false
			rt.Run(func(main *Thread) {
				m := rt.NewMutex(main, "m")
				m.Lock(main)
				thief := main.Create("thief", func(w *Thread) {
					defer func() {
						if recover() != nil {
							caught = true
						}
					}()
					m.Unlock(w) // not the owner: must panic
				})
				main.Join(thief)
				m.Unlock(main)
			})
			if !caught {
				t.Error("expected panic for foreign unlock")
			}
		})
	}
}

// TestCondWaitWithoutMutexPanics: calling Cond.Wait without holding the
// mutex is caught.
func TestCondWaitWithoutMutexPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for Wait without mutex")
		}
	}()
	rt := New(Config{Mode: RoundRobin})
	rt.Run(func(main *Thread) {
		m := rt.NewMutex(main, "m")
		cv := rt.NewCond(main, "cv")
		cv.Wait(main, m) // mutex not held
	})
}
