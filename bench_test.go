// Micro-benchmarks of the turn mechanism, `make bench`. End-to-end and
// per-layer numbers come from the repository benchmark (benchmark/,
// BENCHMARK.json); the rows here are the ones it has no probe for: pairs of
// arms compared inside one binary, and the parked-population asymptotics of
// EXPERIMENTS.md E14.
//
//   - BenchmarkMechanismLockUnlock — Section 1's claim that the turn-based
//     mechanism itself has little-to-no overhead: native vs turn, lease vs no
//     lease, policies vs none.
//   - BenchmarkBroadcastStorm     — dispatcher serving N waiters parked
//     across M objects: per round one shard is broadcast and recycled, then
//     bookkeeping ops run against the full parked population.
//   - BenchmarkTimedWaitChurn     — many concurrent logical sleeps churning
//     the timed-waiter structure.
//   - BenchmarkWorkOffload        — a Work computed inline against one handed
//     to a helper beside a runnable partner: the measurement the offload
//     threshold rests on.
//   - BenchmarkCreateJoinLive     — 64 threads live at once, each joined
//     while it still runs: a thread's construction cost with a blocking join.
//
// The explorer's rows are in explore_bench_test.go. What a hosted sync op
// allocates is not timed but counted: TestSyncOpsAllocateNothing, which
// `make check` runs in both builds.
package qithread_test

import (
	"fmt"
	"math"
	"testing"

	"qithread"
	"qithread/internal/core"
	"qithread/internal/programs"
	"qithread/internal/workload"
)

// BenchmarkMechanismLockUnlock measures the host-time cost of one
// uncontended lock/unlock pair under the turn mechanism versus native
// synchronization — the paper's "the mechanism is standard and itself has
// little-to-none overhead" (Section 1).
func BenchmarkMechanismLockUnlock(b *testing.B) {
	for _, cfg := range []struct {
		name    string
		c       qithread.Config
		noLease bool // core.DisableLeases
	}{
		{"nondet", qithread.Config{Mode: qithread.Nondet}, false},
		{"turn", qithread.Config{Mode: qithread.RoundRobin}, false},
		// turn-nolease isolates the scheduler lease: the solo benchmark thread
		// is exactly the leaseable case, so turn vs turn-nolease is the
		// amortized release path vs the full queue-and-handoff release.
		{"turn-nolease", qithread.Config{Mode: qithread.RoundRobin}, true},
		// turn vs turn-all-policies is what the policy hooks add on the hottest
		// path: OnAcquire, OnRelease and ExtendLease on every iteration.
		{"turn-all-policies", qithread.Config{Mode: qithread.RoundRobin, Policies: qithread.AllPolicies}, false},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			if cfg.noLease {
				defer core.DisableLeases()()
			}
			rt := qithread.New(cfg.c)
			done := make(chan struct{})
			go rt.Run(func(main *qithread.Thread) {
				m := rt.NewMutex(main, "m")
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					m.Lock(main)
					m.Unlock(main)
				}
				b.StopTimer()
				close(done)
			})
			<-done
		})
	}
}

// syncOps are the steady-state shapes TestSyncOpsAllocateNothing counts. Each
// setup runs on main, starts whatever partner threads the operation needs, and
// returns one operation and the teardown that stops and joins the partners.
var syncOps = []struct {
	name  string
	setup func(rt *qithread.Runtime, main *qithread.Thread) (op, stop func())
}{
	{"lock-unlock", func(rt *qithread.Runtime, main *qithread.Thread) (func(), func()) {
		m := rt.NewMutex(main, "m")
		return func() { m.Lock(main); m.Unlock(main) }, func() {}
	}},
	{"cond-pingpong", func(rt *qithread.Runtime, main *qithread.Thread) (func(), func()) {
		m, cv := rt.NewMutex(main, "m"), rt.NewCond(main, "cv")
		partnerMove, done := false, false
		partner := main.Create("partner", func(w *qithread.Thread) {
			m.Lock(w)
			for !done {
				if partnerMove {
					partnerMove = false
					cv.Signal(w)
				} else {
					cv.Wait(w, m)
				}
			}
			m.Unlock(w)
		})
		pingpong := func() {
			m.Lock(main)
			partnerMove = true
			cv.Signal(main)
			for partnerMove {
				cv.Wait(main, m)
			}
			m.Unlock(main)
		}
		return pingpong, func() {
			m.Lock(main)
			done = true
			cv.Signal(main)
			m.Unlock(main)
			main.Join(partner)
		}
	}},
	{"yield-among-4", func(rt *qithread.Runtime, main *qithread.Thread) (func(), func()) {
		done := false
		var others [3]*qithread.Thread
		for i := range others {
			others[i] = main.Create("y", func(w *qithread.Thread) {
				for !done {
					w.Yield()
				}
			})
		}
		return main.Yield, func() {
			done = true
			for _, th := range others {
				main.Join(th)
			}
		}
	}},
	{"offloaded-work", func(rt *qithread.Runtime, main *qithread.Thread) (func(), func()) {
		done := false
		partner := main.Create("partner", func(w *qithread.Thread) {
			for !done {
				w.Yield()
			}
		})
		return func() { main.Work(qithread.OffloadThreshold) }, func() {
			done = true
			main.Join(partner)
		}
	}},
	{"sleep-3", func(rt *qithread.Runtime, main *qithread.Thread) (func(), func()) {
		return func() { main.Sleep(3) }, func() {}
	}},
	{"broadcast-8", func(rt *qithread.Runtime, main *qithread.Thread) (func(), func()) {
		m, cv := rt.NewMutex(main, "m"), rt.NewCond(main, "cv")
		ack := rt.NewSem(main, "ack", 0) // a waiter posts before it re-parks
		gen, done := 0, false
		var waiters [8]*qithread.Thread
		for i := range waiters {
			waiters[i] = main.Create("w", func(w *qithread.Thread) {
				for r := 0; ; r++ {
					ack.Post(w)
					m.Lock(w)
					for gen == r && !done {
						cv.Wait(w, m)
					}
					last := done
					m.Unlock(w)
					if last {
						return
					}
				}
			})
		}
		broadcast := func() {
			m.Lock(main)
			gen++
			cv.Broadcast(main)
			m.Unlock(main)
		}
		acks := func() {
			for range waiters {
				ack.Wait(main)
			}
		}
		acks()
		return func() { broadcast(); acks() }, func() {
			done = true
			broadcast()
			for _, w := range waiters {
				main.Join(w)
			}
		}
	}},
}

// TestSyncOpsAllocateNothing: a synchronization operation of a hosted run
// allocates nothing in steady state — a lock/unlock pair, a condition-variable
// ping-pong with a partner thread, one Yield among four threads, an offloaded
// Work beside a runnable partner, a logical Sleep, a broadcast round to eight
// waiters that re-park — with the lease, without it, and under all five
// policies. (AllocsPerRun measures at GOMAXPROCS=1, where the driver runs an
// offloaded job itself; TestOffloadAllocatesNothing counts the helper path.) The counts are exact, so this is the gate
// a timed benchmark row cannot be, exact under -race too.
// testing.AllocsPerRun divides by the run count, so an allocation on every
// operation fails and amortized growth below one per operation does not.
func TestSyncOpsAllocateNothing(t *testing.T) {
	for _, cfg := range []struct {
		name    string
		c       qithread.Config
		noLease bool // core.DisableLeases
	}{
		{"round-robin", qithread.Config{Mode: qithread.RoundRobin}, false},
		{"no-lease", qithread.Config{Mode: qithread.RoundRobin}, true},
		{"all-policies", qithread.Config{Mode: qithread.RoundRobin, Policies: qithread.AllPolicies}, false},
	} {
		for _, so := range syncOps {
			t.Run(cfg.name+"/"+so.name, func(t *testing.T) {
				var allocs float64
				if cfg.noLease {
					defer core.DisableLeases()()
				}
				rt := qithread.New(cfg.c)
				rt.Run(func(main *qithread.Thread) {
					op, stop := so.setup(rt, main)
					allocs = testing.AllocsPerRun(100, op)
					stop()
				})
				if allocs != 0 {
					t.Errorf("%.1f allocations per operation, want 0", allocs)
				}
			})
		}
	}
}

// statsSink keeps TestStatsAllocatesNothing's snapshot from being optimized
// away.
var statsSink core.Snapshot

// TestStatsAllocatesNothing: a finished run's Stats is a value — every
// counter, and the policy stack's decision counters as a fixed array — so
// reading it allocates nothing, exact under -race too. The array's entries
// after the base policy are zero, so the sums the benchmark's catalog
// workload forms over PolicyMetrics (benchmark/catalog.go: lease extensions
// and decisions of every policy) take them in unchanged: over one pass of
// that workload at seed 1 — every catalog program but the two whose ad-hoc
// synchronization makes their counts timing-dependent, scale 0.1, the
// QiThread configuration — they read what the slice of named entries summed
// to before the array, constants recorded on that build.
func TestStatsAllocatesNothing(t *testing.T) {
	const wantLeaseExtends, wantDecisions = 21083, 85677
	cfg := qithread.Config{Mode: qithread.RoundRobin, Policies: qithread.AllPolicies}
	p := workload.Params{Scale: 0.1, InputSeed: 1}
	var leaseExtends, decisions int64
	var last *qithread.Runtime
	for _, s := range programs.All() {
		if s.Name == "canneal" || s.Name == "x264" {
			continue
		}
		last = qithread.New(cfg)
		s.Build(p)(last)
		for _, m := range last.Stats().PolicyMetrics {
			leaseExtends += m.LeaseExtends
			decisions += m.Total()
		}
	}
	t.Logf("one catalog pass: %d policy lease extensions, %d policy decisions", leaseExtends, decisions)
	if leaseExtends != wantLeaseExtends || decisions != wantDecisions {
		t.Errorf("one catalog pass sums to %d lease extensions and %d decisions over PolicyMetrics, want %d and %d",
			leaseExtends, decisions, wantLeaseExtends, wantDecisions)
	}
	if n := testing.AllocsPerRun(100, func() { statsSink = last.Stats() }); n != 0 {
		t.Errorf("Stats of a finished run makes %.1f allocations, want 0", n)
	}
}

// BenchmarkBroadcastStorm measures synchronization cost in the presence of a
// large parked population: 256 worker threads wait on 32 condition variables
// (8 per shard), the dispatcher pattern of thread-pool servers. Each round
// the dispatcher broadcasts the next shard, waits for its 8 workers to cycle
// and re-park, then performs 192 uncontended bookkeeping operations — a
// lock/signal/unlock triple each, the signal finding no waiter — while all
// workers are parked.
//
// Both phases are exactly what the per-object wait lists and the deadline
// heap optimize. With the single global wait queue, every Signal — including
// the one inside every mutex Unlock — and every Broadcast scans all ~256
// parked waiters, and every turn advance rescans the whole queue for expired
// deadlines, so even the dispatcher's uncontended bookkeeping ops pay
// O(parked waiters) each. With per-object lists and the heap those are O(1)
// lookups, so the parked population costs nothing.
func BenchmarkBroadcastStorm(b *testing.B) {
	const (
		nWaiters = 256
		nObjs    = 32
		perObj   = nWaiters / nObjs
		workOps  = 192
	)
	rt := qithread.New(qithread.Config{Mode: qithread.RoundRobin})
	done := make(chan struct{})
	go rt.Run(func(main *qithread.Thread) {
		wm := rt.NewMutex(main, "dispatch")   // dispatcher bookkeeping lock
		wcv := rt.NewCond(main, "dispatchcv") // signaled per update, rarely awaited
		ack := rt.NewSem(main, "ack", 0)      // workers post "about to re-park"
		stop := false
		ms := make([]*qithread.Mutex, nObjs)
		cvs := make([]*qithread.Cond, nObjs)
		gen := make([]int, nObjs)
		for k := range ms {
			ms[k] = rt.NewMutex(main, fmt.Sprintf("m%d", k))
			cvs[k] = rt.NewCond(main, fmt.Sprintf("cv%d", k))
		}
		workers := make([]*qithread.Thread, nWaiters)
		for i := range workers {
			k := i % nObjs
			workers[i] = main.Create(fmt.Sprintf("w%d", i), func(w *qithread.Thread) {
				for r := 0; ; r++ {
					ack.Post(w)
					ms[k].Lock(w)
					for gen[k] == r && !stop {
						cvs[k].Wait(w, ms[k])
					}
					st := stop
					ms[k].Unlock(w)
					if st {
						return
					}
				}
			})
		}
		awaitParked := func(n int) {
			for j := 0; j < n; j++ {
				ack.Wait(main)
			}
		}
		awaitParked(nWaiters) // everyone reaches the first wait
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := i % nObjs
			ms[k].Lock(main)
			gen[k]++
			cvs[k].Broadcast(main)
			ms[k].Unlock(main)
			awaitParked(perObj)
			for j := 0; j < workOps; j++ {
				wm.Lock(main)
				wcv.Signal(main) // unconditional not-empty signal, no waiter parked
				wm.Unlock(main)
			}
		}
		b.StopTimer()
		for k := 0; k < nObjs; k++ {
			ms[k].Lock(main)
			stop = true
			cvs[k].Broadcast(main)
			ms[k].Unlock(main)
		}
		for _, w := range workers {
			main.Join(w)
		}
		close(done)
	})
	<-done
}

// BenchmarkTimedWaitChurn measures timed-waiter registration and expiry: 32
// threads repeatedly execute short logical sleeps with staggered durations,
// so the scheduler constantly adds timed waiters, expires them, and performs
// idle-time jumps to the earliest deadline. With the global wait queue every
// turn advance rescans all waiters for expired deadlines; with the deadline
// heap an advance that expires nothing is a single peek.
func BenchmarkTimedWaitChurn(b *testing.B) {
	const nThreads = 32
	rt := qithread.New(qithread.Config{Mode: qithread.RoundRobin})
	done := make(chan struct{})
	go rt.Run(func(main *qithread.Thread) {
		perThread := b.N/nThreads + 1
		b.ResetTimer()
		ths := make([]*qithread.Thread, nThreads)
		for i := range ths {
			i := i
			ths[i] = main.Create(fmt.Sprintf("s%d", i), func(w *qithread.Thread) {
				for r := 0; r < perThread; r++ {
					w.Sleep(int64(i%7) + 1)
				}
			})
		}
		for _, th := range ths {
			main.Join(th)
		}
		b.StopTimer()
		close(done)
	})
	<-done
}

// BenchmarkWorkOffload is the measurement qithread's offload threshold rests
// on (thread.go, EXPERIMENTS.md E44). Main and a partner thread each loop on
// one Work of n units and a Yield; one op is main's iteration, so it covers
// one Work of each thread. Inline, the two computations take turns on the
// domain's one goroutine; offloaded (every Work handed to a helper, forced
// through the test seam), a helper computes one while the driver computes or
// joins the other, at the price of a queue round trip and a rejoin per Work.
// With a P to spare, the n at which offloaded overtakes inline is where the
// threshold belongs; at GOMAXPROCS=1 the offloaded arm is the inline one plus
// that price.
func BenchmarkWorkOffload(b *testing.B) {
	for _, n := range []int64{16, 64, 256, 1024} {
		for _, arm := range []struct {
			name string
			min  int64
		}{{"inline", math.MaxInt64}, {"offloaded", 1}} {
			b.Run(fmt.Sprintf("n=%d/%s", n, arm.name), func(b *testing.B) {
				defer qithread.SetOffloadMin(arm.min)()
				rt := qithread.New(qithread.Config{Mode: qithread.RoundRobin, Policies: qithread.AllPolicies})
				rt.Run(func(main *qithread.Thread) {
					done := false
					partner := main.Create("partner", func(w *qithread.Thread) {
						for !done {
							w.Work(n)
							w.Yield()
						}
					})
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						main.Work(n)
						main.Yield()
					}
					b.StopTimer()
					done = true
					main.Join(partner)
				})
			})
		}
	}
}

// BenchmarkCreateJoinLive measures a thread's construction cost where it is
// largest: 64 threads created back to back under KeepTurn, so all of them
// live at once, then each joined while it is still running — it waits on a
// semaphore that main posts just before the join — so every join blocks. One
// op is one batch of 64; ns/thread is comparable with the traced
// wrappers.create_join_us, whose joins never block.
func BenchmarkCreateJoinLive(b *testing.B) {
	const threads = 64
	rt := qithread.New(qithread.Config{Mode: qithread.RoundRobin, Policies: qithread.AllPolicies})
	rt.Run(func(main *qithread.Thread) {
		gate := rt.NewSem(main, "gate", 0)
		body := func(w *qithread.Thread) { gate.Wait(w) }
		var kids [threads]*qithread.Thread
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for k := range kids {
				main.KeepTurn()
				kids[k] = main.Create("w", body)
			}
			for _, k := range kids {
				gate.Post(main)
				main.Join(k)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*threads), "ns/thread")
	})
}
