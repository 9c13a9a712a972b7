// Benchmarks regenerating the paper's evaluation artifacts. Each benchmark
// corresponds to one figure, table, or reported study (see the experiment
// index in DESIGN.md):
//
//   - BenchmarkMechanism*          — Section 1's claim that the turn-based
//     mechanism itself has little-to-no overhead (host wall time per op).
//   - BenchmarkFigure8            — Figure 8: per-program execution under the
//     evaluation configurations; the "vunits" metric is the virtual makespan
//     each configuration achieves (normalize to non-det for the bar heights).
//     A representative program per suite runs by default; set
//     QITHREAD_BENCH_ALL=1 to run all 108.
//   - BenchmarkPolicySteps        — Section 5.2: pbzip2 under the cumulative
//     policy configurations, showing WakeAMAP's jump.
//   - BenchmarkScalability        — Section 5.3: thread-count sweep.
//
// The scheduler data-structure benchmarks (see EXPERIMENTS.md E14) measure
// the asymptotics of the turn mechanism itself and feed BENCH_sched.json via
// `make bench-json`:
//
//   - BenchmarkBroadcastStorm     — dispatcher serving N waiters parked
//     across M objects: per round one shard is broadcast and recycled, then
//     bookkeeping ops run against the full parked population.
//   - BenchmarkTimedWaitChurn     — many concurrent logical sleeps churning
//     the timed-waiter structure.
//   - BenchmarkTurnHandoff        — turn ping-pong across 4–64 threads; one
//     Yield is exactly one turn handoff.
//   - BenchmarkDomains            — the sharded server at 1–8 scheduler
//     domains; wall time per full execution, vunits = virtual makespan.
//   - BenchmarkIngress            — the ingress-driven server (E17): live
//     free-running sources admitted through a deterministic gateway, across
//     admission batch sizes; wall time per full execution.
//   - BenchmarkControlPlane       — the control-plane workload (E22): a
//     recorded log reconciled by the controller pool across the
//     entities × controllers grid; wall time per full execution.
//
// Run with: go test -bench=. -benchmem
package qithread_test

import (
	"bytes"
	"fmt"
	"os"
	"testing"

	"qithread"
	"qithread/internal/harness"
	"qithread/internal/programs"
	"qithread/internal/trace"
	"qithread/internal/workload"
	"qithread/internal/workload/controlplane"
)

// benchParams keeps bench iterations fast; shapes are scale-invariant.
var benchParams = workload.Params{Scale: 0.1, InputSeed: 42}

// BenchmarkMechanismLockUnlock measures the host-time cost of one
// uncontended lock/unlock pair under the turn mechanism versus native
// synchronization — the paper's "the mechanism is standard and itself has
// little-to-none overhead" (Section 1).
func BenchmarkMechanismLockUnlock(b *testing.B) {
	for _, cfg := range []struct {
		name string
		c    qithread.Config
	}{
		{"nondet", qithread.Config{Mode: qithread.Nondet}},
		{"turn", qithread.Config{Mode: qithread.RoundRobin}},
		// turn-nolease isolates the scheduler lease: the solo benchmark thread
		// is exactly the leaseable case, so turn vs turn-nolease is the
		// amortized release path vs the full queue-and-handoff release.
		{"turn-nolease", qithread.Config{Mode: qithread.RoundRobin, NoTurnLease: true}},
		// turn vs turn-all-policies is what the policy hooks add on the hottest
		// path: OnAcquire, OnRelease and ExtendLease on every iteration.
		{"turn-all-policies", qithread.Config{Mode: qithread.RoundRobin, Policies: qithread.AllPolicies}},
	} {
		b.Run(cfg.name, func(b *testing.B) {
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

// BenchmarkMechanismSignalWait measures a signal/wait ping-pong between two
// threads under the turn mechanism.
func BenchmarkMechanismSignalWait(b *testing.B) {
	rt := qithread.New(qithread.Config{Mode: qithread.RoundRobin})
	done := make(chan struct{})
	go rt.Run(func(main *qithread.Thread) {
		m := rt.NewMutex(main, "m")
		cv := rt.NewCond(main, "cv")
		stop := false
		turn := 0 // 0: ponger's move to wait
		ponger := main.Create("ponger", func(w *qithread.Thread) {
			m.Lock(w)
			for {
				for turn != 1 && !stop {
					cv.Wait(w, m)
				}
				if stop {
					m.Unlock(w)
					return
				}
				turn = 0
				cv.Broadcast(w)
			}
		})
		b.ResetTimer()
		m.Lock(main)
		for i := 0; i < b.N; i++ {
			turn = 1
			cv.Broadcast(main)
			for turn != 0 && !stop {
				cv.Wait(main, m)
			}
		}
		stop = true
		cv.Broadcast(main)
		m.Unlock(main)
		b.StopTimer()
		main.Join(ponger)
		close(done)
	})
	<-done
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

// BenchmarkTurnHandoff measures the cost of one turn handoff as thread count
// grows: n threads pass the turn round-robin via Yield, so every operation is
// a PutTurn immediately granting an already-parked thread. The handoff fast
// path hands the turn over without the woken thread re-taking the scheduler
// mutex. The run is hosted (internal/core/host.go), so a handoff is a
// coroutine switch on one goroutine.
func BenchmarkTurnHandoff(b *testing.B) {
	run := func(n int) func(b *testing.B) {
		return func(b *testing.B) {
			rt := qithread.New(qithread.Config{Mode: qithread.RoundRobin})
			done := make(chan struct{})
			go rt.Run(func(main *qithread.Thread) {
				perThread := b.N/n + 1
				b.ResetTimer()
				ths := make([]*qithread.Thread, n)
				for i := range ths {
					ths[i] = main.Create(fmt.Sprintf("y%d", i), func(w *qithread.Thread) {
						for r := 0; r < perThread; r++ {
							w.Yield()
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
	}
	for _, n := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("threads=%d", n), run(n))
	}
}

// BenchmarkDomains measures the sharded request server (the scheduler-domain
// scaling experiment, `qibench -experiment domains`) at 1, 2, 4 and 8
// domains under the full QiThread configuration. Each iteration is one
// complete execution; wall time shows the host-side cost of running several
// turn mechanisms concurrently, and the vunits metric is the virtual
// makespan, which should shrink monotonically with the domain count.
func BenchmarkDomains(b *testing.B) {
	mode := harness.QiThread()
	for _, nd := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("server/domains=%d", nd), func(b *testing.B) {
			app := workload.DomainServer(workload.DomainServerConfig{
				Domains: nd, Workers: 3, Requests: 48,
				AcceptWork: 60, ParseWork: 420, StateWork: 90,
			}, benchParams)
			var makespan int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rt := qithread.New(mode.Cfg)
				app(rt)
				makespan = rt.VirtualMakespan()
			}
			b.ReportMetric(float64(makespan), "vunits")
		})
	}
}

// BenchmarkIngress measures the ingress-driven request server (`qibench
// -experiment ingress`): four free-running sources feeding a deterministic
// gateway, a three-worker pool consuming the admitted events. Each iteration
// is one complete execution including source goroutines, so wall time is the
// end-to-end cost of the admission boundary at the given batch bound; batch 1
// pays one turn-holding admission slot per event, larger batches amortize it.
func BenchmarkIngress(b *testing.B) {
	for _, batch := range []int{1, 16, 64} {
		b.Run(fmt.Sprintf("server/batch=%d", batch), func(b *testing.B) {
			app := workload.IngressServer(workload.IngressServerConfig{
				Sources: 4, Events: 256, Workers: 3,
				ParseWork: 320, StateWork: 80,
				MaxBatch: batch,
			}, benchParams)
			mode := harness.QiThread()
			var makespan int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rt := qithread.New(mode.Cfg)
				app(rt)
				makespan = rt.VirtualMakespan()
			}
			b.ReportMetric(float64(makespan), "vunits")
		})
	}
}

// BenchmarkControlPlane measures the control-plane workload (`qibench
// -experiment controlplane`): an entity store of state machines reconciled by
// a controller pool across two shard domains, driven by a recorded ingress
// log. Each iteration is one complete execution — gateway replay, work-queue
// scheduling, striped-lock reconciles, resync sweeps — so wall time is the
// end-to-end cost of converging the store at the given (entities,
// controllers) point; vunits is the virtual makespan.
func BenchmarkControlPlane(b *testing.B) {
	for _, n := range []int{8, 64} {
		log := controlplane.DemoLog(n, controlplane.Transitions)
		for _, c := range []int{1, 4} {
			b.Run(fmt.Sprintf("cluster/entities=%d/controllers=%d", n, c), func(b *testing.B) {
				app := controlplane.App(controlplane.Config{
					Entities: n, Controllers: c, Shards: 2,
					ValidateWork: 32, EventWork: 8, MaxBatch: 8,
					Log: log,
				})
				mode := harness.QiThread()
				var makespan int64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					rt := qithread.New(mode.Cfg)
					app(rt)
					makespan = rt.VirtualMakespan()
				}
				b.ReportMetric(float64(makespan), "vunits")
			})
		}
	}
}

// figure8Modes are the bar groups of Figure 8.
func figure8Modes(spec programs.Spec) []harness.Mode {
	modes := []harness.Mode{harness.Nondet(), harness.VanillaRR(), harness.ParrotSoft()}
	if spec.Hints.PCS {
		modes = append(modes, harness.ParrotPCS())
	}
	return append(modes, harness.QiThread())
}

// BenchmarkFigure8 regenerates Figure 8 rows. Each iteration is one full
// program execution; the reported "vunits" metric is the virtual makespan
// (the figure's bar height is vunits(mode)/vunits(non-det)).
func BenchmarkFigure8(b *testing.B) {
	var specs []programs.Spec
	if os.Getenv("QITHREAD_BENCH_ALL") != "" {
		specs = programs.All()
	} else {
		for _, name := range []string{
			"barnes",          // splash2x
			"ep-l",            // npb
			"ferret",          // parsec
			"word_count",      // phoenix (map-reduce library)
			"pbzip2_compress", // realworld
			"convert_blur",    // imagemagick
			"stl_sort",        // stl
		} {
			s, ok := programs.Find(name)
			if !ok {
				b.Fatalf("missing %s", name)
			}
			specs = append(specs, s)
		}
	}
	for _, spec := range specs {
		for _, mode := range figure8Modes(spec) {
			b.Run(fmt.Sprintf("%s/%s/%s", spec.Suite, spec.Name, mode.Name), func(b *testing.B) {
				app := spec.Build(benchParams)
				var makespan int64
				for i := 0; i < b.N; i++ {
					rt := qithread.New(mode.Cfg)
					app(rt)
					makespan = rt.VirtualMakespan()
				}
				b.ReportMetric(float64(makespan), "vunits")
			})
		}
	}
}

// BenchmarkPolicySteps regenerates the Section 5.2 signature result: pbzip2
// under the cumulative policy order. The vunits metric drops sharply at the
// WakeAMAP step.
func BenchmarkPolicySteps(b *testing.B) {
	spec, _ := programs.Find("pbzip2_compress")
	cfgs := []struct {
		name string
		pol  qithread.Policy
	}{
		{"0-vanilla", qithread.NoPolicies},
		{"1-BoostBlocked", qithread.BoostBlocked},
		{"2-CreateAll", qithread.BoostBlocked | qithread.CreateAll},
		{"3-CSWhole", qithread.BoostBlocked | qithread.CreateAll | qithread.CSWhole},
		{"4-WakeAMAP", qithread.BoostBlocked | qithread.CreateAll | qithread.CSWhole | qithread.WakeAMAP},
		{"5-BranchedWake", qithread.AllPolicies},
	}
	for _, c := range cfgs {
		b.Run(c.name, func(b *testing.B) {
			app := spec.Build(benchParams)
			cfg := qithread.Config{Mode: qithread.RoundRobin, Policies: c.pol}
			var makespan int64
			for i := 0; i < b.N; i++ {
				rt := qithread.New(cfg)
				app(rt)
				makespan = rt.VirtualMakespan()
			}
			b.ReportMetric(float64(makespan), "vunits")
		})
	}
}

// BenchmarkScalability regenerates the Section 5.3 sweep for one program
// (pbzip2 decompression, one of the paper's five scalability programs).
func BenchmarkScalability(b *testing.B) {
	spec, _ := programs.Find("pbzip2_decompress")
	for _, threads := range []int{4, 8, 16, 32} {
		for _, mode := range []harness.Mode{harness.Nondet(), harness.ParrotSoft(), harness.QiThread()} {
			b.Run(fmt.Sprintf("threads=%d/%s", threads, mode.Name), func(b *testing.B) {
				p := benchParams
				p.Threads = threads
				app := spec.Build(p)
				var makespan int64
				for i := 0; i < b.N; i++ {
					rt := qithread.New(mode.Cfg)
					app(rt)
					makespan = rt.VirtualMakespan()
				}
				b.ReportMetric(float64(makespan), "vunits")
			})
		}
	}
}

// BenchmarkLogReplay measures the million-event fast path (E19): decoding a
// recorded schedule from its text versus binary encoding, and the full
// load-plus-replay cycle from the binary file. The recording is one
// producer-consumer execution under the all-policies stack; the "events/s"
// metric is decode (or decode+replay) throughput, and the binary rows should
// beat the text rows by well over the 5x acceptance floor.
func BenchmarkLogReplay(b *testing.B) {
	cfg := harness.QiThread().Cfg
	cfg.Record = true
	app := workload.ProdCons(workload.ProdConsConfig{
		Producers: 2, Consumers: 4, Blocks: 4000,
		ProduceWork: 1, ConsumeWork: 2, QueueCap: 16,
	}, workload.Params{Scale: 1, InputSeed: 42})
	rt := qithread.New(cfg)
	app(rt)
	events := rt.Trace()
	var text, bin bytes.Buffer
	if err := trace.Save(&text, events); err != nil {
		b.Fatal(err)
	}
	if err := trace.SaveBinary(&bin, events); err != nil {
		b.Fatal(err)
	}
	n := float64(len(events))

	load := func(b *testing.B, encoded []byte) {
		b.Helper()
		for i := 0; i < b.N; i++ {
			got, err := trace.Load(bytes.NewReader(encoded))
			if err != nil {
				b.Fatal(err)
			}
			if len(got) != len(events) {
				b.Fatalf("loaded %d events, want %d", len(got), len(events))
			}
		}
		b.ReportMetric(n*float64(b.N)/b.Elapsed().Seconds(), "events/s")
	}
	b.Run("load=text", func(b *testing.B) { load(b, text.Bytes()) })
	b.Run("load=binary", func(b *testing.B) { load(b, bin.Bytes()) })
	b.Run("replay", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sched, err := trace.Load(bytes.NewReader(bin.Bytes()))
			if err != nil {
				b.Fatal(err)
			}
			rcfg := harness.QiThread().Cfg
			rcfg.Replay = sched
			rt := qithread.New(rcfg)
			app(rt)
		}
		b.ReportMetric(n*float64(b.N)/b.Elapsed().Seconds(), "events/s")
	})
}
