package qithread_test

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"qithread"
	"qithread/internal/programs"
	"qithread/internal/trace"
	"qithread/internal/workload"
)

// Offloaded Work (thread.go, internal/core/host.go, internal/spin): a
// deterministic thread that declares at least qithread's offload threshold of
// Work hands the computation to a helper goroutine, yields to its domain's
// driver and is rejoined, oldest first, once nothing else can run. Whether a
// thread yields depends only on the amount it declares, and where the pure
// computation ran cannot show in its result, so these tests hold the
// schedules, outputs and allocations to those of a run that computes inline.

// withOffloadMin runs fn with every Work of at least n units offloaded.
func withOffloadMin(n int64, fn func()) {
	defer qithread.SetOffloadMin(n)()
	fn()
}

// neverOffload disables offloading.
const neverOffload = math.MaxInt64

// runFingerprint is one run's schedule hash, event count, virtual makespan,
// program output and offload count, as one comparable string.
func runFingerprint(cfg qithread.Config, app func(*qithread.Runtime) uint64) string {
	cfg.Record = true
	rt := qithread.New(cfg)
	out := app(rt)
	ev := rt.Trace()
	offloads := int64(0)
	for _, st := range rt.SchedulerStats() {
		offloads += st.Offloads
	}
	return fmt.Sprintf("schedule %016x, %d events, makespan %d, output %d, %d offloads",
		trace.Hash(ev), len(ev), rt.VirtualMakespan(), out, offloads)
}

// sameButOffloads strips the offload count off a fingerprint.
func sameButOffloads(fp string) string { return fp[:strings.LastIndex(fp, ",")] }

// TestOffloadTraceNeutral: with every Work offloaded, down to one unit, every
// catalog program but the two that poll an atomic outside any scheduled
// operation (canneal, x264: offloading changes what their polls see) records
// the schedule, event count, virtual makespan and output it records with no
// offload, under each of the five configurations the goldens apply to every
// program.
func TestOffloadTraceNeutral(t *testing.T) {
	configs := []struct {
		name string
		cfg  qithread.Config
	}{
		{"rr-vanilla", qithread.Config{Mode: qithread.RoundRobin}},
		{"rr-all", qithread.Config{Mode: qithread.RoundRobin, Policies: qithread.AllPolicies}},
		{"rr-soft", qithread.Config{Mode: qithread.RoundRobin, SoftBarriers: true}},
		{"logical-clock", qithread.Config{Mode: qithread.LogicalClock}},
		{"virtual-parallel", qithread.Config{Mode: qithread.VirtualParallel}},
	}
	params := workload.Params{Scale: 0.1, InputSeed: 42}
	runs, offloaded := 0, 0
	for _, spec := range programs.All() {
		if spec.Name == "canneal" || spec.Name == "x264" {
			continue
		}
		app := spec.Build(params)
		for _, c := range configs {
			var inline, forced string
			withOffloadMin(neverOffload, func() { inline = runFingerprint(c.cfg, app) })
			withOffloadMin(1, func() { forced = runFingerprint(c.cfg, app) })
			if !strings.HasSuffix(inline, ", 0 offloads") {
				t.Fatalf("%s/%s: %s with offloading disabled", spec.Name, c.name, inline)
			}
			if sameButOffloads(forced) != sameButOffloads(inline) {
				t.Errorf("%s/%s: every Work offloaded: %s\n  inline: %s", spec.Name, c.name, forced, inline)
			}
			runs++
			if !strings.HasSuffix(forced, ", 0 offloads") {
				offloaded++
			}
		}
	}
	if offloaded < runs*9/10 {
		t.Errorf("only %d of %d runs offloaded anything", offloaded, runs)
	}
}

// computeAndYield is a program whose driver, main, offloads while three
// workers do: each thread alternates Work, some above the threshold and some
// below it, with a lock-protected update, so the driver's own rejoin
// interleaves with the workers' at every step.
func computeAndYield(rt *qithread.Runtime) uint64 {
	var sum uint64
	rt.Run(func(main *qithread.Thread) {
		m := rt.NewMutex(main, "sum")
		step := func(th *qithread.Thread, i int) {
			v := th.Work(qithread.OffloadThreshold/2 + qithread.OffloadThreshold*int64((i+th.ID())%4))
			m.Lock(th)
			sum = sum*31 + v
			m.Unlock(th)
		}
		var ws []*qithread.Thread
		for w := 0; w < 3; w++ {
			ws = append(ws, main.Create("w", func(th *qithread.Thread) {
				for i := 0; i < 12; i++ {
					step(th, i)
				}
			}))
		}
		for i := 0; i < 12; i++ {
			step(main, i)
			main.Yield()
		}
		for _, w := range ws {
			main.Join(w)
		}
	})
	return sum
}

// TestDriverOffloadsWhileWorkersRun: main, which drives the domain, offloads
// its own Work while workers run and offload theirs. The run records the
// inline run's schedule and output at 1, 2 and 4 Ps, under round robin and
// both clock modes, with exactly the offloads the program declares: one per
// Work of at least the threshold (36 of the 48 here: three sizes of four are
// above it).
func TestDriverOffloadsWhileWorkersRun(t *testing.T) {
	for _, mode := range []qithread.Mode{qithread.RoundRobin, qithread.LogicalClock, qithread.VirtualParallel} {
		cfg := qithread.Config{Mode: mode, Policies: qithread.AllPolicies}
		var inline string
		withOffloadMin(neverOffload, func() { inline = runFingerprint(cfg, computeAndYield) })
		for _, procs := range []int{1, 2, 4} {
			prev := runtime.GOMAXPROCS(procs)
			got := runFingerprint(cfg, computeAndYield)
			runtime.GOMAXPROCS(prev)
			if sameButOffloads(got) != sameButOffloads(inline) || !strings.HasSuffix(got, ", 36 offloads") {
				t.Errorf("%v at GOMAXPROCS=%d: %s\n  inline: %s, want 36 offloads", mode, procs, got, inline)
			}
		}
	}
}

// computeInPCSSection is a PCS program whose lock holder computes inside its
// section, offloaded, and asks for the turn after it, while a contender waits
// for the lock outside the turn and a third thread computes beside them. With
// park, the holder parks inside its first section on a semaphore nobody
// posts.
func computeInPCSSection(rt *qithread.Runtime, park bool) uint64 {
	const n = 4 * qithread.OffloadThreshold
	var sum uint64
	rt.Run(func(main *qithread.Thread) {
		hot := rt.NewPCSMutex(main, "hot")
		never := rt.NewSem(main, "never", 0)
		holder := main.Create("holder", func(w *qithread.Thread) {
			for i := 0; i < 3; i++ {
				hot.Lock(w)
				sum += w.Work(n)
				if park {
					never.Wait(w)
				}
				hot.Unlock(w)
				w.Yield()
			}
		})
		contender := main.Create("contender", func(w *qithread.Thread) {
			for i := 0; i < 3; i++ {
				hot.Lock(w)
				sum = sum*31 + w.Work(n/2)
				hot.Unlock(w)
			}
		})
		bystander := main.Create("bystander", func(w *qithread.Thread) {
			for i := 0; i < 3; i++ {
				sum ^= w.Work(n)
				w.Yield()
			}
		})
		main.Join(holder)
		main.Join(contender)
		main.Join(bystander)
	})
	return sum
}

// runWithin runs fn on a goroutine of its own and returns what it returns, or
// fails the test after ten seconds: a domain that reports a deadlock parks its
// driver for good once the handler returns.
func runWithin(t *testing.T, what string, fn func() string) string {
	t.Helper()
	done := make(chan string, 1)
	go func() { done <- fn() }()
	select {
	case s := <-done:
		return s
	case <-time.After(10 * time.Second):
		t.Fatalf("%s hung", what)
		return ""
	}
}

// TestPCSOffloadDeterministic: under Config.PCS, threads contending a lock
// taken outside the turn while their Work is offloaded record the same
// schedule, makespan and output twenty times out of twenty at 1, 2 and 4 Ps,
// with the nine offloads the program declares, and no deadlock is reported
// while a computation is in flight: when the contender's retries have failed,
// the driver rejoins the computing holder, and the rejoin sends it back to
// the contender, whose lock the holder has released by the time it next asks
// for the turn. (Which thread takes a PCS lock first depends on which threads
// have run, as an ad-hoc busy-wait's poll does, so a PCS run is a function of
// the program but not the inline run's.)
func TestPCSOffloadDeterministic(t *testing.T) {
	cfg := qithread.Config{Mode: qithread.RoundRobin, Policies: qithread.AllPolicies, PCS: true, Record: true}
	run := func() string {
		deadlocks := 0
		fp := runFingerprint(cfg, func(rt *qithread.Runtime) uint64 {
			rt.Scheduler().SetDeadlockHandler(func(string) { deadlocks++ })
			return computeInPCSSection(rt, false)
		})
		return fmt.Sprintf("%s, %d deadlocks", fp, deadlocks)
	}
	var want string
	for _, procs := range []int{1, 2, 4} {
		prev := runtime.GOMAXPROCS(procs)
		for i := 0; i < 20; i++ {
			got := runWithin(t, "a PCS run with offloaded Work", run)
			if want == "" {
				want = got
				if !strings.HasSuffix(got, ", 9 offloads, 0 deadlocks") {
					t.Fatalf("GOMAXPROCS=%d: %s, want 9 offloads and no deadlock", procs, got)
				}
			} else if got != want {
				t.Fatalf("GOMAXPROCS=%d, run %d: %s\n  run 0: %s", procs, i, got, want)
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}

// TestPCSOffloadDeadlockReported: a holder that computes inside its PCS
// section, offloaded, and then parks there for good leaves its contender a
// lock nobody can release. Once the computation is rejoined that is a
// deadlock the domain reports, naming the contender in the off-turn queue.
func TestPCSOffloadDeadlockReported(t *testing.T) {
	rt := qithread.New(qithread.Config{Mode: qithread.RoundRobin, Policies: qithread.AllPolicies, PCS: true})
	deadlock := make(chan string, 1)
	rt.Scheduler().SetDeadlockHandler(func(msg string) { deadlock <- msg })
	go computeInPCSSection(rt, true)
	select {
	case msg := <-deadlock:
		if !strings.Contains(msg, "offTurn: [T2(contender)]") {
			t.Fatalf("deadlock handler got %q, want the off-turn queue named", msg)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a contender waiting outside the turn on a lock whose holder parked after computing was never reported")
	}
}

// TestOffloadAllocatesNothing: at two Ps, where a helper takes the jobs, an
// offloaded Work beside a runnable partner allocates nothing in steady state:
// the job records are recycled and the helper is started once. The count is
// the fewest heap allocations of five batches of 200, so a batch a background
// goroutine of another test allocated into is discarded.
func TestOffloadAllocatesNothing(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	best := ^uint64(0)
	rt := qithread.New(qithread.Config{Mode: qithread.RoundRobin, Policies: qithread.AllPolicies})
	rt.Run(func(main *qithread.Thread) {
		done := false
		partner := main.Create("partner", func(w *qithread.Thread) {
			for !done {
				w.Work(qithread.OffloadThreshold)
				w.Yield()
			}
		})
		for batch := 0; batch < 6; batch++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < 200; i++ {
				main.Work(qithread.OffloadThreshold)
			}
			runtime.ReadMemStats(&after)
			if n := after.Mallocs - before.Mallocs; batch > 0 && n < best {
				best = n
			}
		}
		done = true
		main.Join(partner)
	})
	if best != 0 {
		t.Errorf("%d allocations in 200 offloaded Work calls, want 0", best)
	}
}
