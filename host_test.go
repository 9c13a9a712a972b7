package qithread

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"qithread/internal/core"
	"qithread/internal/trace"
)

// Hosted runs (internal/core/host.go): every scheduler domain of a
// deterministic run executes on one goroutine. That the schedules are the
// ones the seed build recorded on one goroutine per thread is held by the 705
// goldens (internal/harness); these tests hold the edges: what is hosted,
// what is not, what a hosted domain may still talk to, how a contended PCS
// lock waits outside the turn, and that what a run recycles is never still in
// use. `make check` runs them at -cpu 1,2,4, plain and under -race — one
// goroutine must behave the same with Ps to spare.

// spawnedGoroutines counts the live goroutines spawn started that are running
// the closures of fn, a function of this package, or all of them when fn is
// "" (an inlined closure's frame is "qithread.fn.fn.func1.func3.1", another's
// "qithread.fn.func1.1"). A goroutine ends with its body, so the count is
// exact with no settling; with fn set, a goroutine another test froze inside
// its own body does not count.
func spawnedGoroutines(fn string) (n int) {
	buf := make([]byte, 1<<20)
	size := runtime.Stack(buf, true)
	for ; size == len(buf); size = runtime.Stack(buf, true) {
		buf = make([]byte, 2*len(buf))
	}
	for _, g := range strings.Split(string(buf[:size]), "\n\n") {
		if strings.Contains(g, "created by qithread.spawn") && (fn == "" || strings.Contains(g, "qithread."+fn+".")) {
			n++
		}
	}
	return n
}

// eventually polls cond until it holds, for at most ten seconds.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestHostedRunStartsNoGoroutines: the threads of a deterministic domain are
// coroutines of their driver, so a run of eight threads starts no goroutine,
// PCS hints honored or not, and a launched domain starts exactly one — its
// driver, root 0 — whatever its root and thread counts. The same run in
// Nondet mode starts one goroutine per thread. Each count is taken with every
// thread started and none returned.
func TestHostedRunStartsNoGoroutines(t *testing.T) {
	const threads = 8
	taken := func(run func(measure func())) (n int) {
		run(func() { n = spawnedGoroutines(t.Name()) })
		return n
	}
	mainRun := func(cfg Config) func(func()) {
		return func(measure func()) {
			rt := New(cfg)
			rt.Run(func(main *Thread) {
				in := rt.NewBarrier(main, "in", threads+1)
				out := rt.NewBarrier(main, "out", threads+1)
				var kids [threads]*Thread
				for i := range kids {
					kids[i] = main.Create("w"+strconv.Itoa(i), func(w *Thread) {
						in.Wait(w)
						out.Wait(w)
					})
				}
				in.Wait(main)
				measure()
				out.Wait(main)
				for _, k := range kids {
					main.Join(k)
				}
			})
		}
	}
	// domainRun launches a domain of roots roots, root 0 creating kids
	// threads; the other roots yield until root 0 has measured.
	domainRun := func(roots, kids int) func(func()) {
		return func(measure func()) {
			rt := New(Config{Mode: RoundRobin, Policies: AllPolicies})
			d := rt.NewDomain("d")
			measured := false
			d.Start("root0", func(r *Thread) {
				b := rt.NewBarrier(r, "all", kids+1)
				var ks []*Thread
				for i := 0; i < kids; i++ {
					ks = append(ks, r.Create("k"+strconv.Itoa(i), func(w *Thread) {
						b.Wait(w)
						w.Yield()
					}))
				}
				b.Wait(r)
				measure()
				measured = true
				for _, k := range ks {
					r.Join(k)
				}
			})
			for i := 1; i < roots; i++ {
				d.Start("root"+strconv.Itoa(i), func(r *Thread) {
					for !measured {
						r.Yield()
					}
				})
			}
			rt.Run(func(*Thread) { d.Launch() })
		}
	}

	for _, cfg := range []Config{{Mode: RoundRobin, Policies: AllPolicies}, {Mode: RoundRobin, Policies: AllPolicies, PCS: true}} {
		if n := taken(mainRun(cfg)); n != 0 {
			t.Errorf("a hosted run (PCS %v) of %d threads started %d goroutines, want 0", cfg.PCS, threads+1, n)
		}
	}
	for _, shape := range [][2]int{{1, 0}, {1, 6}, {4, 0}, {3, 5}} {
		if n := taken(domainRun(shape[0], shape[1])); n != 1 {
			t.Errorf("a launched domain of %d roots and %d created threads started %d goroutines, want 1 (its driver)", shape[0], shape[1], n)
		}
	}
	if n := taken(mainRun(Config{Mode: Nondet})); n != threads {
		t.Errorf("a Nondet run of %d created threads started %d goroutines, want one each", threads, n)
	}
}

// TestRunLeavesNoGoroutines: a finished run leaves nothing behind. Every
// goroutine spawn started for a run — a Nondet thread, a launched domain's
// driver — ends with its body, so once Run has returned none is left waiting
// for a later run.
func TestRunLeavesNoGoroutines(t *testing.T) {
	for _, r := range []struct {
		name string
		run  func()
	}{
		{"a Nondet run of 8 threads", func() {
			rt := New(Config{Mode: Nondet})
			rt.Run(func(main *Thread) {
				var kids [8]*Thread
				for i := range kids {
					kids[i] = main.Create("w"+strconv.Itoa(i), func(*Thread) {})
				}
				for _, k := range kids {
					main.Join(k)
				}
			})
		}},
		{"a run with a launched domain", func() {
			rt := New(Config{Mode: RoundRobin, Policies: AllPolicies})
			d := rt.NewDomain("d")
			d.Start("root", func(r *Thread) { r.Join(r.Create("k", func(*Thread) {})) })
			rt.Run(func(*Thread) { d.Launch() })
		}},
	} {
		r.run()
		eventually(t, "no goroutine of "+r.name+" is left", func() bool { return spawnedGoroutines("") == 0 })
	}
}

// parkInPCSSection runs a program in which a thread parks — in the
// scheduler, holding no turn — inside a PCS section another thread then
// finds locked: the holder waits on a semaphore inside the section, and the
// contender, created once the holder is inside, asks for the lock right after
// its thread_begin and yields outside the turn. With post, main's Post wakes
// the holder, which BoostBlocked runs ahead of the contender's pending turn,
// and both sections run; without, nothing ever wakes the holder. measure is
// called with both threads started.
func parkInPCSSection(rt *Runtime, post bool, measure func()) (sections int) {
	rt.Run(func(main *Thread) {
		hot := rt.NewPCSMutex(main, "hot")
		inside := rt.NewSem(main, "inside", 0)
		leave := rt.NewSem(main, "leave", 0)
		holder := main.Create("holder", func(w *Thread) {
			hot.Lock(w)
			inside.Post(w)
			leave.Wait(w) // parks inside the PCS section
			sections++
			hot.Unlock(w)
		})
		inside.Wait(main)
		contender := main.Create("contender", func(w *Thread) {
			hot.Lock(w) // taken: yields outside the turn until the holder lets go
			sections++
			hot.Unlock(w)
		})
		measure()
		if post {
			leave.Post(main)
		}
		main.Join(holder)
		main.Join(contender)
	})
	return sections
}

// TestPCSRunHosted: a PCS run is hosted like any deterministic run. A
// contended PCS lock whose holder is parked inside its section does not block
// the goroutine everybody runs on: the contender waits outside the turn, the
// run completes, starts no goroutine, and records the same schedule twenty
// times out of twenty.
func TestPCSRunHosted(t *testing.T) {
	var want string
	for i := 0; i < 20; i++ {
		done := make(chan string)
		go func() {
			rt := New(Config{Mode: RoundRobin, Policies: AllPolicies, PCS: true, Record: true})
			n := 0
			sections := parkInPCSSection(rt, true, func() { n = spawnedGoroutines("parkInPCSSection") })
			done <- fmt.Sprintf("%d sections, %d goroutines, schedule %016x", sections, n, trace.Hash(rt.Trace()))
		}()
		select {
		case got := <-done:
			if i == 0 {
				want = got
				if !strings.HasPrefix(got, "2 sections, 0 goroutines,") {
					t.Fatalf("run 0: %s, want 2 sections on no goroutine of their own", got)
				}
			} else if got != want {
				t.Fatalf("run %d: %s, run 0: %s", i, got, want)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("run %d: a run that parks inside a contended PCS section hung", i)
		}
	}
}

// TestPCSOffTurnDeadlock: when nothing will ever wake the holder, the
// contender waiting outside the turn is a deadlock the domain reports — with
// the contender named in the off-turn queue — not a silent spin.
func TestPCSOffTurnDeadlock(t *testing.T) {
	rt := New(Config{Mode: RoundRobin, Policies: AllPolicies, PCS: true})
	deadlock := make(chan string, 1)
	rt.Scheduler().SetDeadlockHandler(func(msg string) { deadlock <- msg })
	go parkInPCSSection(rt, false, func() {}) // the driver parks for good once the handler returns
	select {
	case msg := <-deadlock:
		if !strings.Contains(msg, "deterministic deadlock") || !strings.Contains(msg, "offTurn: [T2(contender)]") {
			t.Fatalf("deadlock handler got %q, want the off-turn queue named", msg)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a contender waiting outside the turn on a lock nobody can release was never reported")
	}
}

// TestDeadlockReportsPinned: what a domain reports when none of its threads
// can run again, byte for byte — every thread blocked, in the default domain
// and in a launched one; a contender outside the turn on a lock nobody can
// release; and a replay whose next event belongs to a thread the program never
// creates while the threads it did create wait, which is a divergence raised
// out of Run, not a deadlock. The handler ends the goroutine it runs on, the
// domain's driver.
func TestDeadlockReportsPinned(t *testing.T) {
	waitForever := func(rt *Runtime, t *Thread) {
		m, c := rt.NewMutex(t, "m"), rt.NewCond(t, "c")
		t.Join(t.Create("w", func(w *Thread) { m.Lock(w); c.Wait(w, m) }))
	}
	waitOnce := func(rt *Runtime, main *Thread) {
		m, c := rt.NewMutex(main, "m"), rt.NewCond(main, "c")
		w := main.Create("w", func(w *Thread) { m.Lock(w); c.Wait(w, m); m.Unlock(w) })
		main.Yield()
		m.Lock(main)
		c.Signal(main)
		m.Unlock(main)
		main.Join(w)
	}
	rec := New(Config{Mode: RoundRobin, Record: true})
	rec.Run(func(main *Thread) { waitOnce(rec, main) })
	schedule := rec.Trace()
	cut := slices.IndexFunc(schedule, func(e Event) bool { return e.TID == 1 && e.Op == core.OpCondWait }) + 1
	schedule = append(schedule[:cut:cut], Event{TID: 5, Op: core.OpYield})

	for _, c := range []struct {
		name string
		cfg  Config
		run  func(rt *Runtime, main *Thread)
		want string
	}{
		{"blocked", Config{Mode: RoundRobin, Policies: AllPolicies}, waitForever,
			"handler: core: deterministic deadlock in domain 0: all threads blocked without timeout\n" +
				"  turn=6 holder=<nil> stack=round-robin|BoostBlocked>CreateAll>CSWhole>WakeAMAP>BranchedWake\n" +
				"  runQ: (empty)\n  wakeQ: (empty)\n  waitQ[cond:c#2]: T1(w)\n  waitQ[thread:w#3]: T0(main)\n"},
		{"launched", Config{Mode: RoundRobin}, func(rt *Runtime, main *Thread) {
			d := rt.NewDomain("d")
			d.Start("r", func(r *Thread) { waitForever(rt, r) })
			d.Launch()
		}, "handler: core: deterministic deadlock in domain 1: all threads blocked without timeout\n" +
			"  turn=8 holder=<nil> stack=round-robin\n" +
			"  runQ: (empty)\n  wakeQ: (empty)\n  waitQ[cond:c#3]: T1(w)\n  waitQ[thread:w#4]: T0(r)\n"},
		{"off-turn", Config{Mode: RoundRobin, Policies: AllPolicies, PCS: true}, nil,
			"handler: core: deterministic deadlock in domain 0: every thread outside the turn waits for a lock nobody can release\n" +
				"  offTurn: [T2(contender)]\n" +
				"  turn=12 holder=<nil> stack=round-robin|BoostBlocked>CreateAll>CSWhole>WakeAMAP>BranchedWake\n" +
				"  runQ: T2(contender)\n  wakeQ: (empty)\n  waitQ[sem:leave#3]: T1(holder)\n  waitQ[thread:holder#4]: T0(main)\n"},
		{"replay", Config{Mode: RoundRobin, Replay: schedule}, waitOnce,
			"core: replay divergence in domain 0 at op index 8: expected T5 to run yield but no thread of the domain can run (2 created)\n" +
				"  turn=8 holder=<nil> stack=round-robin\n" +
				"  runQ: T0(main)\n  wakeQ: (empty)\n  waitQ[cond:c#2]: T1(w)\n"},
	} {
		rt := New(c.cfg)
		got := make(chan any, 1)
		rt.Scheduler().SetDeadlockHandler(func(msg string) {
			got <- "handler: " + msg
			runtime.Goexit()
		})
		go func() {
			defer func() {
				if r := recover(); r != nil {
					got <- r
				}
			}()
			if c.run == nil {
				parkInPCSSection(rt, false, func() {})
			} else {
				rt.Run(func(main *Thread) { c.run(rt, main) })
			}
		}()
		select {
		case r := <-got:
			if msg, _ := r.(string); msg != c.want {
				t.Errorf("%s: got\n%s\nwant\n%s", c.name, msg, c.want)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: nothing was reported", c.name)
		}
	}
}

// shardedSquares is a fan-out/fan-in over three shard domains: a feeder
// thread per shard in the default domain sends jobs through one XPipe and
// collects squares through another, each blocked natively in the pipe —
// holding its domain's turn, as the boundary contract has it — on a peer
// domain that runs on a goroutine of its own. A shard squares each job on a
// thread it creates and joins, beside a second root that only yields, so
// every shard has coroutines to start and recycle besides its driver. The
// finished runtime is returned with its fingerprint and the sum.
func shardedSquares(cfg Config) (*Runtime, string) {
	const (
		shards = 3
		jobs   = 12
	)
	rt := New(cfg)
	var tasks, results [shards]*XPipe
	for k := range tasks {
		d := rt.NewDomain("shard" + strconv.Itoa(k))
		tasks[k] = rt.NewXPipe("task"+strconv.Itoa(k), rt.Domain(0), d, 2)
		results[k] = rt.NewXPipe("result"+strconv.Itoa(k), d, rt.Domain(0), 1)
		d.Start("square", func(x *Thread) {
			for {
				v, ok := tasks[k].Recv(x)
				if !ok {
					results[k].Close(x)
					return
				}
				var sq int
				x.Join(x.Create("mul", func(*Thread) { sq = v.(int) * v.(int) }))
				results[k].Send(x, sq)
			}
		})
		d.Start("idle", func(x *Thread) {
			for i := 0; i < 3; i++ {
				x.Yield()
			}
		})
	}
	sum := 0
	rt.Run(func(main *Thread) {
		for _, d := range registered(rt, &rt.domains)[1:] {
			d.Launch()
		}
		m := rt.NewMutex(main, "sum")
		var feeders [shards]*Thread
		for k := range feeders {
			feeders[k] = main.Create("feed"+strconv.Itoa(k), func(w *Thread) {
				for j := 0; j < jobs; j++ {
					tasks[k].Send(w, j)
					v, _ := results[k].Recv(w)
					m.Lock(w)
					sum += v.(int)
					m.Unlock(w)
				}
				tasks[k].Close(w)
			})
		}
		for _, f := range feeders {
			main.Join(f)
		}
	})
	return rt, fmt.Sprintf("fingerprint %s sum %d", rt.Fingerprint(), sum)
}

// TestHostedDomainsTalkThroughXPipes: four hosted domains, each on its own
// goroutine, talk only through XPipes, and the run ends and fingerprints
// twenty times out of twenty as the same program did with one goroutine per
// thread, in the last build that had that path.
func TestHostedDomainsTalkThroughXPipes(t *testing.T) {
	const want = "fingerprint d0:5c87401805e69b48 d1:e990ddaf40a8cf8b d2:36b427cde6ca990f d3:89347847869ee78b x:8bc2952269ad3736 sum 1518"
	cfg := Config{Mode: RoundRobin, Policies: AllPolicies, Record: true}
	for i := 0; i < 20; i++ {
		if _, got := shardedSquares(cfg); got != want {
			t.Fatalf("hosted run %d: %s, want %s", i, got, want)
		}
	}
}

// TestHostedRuntimesBackToBack: a hosted run recycles its host records and
// coroutines through process-global free lists, and the next runtime takes
// them at once. 200 multi-domain runtimes run back to back, each launched
// domain draining and recycling on its own driver goroutine, and once Run has
// returned no scheduler of the run may still hold its host record. Under
// -race (`make check`) that check reads what the drain writes last, so a
// driver counted finished before its drain is a reported race even when the
// drain happens to have ended; a record handed out twice shows up as a
// changed fingerprint.
func TestHostedRuntimesBackToBack(t *testing.T) {
	cfg := Config{Mode: RoundRobin, Policies: AllPolicies, Record: true}
	var want string
	for i := 0; i < 200; i++ {
		rt, got := shardedSquares(cfg)
		if i == 0 {
			want = got
		} else if got != want {
			t.Fatalf("runtime %d: %s, the first's is %s", i, got, want)
		}
		for _, d := range registered(rt, &rt.domains) {
			// The host record is unexported core state; reading it is the point.
			if !reflect.ValueOf(d.sched).Elem().FieldByName("host").IsNil() {
				t.Fatalf("runtime %d: %s still holds its host record after Run returned", i, d)
			}
		}
	}
}
