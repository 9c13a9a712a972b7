package qithread

import (
	"fmt"
	"reflect"
	"strconv"
	"testing"
	"time"
)

// Hosted runs (internal/core/host.go): every scheduler domain of a
// deterministic run without Config.PCS executes on one goroutine. That the
// schedules are the goroutine path's is held by the 705 goldens
// (internal/harness), whose rr-soft-pcs rows run on goroutines, and by the
// lifetime tests, which run every scenario with and without PCS set; these
// tests hold the edges of the selection: what is hosted, what is not, what a
// hosted domain may still talk to, and that what a run recycles is never
// still in use. `make cpu-matrix` runs them under -race at -cpu 1,2,4 — one
// goroutine must behave the same with Ps to spare.

// busyPoolGoroutines counts the pool goroutines that are running a body: the
// ones not parked on the idle list.
func busyPoolGoroutines() int { return poolGoroutines() - len(idleWorkers) }

// TestHostedRunStartsNoGoroutines: the threads of a hosted domain are
// coroutines of their driver, so a run of eight threads takes nothing from
// the goroutine pool, and a launched domain takes exactly one goroutine — its
// driver, root 0 — whatever its root and thread counts. The same run under
// PCS or Nondet takes one goroutine per thread.
func TestHostedRunStartsNoGoroutines(t *testing.T) {
	defer holdIdleWorkers(t)()
	const threads = 8
	// taken runs a program whose every thread is started and none has
	// returned when body measures, and reports how many pool goroutines the
	// run was using then.
	taken := func(run func(measure func())) (n int) {
		settlePool(t)
		before := busyPoolGoroutines()
		run(func() { n = busyPoolGoroutines() - before })
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

	rr := Config{Mode: RoundRobin, Policies: AllPolicies}
	if n := taken(mainRun(rr)); n != 0 {
		t.Errorf("a hosted run of %d threads took %d pool goroutines, want 0", threads+1, n)
	}
	for _, shape := range [][2]int{{1, 0}, {1, 6}, {4, 0}, {3, 5}} {
		if n := taken(domainRun(shape[0], shape[1])); n != 1 {
			t.Errorf("a launched domain of %d roots and %d created threads took %d pool goroutines, want 1 (its driver)", shape[0], shape[1], n)
		}
	}
	for _, cfg := range []Config{{Mode: RoundRobin, Policies: AllPolicies, PCS: true}, {Mode: Nondet}} {
		if n := taken(mainRun(cfg)); n != threads {
			t.Errorf("%v run (PCS %v) of %d created threads took %d pool goroutines, want one each", cfg.Mode, cfg.PCS, threads, n)
		}
	}
}

// TestPCSRunKeepsGoroutines: a PCS mutex is a native lock, so a thread may
// park — in the scheduler, holding no turn — inside a section another thread
// then blocks on natively. Here the holder parks on a semaphore inside the
// section, the contender blocks on the native lock right after its
// thread_begin, and main's Post wakes the holder, which BoostBlocked runs
// ahead of the contender's pending turn. Hosted, the contender would block the
// one goroutine everybody runs on before main could post, and the run would
// hang; Config.PCS therefore keeps a run on the goroutine path, and this
// program completes.
func TestPCSRunKeepsGoroutines(t *testing.T) {
	cfg := Config{Mode: RoundRobin, Policies: AllPolicies, PCS: true, Record: true}
	done := make(chan int)
	go func() {
		sections := 0
		rt := New(cfg)
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
				hot.Lock(w) // blocks natively: the holder is parked with the lock
				sections++
				hot.Unlock(w)
			})
			leave.Post(main)
			main.Join(holder)
			main.Join(contender)
		})
		done <- sections
	}()
	select {
	case n := <-done:
		if n != 2 {
			t.Fatalf("%d PCS sections ran, want 2", n)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("a run that parks inside a contended PCS section hung: PCS runs must keep one goroutine per thread")
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
		for _, d := range rt.allDomains()[1:] {
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
// identically to the same program on the goroutine path — Config.PCS set, no
// PCS object used — twenty times out of twenty.
func TestHostedDomainsTalkThroughXPipes(t *testing.T) {
	cfg := Config{Mode: RoundRobin, Policies: AllPolicies, Record: true}
	ref := cfg
	ref.PCS = true
	_, want := shardedSquares(ref)
	for i := 0; i < 20; i++ {
		if _, got := shardedSquares(cfg); got != want {
			t.Fatalf("hosted run %d: %s, the goroutine path's is %s", i, got, want)
		}
	}
}

// TestHostedRuntimesBackToBack: a hosted run recycles its host records and
// coroutines through process-global free lists, and the next runtime takes
// them at once. 200 multi-domain runtimes run back to back, each launched
// domain draining and recycling on its own driver goroutine, and once Run has
// returned no scheduler of the run may still hold its host record. Under
// -race (`make cpu-matrix`) that check reads what the drain writes last, so a
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
		for _, d := range rt.allDomains() {
			// The host record is unexported core state; reading it is the point.
			if !reflect.ValueOf(d.rec.Sched).Elem().FieldByName("host").IsNil() {
				t.Fatalf("runtime %d: %s still holds its host record after Run returned", i, d)
			}
		}
	}
}
