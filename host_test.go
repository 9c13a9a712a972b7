package qithread

import (
	"strconv"
	"testing"
	"time"
)

// Hosted runs (internal/core/host.go): a run whose Config.Chooser is set
// executes its default domain on the goroutine that called Run. That the
// schedules are the goroutine path's is held by the 705 goldens' hosted pass
// (internal/harness) and the lifetime tests' hosted rounds; these tests hold
// the edges of the selection: what is hosted, what is not, and what a hosted
// domain may still talk to. `make cpu-matrix` runs them under -race at -cpu
// 1,2,4 — one goroutine must behave the same with Ps to spare.

// TestHostedRunStartsNoGoroutines: the threads of a hosted run are coroutines
// of their driver, so a run of eight threads takes nothing from the goroutine
// pool and adds nothing to it; the same run without a Chooser takes eight.
func TestHostedRunStartsNoGoroutines(t *testing.T) {
	defer holdIdleWorkers(t)()
	const threads = 8
	run := func(cfg Config) (peak int) {
		rt := New(cfg)
		rt.Run(func(main *Thread) {
			b := rt.NewBarrier(main, "all", threads+1)
			var kids [threads]*Thread
			for i := range kids {
				kids[i] = main.Create("w"+strconv.Itoa(i), func(w *Thread) {
					b.Wait(w)
					w.Yield()
				})
			}
			b.Wait(main)
			peak = poolGoroutines() // every body has started and none has returned
			for _, k := range kids {
				main.Join(k)
			}
		})
		return peak
	}
	cfg := Config{Mode: RoundRobin, Policies: AllPolicies}
	before := poolGoroutines()
	if peak := run(hostedConfig(cfg)); peak != before {
		t.Errorf("pool has %d goroutines inside a hosted run, had %d before it: a hosted thread took a goroutine", peak, before)
	}
	if peak := run(cfg); peak != before+threads {
		t.Errorf("pool has %d goroutines inside a goroutine-path run of %d threads, had %d before it", peak, threads, before)
	}
}

// TestPCSRunKeepsGoroutines: a PCS mutex is a native lock, so a thread may
// park — in the scheduler, holding no turn — inside a section another thread
// then blocks on natively. Here the holder parks on a semaphore inside the
// section, the contender blocks on the native lock right after its
// thread_begin, and main's Post wakes the holder, which BoostBlocked runs
// ahead of the contender's pending turn. Hosted, the contender would block the
// one goroutine everybody runs on before main could post, and the run would
// hang; Config.PCS therefore keeps a Chooser run on the goroutine path, and
// this program completes.
func TestPCSRunKeepsGoroutines(t *testing.T) {
	cfg := hostedConfig(Config{Mode: RoundRobin, Policies: AllPolicies, PCS: true, Record: true})
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
		t.Fatal("a Chooser run that parks inside a contended PCS section hung: PCS runs must keep one goroutine per thread")
	}
}

// TestHostedDomainTalksToGoroutineDomains: only the default domain of a
// Chooser run is hosted; the other domains keep their goroutines, and a
// hosted thread blocked natively in an XPipe — holding its domain's turn, as
// the boundary contract has it — is blocked on something outside its own
// domain, which makes progress without it. A fan-out/fan-in over three shard
// domains ends, and fingerprints identically to the run without a Chooser,
// twenty times out of twenty.
func TestHostedDomainTalksToGoroutineDomains(t *testing.T) {
	const (
		shards = 3
		jobs   = 12
	)
	run := func(cfg Config) (string, int) {
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
					results[k].Send(x, v.(int)*v.(int))
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
		return rt.Fingerprint().String(), sum
	}
	cfg := Config{Mode: RoundRobin, Policies: AllPolicies, Record: true}
	want, wantSum := run(cfg)
	for i := 0; i < 20; i++ {
		if got, sum := run(hostedConfig(cfg)); got != want || sum != wantSum {
			t.Fatalf("hosted run %d: fingerprint %s sum %d, the goroutine path's is %s sum %d", i, got, sum, want, wantSum)
		}
	}
}
