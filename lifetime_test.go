package qithread

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"qithread/internal/trace"
)

// Object-lifetime edge cases: destroying objects that still have parked
// waiters, closing a pipe under blocked readers, and registering new threads
// after earlier ones exited. Each scenario must not only behave correctly but
// schedule identically on every run — lifetime transitions exercise the
// scheduler's bookkeeping teardown paths (DestroyObject, OnExit, wait-list
// recycling), which are exactly where a stray map iteration or freed-slot
// reuse would leak nondeterminism. Every scenario runs under both the
// round-robin and the logical-clock turn mechanisms.

// lifetimeConfigs are the two turn mechanisms with recording on.
func lifetimeConfigs() []Config {
	return []Config{
		{Mode: RoundRobin, Policies: AllPolicies, Record: true},
		{Mode: LogicalClock, Record: true},
	}
}

// runLifetime runs body three times under cfg and asserts every run produces
// the identical schedule hash.
func runLifetime(t *testing.T, cfg Config, body func(rt *Runtime)) {
	t.Helper()
	var ref uint64
	for run := 0; run < 3; run++ {
		rt := New(cfg)
		body(rt)
		h := trace.Hash(rt.Trace())
		if run == 0 {
			ref = h
		} else if h != ref {
			t.Fatalf("run %d: schedule hash %016x, want %016x", run, h, ref)
		}
	}
}

// TestDestroyCondWithParkedWaiters destroys a condition variable while
// waiters are parked on it — a program bug under pthreads, but one the
// scheduler must survive deterministically: the non-empty wait list is
// retained, so the waiters stay wakeable and a later broadcast drains them.
func TestDestroyCondWithParkedWaiters(t *testing.T) {
	for _, cfg := range lifetimeConfigs() {
		t.Run(cfg.Mode.String(), func(t *testing.T) {
			runLifetime(t, cfg, func(rt *Runtime) {
				woken := 0
				rt.Run(func(main *Thread) {
					m := rt.NewMutex(main, "m")
					cv := rt.NewCond(main, "cv")
					ready := rt.NewSem(main, "ready", 0)
					go_ := false
					var kids []*Thread
					for i := 0; i < 3; i++ {
						kids = append(kids, main.Create(fmt.Sprintf("w%d", i), func(w *Thread) {
							m.Lock(w)
							ready.Post(w)
							for !go_ {
								cv.Wait(w, m)
							}
							woken++
							m.Unlock(w)
						}))
					}
					for i := 0; i < 3; i++ {
						ready.Wait(main)
					}
					// All three are now parked inside cv.Wait (ready is posted
					// under m, so each waiter reached Wait before main's Wait
					// returned). Destroy the cv out from under them.
					cv.Destroy(main)
					m.Lock(main)
					go_ = true
					m.Unlock(main)
					cv.Broadcast(main)
					for _, k := range kids {
						main.Join(k)
					}
				})
				if woken != 3 {
					t.Fatalf("%d waiters drained after Destroy, want 3", woken)
				}
			})
		})
	}
}

// TestDestroyMutexRecycled destroys mutexes in a churn loop and re-creates
// fresh ones, checking object teardown does not disturb later scheduling.
func TestDestroyMutexRecycled(t *testing.T) {
	for _, cfg := range lifetimeConfigs() {
		t.Run(cfg.Mode.String(), func(t *testing.T) {
			runLifetime(t, cfg, func(rt *Runtime) {
				total := 0
				rt.Run(func(main *Thread) {
					for round := 0; round < 4; round++ {
						m := rt.NewMutex(main, fmt.Sprintf("m%d", round))
						counter := 0
						var kids []*Thread
						for i := 0; i < 3; i++ {
							kids = append(kids, main.Create("w", func(w *Thread) {
								m.Lock(w)
								counter++
								m.Unlock(w)
							}))
						}
						for _, k := range kids {
							main.Join(k)
						}
						m.Destroy(main)
						total += counter
					}
				})
				if total != 12 {
					t.Fatalf("counter %d, want 12", total)
				}
			})
		})
	}
}

// TestPipeCloseWithBlockedReaders parks several readers on an empty pipe and
// closes it: every reader must return (nil, false), on an identical schedule
// every run.
func TestPipeCloseWithBlockedReaders(t *testing.T) {
	for _, cfg := range lifetimeConfigs() {
		t.Run(cfg.Mode.String(), func(t *testing.T) {
			runLifetime(t, cfg, func(rt *Runtime) {
				okCount, closedCount := 0, 0
				rt.Run(func(main *Thread) {
					p := rt.NewPipe(main, "p", 2)
					mu := rt.NewMutex(main, "counts")
					var kids []*Thread
					for i := 0; i < 3; i++ {
						kids = append(kids, main.Create(fmt.Sprintf("r%d", i), func(w *Thread) {
							for {
								v, ok := p.Recv(w)
								mu.Lock(w)
								if ok {
									okCount += v.(int)
								} else {
									closedCount++
								}
								mu.Unlock(w)
								if !ok {
									return
								}
							}
						}))
					}
					// One message so exactly one reader cycles; the rest park.
					p.Send(main, 1)
					main.Yield()
					p.Close(main)
					for _, k := range kids {
						main.Join(k)
					}
				})
				if okCount != 1 || closedCount != 3 {
					t.Fatalf("okCount=%d closedCount=%d, want 1 and 3", okCount, closedCount)
				}
			})
		})
	}
}

// TestCreateAfterExit registers new threads after earlier generations have
// fully exited, so thread slots go through OnExit and fresh registrations
// interleave with retired IDs — generation k+1 must schedule identically
// every run even though it starts from a scheduler that has seen k exits.
func TestCreateAfterExit(t *testing.T) {
	for _, cfg := range lifetimeConfigs() {
		t.Run(cfg.Mode.String(), func(t *testing.T) {
			runLifetime(t, cfg, func(rt *Runtime) {
				var order []int
				rt.Run(func(main *Thread) {
					m := rt.NewMutex(main, "m")
					for gen := 0; gen < 3; gen++ {
						gen := gen
						var kids []*Thread
						for i := 0; i < 2; i++ {
							i := i
							kids = append(kids, main.Create(fmt.Sprintf("g%dw%d", gen, i), func(w *Thread) {
								m.Lock(w)
								order = append(order, gen*10+i)
								m.Unlock(w)
							}))
						}
						for _, k := range kids {
							main.Join(k)
						}
					}
				})
				if len(order) != 6 {
					t.Fatalf("%d sections ran, want 6", len(order))
				}
			})
		})
	}
}

// TestThreadChurnRetention: a long-running program that keeps creating and
// joining threads holds on to nothing per exited thread beyond its slot in
// the scheduler's id-indexed thread table (one word, amortized to ~8–16 B by
// the table's geometric growth). An exiting thread destroys its own join
// object, so neither the object's name nor the wait list its joiner blocked
// on outlives it — without that, every thread ever created left ~110 B of
// map entries behind.
func TestThreadChurnRetention(t *testing.T) {
	const (
		rounds   = 20000
		maxBytes = 24 // per exited thread
	)
	liveHeap := func() uint64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	churn := func(main *Thread, n int) {
		for i := 0; i < n; i++ {
			main.Join(main.Create("w", func(*Thread) {}))
		}
	}
	var before, after uint64
	rt := New(Config{Mode: RoundRobin, Policies: AllPolicies})
	rt.Run(func(main *Thread) {
		churn(main, 100) // size the maps and the coroutine free list first
		before = liveHeap()
		churn(main, rounds)
		after = liveHeap()
	})
	perThread := (float64(after) - float64(before)) / rounds
	t.Logf("%.1f B retained per exited thread", perThread)
	if perThread > maxBytes {
		t.Fatalf("%d create/join rounds retained %.1f B per exited thread, want <= %d", rounds, perThread, maxBytes)
	}
}

// TestGrantRecycling: what a thread runs on is recycled through
// process-global free lists the moment it exits — its coroutine, and its
// run's host record once the run drains — so a record released by one
// runtime is handed to a thread of another while both are mid-run. Two
// runtimes run the same churn concurrently — waves of short-lived threads
// exiting while sibling threads hand the turn around — and both of them, on
// every round, must reach the same fingerprint: a coroutine or host record
// still in use when recycled, or a granted flag left set, would surface as a
// spurious grant, which either trips the scheduler's turn assertions or
// changes the schedule. The exit-side assertion in internal/core panics on
// the first leftover token. `make check` runs this at -cpu 1,2,4, plain and
// under -race.
func TestGrantRecycling(t *testing.T) {
	const (
		waves    = 50
		width    = 25 // threads per wave: 1,250 per runtime, 10,000 over the test
		spinners = 3
		rounds   = 2
		runtimes = 2
	)
	churn := func(rt *Runtime) {
		rt.Run(func(main *Thread) {
			m := rt.NewMutex(main, "m")
			stop, sum := false, 0
			var spin [spinners]*Thread
			for i := range spin {
				spin[i] = main.Create("spin", func(w *Thread) {
					for {
						m.Lock(w)
						done := stop
						m.Unlock(w)
						if done {
							return
						}
						w.Yield()
					}
				})
			}
			var kids [width]*Thread
			for wave := 0; wave < waves; wave++ {
				for i := range kids {
					if i%2 == 0 {
						kids[i] = main.Create("brief", func(*Thread) {})
						continue
					}
					kids[i] = main.Create("locker", func(w *Thread) {
						m.Lock(w)
						sum++
						m.Unlock(w)
					})
				}
				for _, k := range kids {
					main.Join(k)
				}
			}
			m.Lock(main)
			stop = true
			m.Unlock(main)
			for _, s := range spin {
				main.Join(s)
			}
			if want := waves * (width / 2); sum != want {
				t.Errorf("%d critical sections ran, want %d", sum, want)
			}
		})
	}
	for _, cfg := range lifetimeConfigs() {
		t.Run(cfg.Mode.String(), func(t *testing.T) {
			var want string
			for round := 0; round < rounds; round++ {
				var wg sync.WaitGroup
				var got [runtimes]string
				for r := range got {
					wg.Add(1)
					go func(r int) {
						defer wg.Done()
						rt := New(cfg)
						churn(rt)
						got[r] = rt.Fingerprint().String()
					}(r)
				}
				wg.Wait()
				if round == 0 {
					want = got[0]
				}
				for r, fp := range got {
					if fp != want {
						t.Fatalf("round %d runtime %d: fingerprint %s, want %s", round, r, fp, want)
					}
				}
			}
		})
	}
}
