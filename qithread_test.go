package qithread

import (
	"fmt"
	"strings"
	"testing"

	"qithread/internal/core"
)

// allModes are the runtime configurations most tests exercise.
func allModes() []Config {
	return []Config{
		{Mode: Nondet},
		{Mode: RoundRobin, Policies: NoPolicies},
		{Mode: RoundRobin, Policies: AllPolicies},
		{Mode: RoundRobin, Policies: BoostBlocked},
		{Mode: RoundRobin, Policies: CSWhole},
		{Mode: RoundRobin, Policies: WakeAMAP},
		{Mode: LogicalClock},
	}
}

func TestCreateJoin(t *testing.T) {
	for _, cfg := range allModes() {
		t.Run(cfg.Mode.String()+"/"+cfg.Policies.String(), func(t *testing.T) {
			rt := New(cfg)
			var results [4]uint64
			rt.Run(func(main *Thread) {
				var kids []*Thread
				for i := 0; i < 4; i++ {
					i := i
					kids = append(kids, main.Create(fmt.Sprintf("w%d", i), func(w *Thread) {
						results[i] = w.WorkSeeded(uint64(i+1), 100)
					}))
				}
				for _, k := range kids {
					main.Join(k)
				}
			})
			for i, r := range results {
				if r == 0 {
					t.Fatalf("worker %d did not run", i)
				}
			}
		})
	}
}

func TestMutexCounter(t *testing.T) {
	for _, cfg := range allModes() {
		t.Run(cfg.Mode.String()+"/"+cfg.Policies.String(), func(t *testing.T) {
			rt := New(cfg)
			counter := 0
			rt.Run(func(main *Thread) {
				m := rt.NewMutex(main, "m")
				var kids []*Thread
				for i := 0; i < 4; i++ {
					kids = append(kids, main.Create("w", func(w *Thread) {
						for r := 0; r < 25; r++ {
							m.Lock(w)
							counter++
							m.Unlock(w)
						}
					}))
				}
				for _, k := range kids {
					main.Join(k)
				}
			})
			if counter != 100 {
				t.Fatalf("counter = %d, want 100", counter)
			}
		})
	}
}

func TestCondProducerConsumer(t *testing.T) {
	for _, cfg := range allModes() {
		t.Run(cfg.Mode.String()+"/"+cfg.Policies.String(), func(t *testing.T) {
			rt := New(cfg)
			const blocks = 20
			var queue []int
			consumed := make([]bool, blocks)
			done := false
			rt.Run(func(main *Thread) {
				m := rt.NewMutex(main, "m")
				cv := rt.NewCond(main, "cv")
				var kids []*Thread
				for i := 0; i < 3; i++ {
					kids = append(kids, main.Create("consumer", func(w *Thread) {
						for {
							m.Lock(w)
							for len(queue) == 0 && !done {
								cv.Wait(w, m)
							}
							if len(queue) == 0 && done {
								m.Unlock(w)
								return
							}
							b := queue[0]
							queue = queue[1:]
							m.Unlock(w)
							consumed[b] = true
							w.Work(50)
						}
					}))
				}
				for b := 0; b < blocks; b++ {
					main.Work(5)
					m.Lock(main)
					queue = append(queue, b)
					m.Unlock(main)
					cv.Signal(main)
				}
				m.Lock(main)
				done = true
				m.Unlock(main)
				cv.Broadcast(main)
				for _, k := range kids {
					main.Join(k)
				}
			})
			for b, ok := range consumed {
				if !ok {
					t.Fatalf("block %d not consumed", b)
				}
			}
		})
	}
}

func TestSemaphore(t *testing.T) {
	for _, cfg := range allModes() {
		t.Run(cfg.Mode.String()+"/"+cfg.Policies.String(), func(t *testing.T) {
			rt := New(cfg)
			total := 0
			rt.Run(func(main *Thread) {
				items := rt.NewSem(main, "items", 0)
				m := rt.NewMutex(main, "m")
				var kids []*Thread
				for i := 0; i < 3; i++ {
					kids = append(kids, main.Create("w", func(w *Thread) {
						for r := 0; r < 5; r++ {
							items.Wait(w)
							m.Lock(w)
							total++
							m.Unlock(w)
						}
					}))
				}
				for i := 0; i < 15; i++ {
					items.Post(main)
				}
				for _, k := range kids {
					main.Join(k)
				}
			})
			if total != 15 {
				t.Fatalf("total = %d, want 15", total)
			}
		})
	}
}

func TestBarrierRounds(t *testing.T) {
	for _, cfg := range allModes() {
		t.Run(cfg.Mode.String()+"/"+cfg.Policies.String(), func(t *testing.T) {
			rt := New(cfg)
			const n, rounds = 4, 5
			phase := make([][]int, n) // per-thread observed round numbers
			var round [n]int
			rt.Run(func(main *Thread) {
				b := rt.NewBarrier(main, "b", n)
				var kids []*Thread
				for i := 0; i < n; i++ {
					i := i
					kids = append(kids, main.Create("w", func(w *Thread) {
						for r := 0; r < rounds; r++ {
							round[i] = r
							b.Wait(w)
							// After the barrier every thread must be in
							// the same round.
							for j := 0; j < n; j++ {
								if round[j] != r {
									t.Errorf("thread %d saw thread %d in round %d during round %d", i, j, round[j], r)
								}
							}
							phase[i] = append(phase[i], r)
							b.Wait(w)
						}
					}))
				}
				for _, k := range kids {
					main.Join(k)
				}
			})
			for i := 0; i < n; i++ {
				if len(phase[i]) != rounds {
					t.Fatalf("thread %d completed %d rounds, want %d", i, len(phase[i]), rounds)
				}
			}
		})
	}
}

func TestRWMutex(t *testing.T) {
	for _, cfg := range allModes() {
		t.Run(cfg.Mode.String()+"/"+cfg.Policies.String(), func(t *testing.T) {
			rt := New(cfg)
			shared := 0
			var bad bool
			rt.Run(func(main *Thread) {
				rw := rt.NewRWMutex(main, "rw")
				var kids []*Thread
				for i := 0; i < 2; i++ {
					kids = append(kids, main.Create("writer", func(w *Thread) {
						for r := 0; r < 10; r++ {
							rw.WLock(w)
							shared++
							rw.WUnlock(w)
							w.Work(10)
						}
					}))
				}
				for i := 0; i < 3; i++ {
					kids = append(kids, main.Create("reader", func(w *Thread) {
						for r := 0; r < 10; r++ {
							rw.RLock(w)
							v1 := shared
							w.Work(5)
							v2 := shared
							if v1 != v2 {
								bad = true
							}
							rw.RUnlock(w)
						}
					}))
				}
				for _, k := range kids {
					main.Join(k)
				}
			})
			if bad {
				t.Fatal("reader observed write during read critical section")
			}
			if shared != 20 {
				t.Fatalf("shared = %d, want 20", shared)
			}
		})
	}
}

func TestOnce(t *testing.T) {
	for _, cfg := range allModes() {
		t.Run(cfg.Mode.String()+"/"+cfg.Policies.String(), func(t *testing.T) {
			rt := New(cfg)
			inits := 0
			rt.Run(func(main *Thread) {
				once := rt.NewOnce(main, "init")
				var kids []*Thread
				for i := 0; i < 4; i++ {
					kids = append(kids, main.Create("w", func(w *Thread) {
						once.Do(w, func() { inits++ })
						if inits != 1 {
							t.Errorf("Do returned before init complete: inits=%d", inits)
						}
					}))
				}
				for _, k := range kids {
					main.Join(k)
				}
			})
			if inits != 1 {
				t.Fatalf("inits = %d, want 1", inits)
			}
		})
	}
}

// pbzip2Skeleton is the simplified pbzip2 program of Figure 1a: a producer
// reads blocks and signals a condition variable; consumers dequeue and
// compress. It returns the runtime so callers can inspect the trace, and a
// per-consumer count of compressed blocks.
func pbzip2Skeleton(cfg Config, nConsumers, nBlocks int, produceWork, consumeWork int64) (rtOut *Runtime, compressedBy []int) {
	cfg.Record = true
	rt := New(cfg)
	compressedBy = make([]int, nConsumers)
	var queue []int
	remaining := nBlocks
	rt.Run(func(main *Thread) {
		m := rt.NewMutex(main, "m")
		cv := rt.NewCond(main, "cv")
		var kids []*Thread
		for i := 0; i < nConsumers; i++ {
			i := i
			kids = append(kids, main.Create(fmt.Sprintf("consumer%d", i), func(w *Thread) {
				for {
					m.Lock(w)
					for len(queue) == 0 && remaining > 0 {
						cv.Wait(w, m)
					}
					if len(queue) == 0 && remaining == 0 {
						m.Unlock(w)
						return
					}
					queue = queue[1:]
					remaining--
					if remaining == 0 {
						cv.Broadcast(w) // wake consumers parked for exit
					}
					m.Unlock(w)
					compressedBy[i]++
					w.Work(consumeWork) // compress()
				}
			}))
		}
		for b := 0; b < nBlocks; b++ {
			main.Work(produceWork) // read_block(i)
			m.Lock(main)
			queue = append(queue, b)
			m.Unlock(main)
			cv.Signal(main)
		}
		for _, k := range kids {
			main.Join(k)
		}
	})
	return rt, compressedBy
}

// TestFigure1bSchedule reproduces Figure 1b: under vanilla round-robin
// scheduling the pbzip2 skeleton with two consumers serializes — the early
// schedule shows the producer blocking on the lock while consumer 1 takes
// every block. We assert the structural properties of the figure on the
// recorded deterministic trace.
func TestFigure1bSchedule(t *testing.T) {
	rt, compressedBy := pbzip2Skeleton(Config{Mode: RoundRobin, Policies: NoPolicies}, 2, 12, 5, 200)
	tr := rt.Trace()
	if len(tr) == 0 {
		t.Fatal("no trace recorded")
	}
	var lines []string
	for _, e := range tr {
		lines = append(lines, e.String())
	}
	full := strings.Join(lines, "\n")

	// Property 1 (turns 1-5): creates and thread_begins interleave in the
	// round-robin order of Figure 1b: create, begin, create, ..., begin.
	var kinds []core.OpKind
	for _, e := range tr {
		if e.Op == core.OpCreate || e.Op == core.OpThreadBegin {
			kinds = append(kinds, e.Op)
		}
		if len(kinds) == 4 {
			break
		}
	}
	want := []core.OpKind{core.OpCreate, core.OpThreadBegin, core.OpCreate, core.OpThreadBegin}
	for i := range want {
		if kinds[i] != want[i] {
			t.Errorf("create/begin order mismatch at %d: got %v\ntrace:\n%s", i, kinds, full)
			break
		}
	}

	// Property 2: the producer's lock blocks at least once (turn 6 of the
	// figure): consumers grab the mutex first under round robin.
	sawProducerBlock := false
	for _, e := range tr {
		if e.TID == 0 && e.Op == core.OpMutexLock && e.Status == core.StatusBlocked {
			sawProducerBlock = true
			break
		}
	}
	if !sawProducerBlock {
		t.Errorf("producer never blocked on the mutex\ntrace:\n%s", full)
	}

	// Property 3 (the point of the figure): execution serializes — one
	// consumer compresses every block.
	if compressedBy[0] != 12 || compressedBy[1] != 0 {
		t.Errorf("vanilla round robin should serialize: compressedBy = %v, want [12 0]", compressedBy)
	}
}

// TestWakeAMAPBalancesPbzip2 checks Section 3.4: with the QiThread policies
// (WakeAMAP in particular) the consumers share the blocks instead of
// serializing.
func TestWakeAMAPBalancesPbzip2(t *testing.T) {
	_, compressedBy := pbzip2Skeleton(Config{Mode: RoundRobin, Policies: AllPolicies}, 2, 12, 5, 200)
	if compressedBy[0] == 0 || compressedBy[1] == 0 {
		t.Fatalf("all policies should balance consumers: compressedBy = %v", compressedBy)
	}
}

// TestDeterminismAcrossRuns asserts the central guarantee: the same program
// and input yield bit-identical schedules on every run, under both
// deterministic base policies.
func TestDeterminismAcrossRuns(t *testing.T) {
	for _, cfg := range []Config{
		{Mode: RoundRobin, Policies: NoPolicies},
		{Mode: RoundRobin, Policies: AllPolicies},
		{Mode: LogicalClock},
	} {
		t.Run(cfg.Mode.String()+"/"+cfg.Policies.String(), func(t *testing.T) {
			var ref []Event
			for run := 0; run < 3; run++ {
				rt, _ := pbzip2Skeleton(cfg, 3, 15, 3, 60)
				tr := rt.Trace()
				if run == 0 {
					ref = tr
					continue
				}
				if len(tr) != len(ref) {
					t.Fatalf("run %d: trace length %d != %d", run, len(tr), len(ref))
				}
				for i := range tr {
					if tr[i] != ref[i] {
						t.Fatalf("run %d: trace diverges at %d: %v vs %v", run, i, tr[i], ref[i])
					}
				}
			}
		})
	}
}

// TestCreateAllKeepsTurn verifies the CreateAll policy: with KeepTurn armed a
// creation loop runs back to back (all creates precede all thread_begins).
func TestCreateAllKeepsTurn(t *testing.T) {
	run := func(policies Policy) []core.OpKind {
		rt := New(Config{Mode: RoundRobin, Policies: policies, Record: true})
		rt.Run(func(main *Thread) {
			var kids []*Thread
			for i := 0; i < 4; i++ {
				if i+1 < 4 {
					main.KeepTurn()
				}
				kids = append(kids, main.Create("w", func(w *Thread) {
					w.Work(10)
				}))
			}
			for _, k := range kids {
				main.Join(k)
			}
		})
		var kinds []core.OpKind
		for _, e := range rt.Trace() {
			if e.Op == core.OpCreate || e.Op == core.OpThreadBegin {
				kinds = append(kinds, e.Op)
			}
		}
		return kinds
	}
	withPolicy := run(CreateAll)
	for i := 0; i < 4; i++ {
		if withPolicy[i] != core.OpCreate {
			t.Fatalf("CreateAll: creation loop interleaved: %v", withPolicy)
		}
	}
	without := run(NoPolicies)
	interleaved := false
	for i := 1; i < 4; i++ {
		if without[i] == core.OpThreadBegin && i < 4 {
			interleaved = true
		}
	}
	if !interleaved {
		t.Fatalf("vanilla round robin should interleave create loop: %v", without)
	}
}

// TestCSWholeSingleTurn verifies the CSWhole policy: a short critical section
// executes lock and unlock in consecutive trace positions with no other
// thread's operation in between.
func TestCSWholeSingleTurn(t *testing.T) {
	rt := New(Config{Mode: RoundRobin, Policies: CSWhole, Record: true})
	rt.Run(func(main *Thread) {
		m := rt.NewMutex(main, "m")
		var kids []*Thread
		for i := 0; i < 4; i++ {
			kids = append(kids, main.Create("w", func(w *Thread) {
				for r := 0; r < 5; r++ {
					m.Lock(w)
					w.Work(1)
					m.Unlock(w)
					w.Work(20)
				}
			}))
		}
		for _, k := range kids {
			main.Join(k)
		}
	})
	tr := rt.Trace()
	for i, e := range tr {
		if e.Op == core.OpMutexLock && e.Status != core.StatusBlocked {
			if i+1 >= len(tr) {
				break
			}
			next := tr[i+1]
			if next.TID != e.TID {
				t.Fatalf("CSWhole violated: op after lock is %v (lock was %v)", next, e)
			}
		}
	}
}

func TestYieldSleepDummy(t *testing.T) {
	for _, cfg := range allModes() {
		t.Run(cfg.Mode.String()+"/"+cfg.Policies.String(), func(t *testing.T) {
			rt := New(cfg)
			rt.Run(func(main *Thread) {
				k := main.Create("w", func(w *Thread) {
					w.Yield()
					w.Sleep(3)
					w.DummySync()
				})
				main.Join(k)
			})
		})
	}
}

func TestSoftBarrierGroups(t *testing.T) {
	rt := New(Config{Mode: RoundRobin, SoftBarriers: true, Record: true})
	arrivedTogether := 0
	rt.Run(func(main *Thread) {
		sb := rt.NewSoftBarrier(main, "sb", 3)
		m := rt.NewMutex(main, "m")
		var kids []*Thread
		for i := 0; i < 3; i++ {
			kids = append(kids, main.Create("w", func(w *Thread) {
				sb.Arrive(w)
				m.Lock(w)
				arrivedTogether++
				m.Unlock(w)
			}))
		}
		for _, k := range kids {
			main.Join(k)
		}
	})
	if arrivedTogether != 3 {
		t.Fatalf("soft barrier lost arrivals: %d", arrivedTogether)
	}
}

func TestSoftBarrierTimeout(t *testing.T) {
	// Only 2 of 3 threads arrive; the soft barrier must release them after
	// its deterministic timeout rather than hang. With nothing else runnable
	// the scheduler jumps straight to the deadline, so 256 turns cost no more
	// than 10 would.
	rt := New(Config{Mode: RoundRobin, SoftBarriers: true})
	rt.Run(func(main *Thread) {
		sb := rt.NewSoftBarrier(main, "sb", 3)
		var kids []*Thread
		for i := 0; i < 2; i++ {
			kids = append(kids, main.Create("w", func(w *Thread) {
				sb.Arrive(w)
			}))
		}
		for _, k := range kids {
			main.Join(k)
		}
	})
}

func TestPCSBypass(t *testing.T) {
	// A PCS mutex under Config.PCS leaves no deterministic trace entries
	// for its lock/unlock operations.
	rt := New(Config{Mode: RoundRobin, PCS: true, Record: true})
	rt.Run(func(main *Thread) {
		m := rt.NewPCSMutex(main, "hot")
		var kids []*Thread
		for i := 0; i < 2; i++ {
			kids = append(kids, main.Create("w", func(w *Thread) {
				for r := 0; r < 10; r++ {
					m.Lock(w)
					m.Unlock(w)
				}
			}))
		}
		for _, k := range kids {
			main.Join(k)
		}
	})
	for _, e := range rt.Trace() {
		if e.Op == core.OpMutexLock || e.Op == core.OpMutexUnlock {
			t.Fatalf("PCS mutex operations appeared in deterministic trace: %v", e)
		}
	}
}

// TestBranchedWakeFigure3 models Figure 3: several "post" threads decrement a
// counter in a critical section and only the last one posts the semaphore;
// the others execute the BranchedWake dummy operation. The program must
// complete under every configuration.
func TestBranchedWakeFigure3(t *testing.T) {
	for _, cfg := range allModes() {
		t.Run(cfg.Mode.String()+"/"+cfg.Policies.String(), func(t *testing.T) {
			rt := New(cfg)
			const nPost = 4
			n := nPost
			rt.Run(func(main *Thread) {
				m := rt.NewMutex(main, "m")
				s := rt.NewSem(main, "s", 0)
				waiter := main.Create("waiter", func(w *Thread) {
					s.Wait(w)
				})
				var kids []*Thread
				for i := 0; i < nPost; i++ {
					kids = append(kids, main.Create("post", func(w *Thread) {
						m.Lock(w)
						n--
						last := n == 0
						m.Unlock(w)
						if last {
							s.Post(w)
						} else {
							w.DummySync()
						}
						w.Work(30)
					}))
				}
				for _, k := range kids {
					main.Join(k)
				}
				main.Join(waiter)
			})
		})
	}
}
