// Quickstart: a tour of the qithread public API.
//
// A Runtime schedules a multithreaded program deterministically: same
// program + same input = same synchronization schedule, every run. This
// example builds a small producer/consumer program, runs it twice under
// QiThread's all-policies configuration, and shows the two schedules are
// bit-identical; it then runs the same program under the logical-clock
// baseline to show the schedule changes when per-thread work changes.
package main

import (
	"fmt"

	"qithread"
)

// program is a deterministic multithreaded program against the qithread API:
// a producer enqueues items, three consumers process them.
func program(extraWork int64) func(rt *qithread.Runtime) uint64 {
	return func(rt *qithread.Runtime) uint64 {
		var total uint64
		var queue []int
		done := false
		rt.Run(func(main *qithread.Thread) {
			m := rt.NewMutex(main, "queue")
			cv := rt.NewCond(main, "items")
			var workers []*qithread.Thread
			for i := 0; i < 3; i++ {
				main.KeepTurn() // CreateAll instrumentation (no-op unless enabled)
				workers = append(workers, main.Create(fmt.Sprintf("worker%d", i), func(w *qithread.Thread) {
					for {
						m.Lock(w)
						for len(queue) == 0 && !done {
							cv.Wait(w, m)
						}
						if len(queue) == 0 && done {
							m.Unlock(w)
							return
						}
						item := queue[0]
						queue = queue[1:]
						m.Unlock(w)
						// "Process" the item: deterministic synthetic compute.
						r := w.WorkSeeded(uint64(item), 50+extraWork)
						m.Lock(w)
						total += r
						m.Unlock(w)
					}
				}))
			}
			for item := 0; item < 12; item++ {
				main.Work(5)
				m.Lock(main)
				queue = append(queue, item)
				m.Unlock(main)
				cv.Signal(main)
			}
			m.Lock(main)
			done = true
			m.Unlock(main)
			cv.Broadcast(main)
			for _, w := range workers {
				main.Join(w)
			}
		})
		return total
	}
}

func runOnce(cfg qithread.Config, extraWork int64) (uint64, uint64, int) {
	cfg.Record = true
	rt := qithread.New(cfg)
	out := program(extraWork)(rt)
	return out, rt.Fingerprint().DomainHashes[0], len(rt.Trace())
}

func main() {
	qi := qithread.Config{Mode: qithread.RoundRobin, Policies: qithread.AllPolicies}

	fmt.Println("== QiThread (round robin + all semantics-aware policies) ==")
	out1, h1, n1 := runOnce(qi, 0)
	out2, h2, _ := runOnce(qi, 0)
	fmt.Printf("run 1: output %#x, %d sync ops, schedule hash %#x\n", out1, n1, h1)
	fmt.Printf("run 2: output %#x, schedule hash %#x\n", out2, h2)
	if h1 == h2 {
		fmt.Println("-> schedules are bit-identical: the execution is deterministic")
	}

	// Round robin is also STABLE: perturbing the compute does not change
	// the schedule.
	_, h3, _ := runOnce(qi, 37)
	fmt.Printf("run with perturbed compute: schedule hash %#x (stable: %v)\n", h3, h1 == h3)

	fmt.Println()
	fmt.Println("== Logical clock baseline (Kendo/CoreDet style) ==")
	lc := qithread.Config{Mode: qithread.LogicalClock}
	_, l1, _ := runOnce(lc, 0)
	_, l2, _ := runOnce(lc, 0)
	_, l3, _ := runOnce(lc, 37)
	fmt.Printf("same input twice: hashes %#x %#x (deterministic: %v)\n", l1, l2, l1 == l2)
	fmt.Printf("perturbed compute: hash %#x (stable: %v)\n", l3, l1 == l3)
	fmt.Println("-> deterministic but NOT stable: input changes perturb instruction")
	fmt.Println("   counts and therefore schedules (Section 2 of the paper)")
}
