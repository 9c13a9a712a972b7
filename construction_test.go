package qithread

import (
	"runtime"
	"sync"
	"testing"
)

// minMallocs is the heap allocations of run, the cheapest of five executions
// with settle called before each: the minimum discards an execution that a
// background goroutine of an earlier test (or the GC's own bookkeeping)
// allocated into.
func minMallocs(settle, run func()) uint64 {
	best := ^uint64(0)
	for i := 0; i < 5; i++ {
		settle()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		if n := after.Mallocs - before.Mallocs; n < best {
			best = n
		}
	}
	return best
}

// TestThreadAllocBudget: the construction budget of DESIGN.md §4.13. A
// thread is one heap record — the Thread, with the scheduler's queue node
// embedded and registered in place — plus whatever the scheduler's maps and
// tables amortize to; its grant channel comes from the free list, its body
// reaches the goroutine pool without a closure, and its join object's map
// entries are released when it exits. With both pools warm, the marginal
// cost of one more created-and-joined thread is therefore at most 1.5
// allocations. Both pools are bounded channel free lists, not sync.Pools, so
// the count is exact under -race too (`make alloc-bounds`).
func TestThreadAllocBudget(t *testing.T) {
	const (
		small, large = 32, 64
		maxPerThread = 1.5
	)
	// Fill the goroutine pool: poolCap bodies blocked at once need poolCap
	// workers, and all of them park once released (surplus ones exit).
	gate := make(chan struct{})
	var held sync.WaitGroup
	held.Add(poolCap)
	for i := 0; i < poolCap; i++ {
		spawnBody(func() { held.Done(); <-gate })
	}
	held.Wait()
	close(gate)

	run := func(threads int) {
		rt := New(Config{Mode: RoundRobin, Policies: AllPolicies})
		rt.Run(func(main *Thread) {
			var kids [large]*Thread
			for i := 0; i < threads; i++ {
				kids[i] = main.Create("w", func(*Thread) {})
			}
			for i := 0; i < threads; i++ {
				main.Join(kids[i])
			}
		})
	}
	// The count is deterministic once every worker of the previous run is
	// parked again.
	allocs := func(threads int) uint64 {
		return minMallocs(
			func() {
				eventually(t, "every pool worker is parked", func() bool { return len(idleWorkers) == poolCap })
			},
			func() { run(threads) })
	}
	run(large) // fill the grant-channel free list
	lo, hi := allocs(small), allocs(large)
	perThread := (float64(hi) - float64(lo)) / (large - small)
	t.Logf("New+Run with %d threads: %d allocs, with %d: %d — %.2f per extra thread", small, lo, large, hi, perThread)
	if perThread > maxPerThread {
		t.Fatalf("%.2f allocations per extra created-and-joined thread, want <= %.1f", perThread, maxPerThread)
	}
}

// TestRuntimeAllocBudget: the other half of the construction budget — what a
// runtime costs before it has created a single thread. New plus Run of an
// empty main is three allocations (DESIGN.md §4.13): the Runtime, which holds
// its default domain, the channel registry and the first slot of the domain
// list by value; the Scheduler, which holds its policy stack by value; and the
// main Thread. Exact under -race for the same reason as above.
func TestRuntimeAllocBudget(t *testing.T) {
	const budget = 3
	run := func() { New(Config{Mode: RoundRobin, Policies: AllPolicies}).Run(func(*Thread) {}) }
	run() // the main thread's grant channel is on the free list from here on
	best := minMallocs(func() {}, run)
	t.Logf("New + Run of an empty main: %d allocs", best)
	if best > budget {
		t.Fatalf("New + Run of an empty main makes %d allocations, want <= %d", best, budget)
	}
}
