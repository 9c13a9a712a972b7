package qithread

import (
	"runtime"
	"testing"
	"unsafe"

	"qithread/internal/core"
	"qithread/internal/ingress"
)

// minMallocs is the heap allocations of run, the cheapest of five
// executions: the minimum discards an execution that a background goroutine
// of an earlier test (or the GC's own bookkeeping) allocated into.
func minMallocs(run func()) uint64 {
	best := ^uint64(0)
	for i := 0; i < 5; i++ {
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

// TestRecordSizesPinned: the benchmark's byte metrics are sums of allocation
// size classes, so a record that sits on a class edge turns one more word
// into the next class for every instance a run makes. Thread is 240 B, the
// whole 240 class: one word more and every thread a program creates costs
// 256, three more and 288 (catalog's alloc_bytes_per_op +6.5 %, over its 5 %
// bound — the hosted-run prototype measured it). Cond and Sem fill the 64
// class, RWMutex and Barrier sit at 88 in the 96 class. Runtime has room
// inside the 320 class. The Scheduler has room inside the 1,152 class and is
// where per-run state that must cost the other workloads nothing goes (its
// host pointer).
func TestRecordSizesPinned(t *testing.T) {
	if n := unsafe.Sizeof(Thread{}); n > 240 {
		t.Errorf("Thread is %d B, want <= 240: the next size class is 256; per-thread state goes in core.Thread's padding or the scheduler's host record", n)
	}
	for _, r := range []struct {
		name              string
		size, class, next uintptr
	}{
		{"Cond", unsafe.Sizeof(Cond{}), 64, 80},
		{"Sem", unsafe.Sizeof(Sem{}), 64, 80},
		{"RWMutex", unsafe.Sizeof(RWMutex{}), 96, 112},
		{"Barrier", unsafe.Sizeof(Barrier{}), 96, 112},
	} {
		if r.size > r.class {
			t.Errorf("%s is %d B, want <= %d: the next size class is %d", r.name, r.size, r.class, r.next)
		}
	}
	if n := unsafe.Sizeof(Runtime{}); n > 320 {
		t.Errorf("Runtime is %d B, want <= 320: the next size class is 352", n)
	}
	if n := unsafe.Sizeof(core.Scheduler{}); n > 1152 {
		t.Errorf("core.Scheduler is %d B, want <= 1152: the next size class is 1280", n)
	}
}

// TestThreadAllocBudget: the construction budget of DESIGN.md §4.13. A
// thread is one heap record — the Thread, with the scheduler's queue node
// embedded and registered in place — plus whatever the scheduler's maps and
// tables amortize to; its coroutine comes from the free list, its body
// reaches it without a closure, and its join object's map entries are
// released when it exits. With the free list warm, the marginal cost of one
// more created-and-joined thread is therefore at most 1.5 allocations. The
// free list is a bounded channel, not a sync.Pool, so the count is exact
// under -race too.
func TestThreadAllocBudget(t *testing.T) {
	const (
		small, large = 32, 64
		maxPerThread = 1.5
	)
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
	allocs := func(threads int) uint64 { return minMallocs(func() { run(threads) }) }
	run(large) // fill the coroutine free list
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
	run() // the host record is on the free list from here on
	best := minMallocs(run)
	t.Logf("New + Run of an empty main: %d allocs", best)
	if best > budget {
		t.Fatalf("New + Run of an empty main makes %d allocations, want <= %d", best, budget)
	}
}

// TestGatewayAllocBudget: what an ingress gateway adds to a run, measured as
// the difference between a main thread that creates one and admits its whole
// input and a main thread that does not (DESIGN.md §4.13). Replaying a log it
// is the Gateway record — the ingress gateway and the log cursor are fields of
// it, the choice point reaches the domain's chooser without a closure, the
// runtime's gateway list starts on an inline slot — and the admission queue,
// sized once by the first snapshot (never by QueueCap: 1,024 events of 56 B).
// Live it is those two plus what collecting and recording cost, 16 for this
// input: the collector and the log; per source a port, its quota slot and a
// feeder goroutine (with the test's own source, closure and channel, 6); the
// stage nine events grow through (5) and its successor; and per non-empty
// epoch one logged batch (2). Exact under -race too. The
// parent of the PR that set the budget read 8 and 24.
func TestGatewayAllocBudget(t *testing.T) {
	payload := []byte("advance 0")
	input := &IngressLog{}
	for epoch := int64(1); epoch <= 3; epoch++ {
		input.Batches = append(input.Batches, ingress.Batch{Epoch: epoch,
			Events: []IngressEvent{{Data: payload}, {Data: payload}, {Data: payload}}})
	}
	admitAll := func(main *Thread, gw *Gateway) {
		var buf [2]IngressEvent
		for n, ok, total := 0, true, 0; ok; total += n {
			if n, ok = gw.Admit(main, buf[:]); !ok && total != input.Events() {
				panic("gateway admitted fewer events than its input holds")
			}
		}
	}
	// Every run creates a mutex first: the scheduler's object-name table is
	// made for the first object of a run, whatever that object is.
	run := func(body func(rt *Runtime, main *Thread)) func() {
		return func() {
			rt := New(Config{Mode: RoundRobin, Policies: AllPolicies})
			rt.Run(func(main *Thread) {
				rt.NewMutex(main, "m")
				body(rt, main)
			})
		}
	}
	empty := run(func(*Runtime, *Thread) {})
	replay := run(func(rt *Runtime, main *Thread) {
		admitAll(main, rt.Domain(0).NewGateway("gw", GatewayConfig{MaxBatch: 2, Replay: input}))
	})
	live := run(func(rt *Runtime, main *Thread) {
		gw := rt.Domain(0).NewGateway("gw", GatewayConfig{MaxBatch: 2})
		staged := make(chan struct{})
		gw.AddSource(ingress.FuncSource("feed", func(p *ingress.Port) {
			for i := 0; i < input.Events(); i++ {
				p.Push(payload)
			}
			close(staged)
		}))
		<-staged // one snapshot holds the whole input, so the epochs do not depend on timing
		admitAll(main, gw)
	})
	for _, tc := range []struct {
		name   string
		run    func()
		budget uint64
	}{
		{"replay", replay, 2},
		{"live", live, 18},
	} {
		tc.run() // warm the free lists
		base := minMallocs(empty)
		got := minMallocs(tc.run) - base
		t.Logf("%s gateway: %d allocs on top of the run's %d", tc.name, got, base)
		if got > tc.budget {
			t.Errorf("a %s gateway makes %d allocations, want <= %d", tc.name, got, tc.budget)
		}
	}
}
