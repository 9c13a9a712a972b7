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
	n, _ := minAllocs(run)
	return n
}

// minAllocs is minMallocs with the bytes allocated, each the minimum over the
// five executions.
func minAllocs(run func()) (mallocs, bytes uint64) {
	mallocs, bytes = ^uint64(0), ^uint64(0)
	for i := 0; i < 5; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		mallocs = min(mallocs, after.Mallocs-before.Mallocs)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
	}
	return mallocs, bytes
}

// TestRecordSizesPinned: the benchmark's byte metrics are sums of allocation
// size classes, so a record that sits on a class edge turns one more word
// into the next class for every instance a run makes. Thread is 208 B and
// fills the 208 class: one word more and every thread a program creates
// costs 224. It embeds core.Thread (120 B), whose flags share one word; the
// per-run record a hosted scheduler hangs off itself, core.Host, is 112 B,
// its threads outside the turn one FIFO. The wrappers share one
// header (domain, object id, name) and reach the runtime through the domain:
// Mutex and Pipe fill the 64 class, Cond and Sem sit at 56 in it, RWMutex and
// Barrier fill the 80 class, Once and SoftBarrier the 48 class; one field
// more on any of them costs every instance the next class. Runtime has room
// inside the 320 class. The Scheduler has room inside the 1,152 class and is
// where per-run state that must cost the other workloads nothing goes (its
// host pointer). An Event is not allocated alone but by the schedule: with
// its ids at int32 it is 32 B rather than 40, a fifth off every schedule.
func TestRecordSizesPinned(t *testing.T) {
	if n := unsafe.Sizeof(Thread{}); n > 208 {
		t.Errorf("Thread is %d B, want <= 208: the next size class is 224; per-thread state goes in core.Thread's padding or the scheduler's host record", n)
	}
	if n := unsafe.Sizeof(core.Thread{}); n > 120 {
		t.Errorf("core.Thread is %d B, want <= 120: it is embedded in Thread; a flag goes in wantTurn's padding", n)
	}
	if n := unsafe.Sizeof(core.Host{}); n > 112 {
		t.Errorf("core.Host is %d B, want <= 112: the threads outside the turn are one FIFO", n)
	}
	for _, r := range []struct {
		name              string
		size, class, next uintptr
	}{
		{"Mutex", unsafe.Sizeof(Mutex{}), 64, 80},
		{"Cond", unsafe.Sizeof(Cond{}), 64, 80},
		{"Sem", unsafe.Sizeof(Sem{}), 64, 80},
		{"RWMutex", unsafe.Sizeof(RWMutex{}), 80, 96},
		{"Barrier", unsafe.Sizeof(Barrier{}), 80, 96},
		{"Once", unsafe.Sizeof(Once{}), 48, 64},
		{"SoftBarrier", unsafe.Sizeof(SoftBarrier{}), 48, 64},
		{"Pipe", unsafe.Sizeof(Pipe{}), 64, 80},
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
	if n := unsafe.Sizeof(Event{}); n > 32 {
		t.Errorf("Event is %d B, want <= 32: every retained, loaded and flattened schedule is an []Event; the two words go first, the int32 ids share the third and Op and Status the last", n)
	}
}

// TestThreadAllocBudget: the construction budget of DESIGN.md §4.13. A
// thread is one heap record — the Thread, with the scheduler's queue node
// embedded and registered in place — plus whatever the scheduler's thread
// table amortizes to; its coroutine comes from the free list, its body
// reaches it without a closure, and its join object is an id on the node, not
// a map entry. With the free list warm, the marginal cost of one more thread
// is therefore at most 1.5 allocations whether or not its joiner blocks (an
// exiting thread's emptied wait list is the next join's), and a thread that
// lives beside the others costs its record and its table slot, at most 256 B.
// The free lists are bounded channels, not sync.Pools, so the counts are
// exact under -race too.
func TestThreadAllocBudget(t *testing.T) {
	const small, large = 32, 64
	for _, c := range []struct {
		name  string
		body  func(main *Thread, threads int)
		bytes bool    // budget bytes rather than allocations
		max   float64 // per extra thread
	}{
		{"created and joined", func(main *Thread, threads int) {
			var kids [large]*Thread
			for i := 0; i < threads; i++ {
				kids[i] = main.Create("w", func(*Thread) {})
			}
			for i := 0; i < threads; i++ {
				main.Join(kids[i])
			}
		}, false, 1.5},
		{"joiner blocks", func(main *Thread, threads int) {
			for i := 0; i < threads; i++ {
				main.Join(main.Create("w", func(*Thread) {}))
			}
		}, false, 1.5},
		{"live at once", func(main *Thread, threads int) {
			var kids [large]*Thread
			for i := 0; i < threads; i++ {
				main.KeepTurn()
				kids[i] = main.Create("w", func(*Thread) {})
			}
			for i := 0; i < threads; i++ {
				main.Join(kids[i])
			}
		}, true, 256},
	} {
		t.Run(c.name, func(t *testing.T) {
			run := func(threads int) func() {
				return func() {
					New(Config{Mode: RoundRobin, Policies: AllPolicies}).Run(func(main *Thread) { c.body(main, threads) })
				}
			}
			run(large)() // fill the coroutine free list
			loN, loB := minAllocs(run(small))
			hiN, hiB := minAllocs(run(large))
			lo, hi, unit := float64(loN), float64(hiN), "allocs"
			if c.bytes {
				lo, hi, unit = float64(loB), float64(hiB), "B"
			}
			perThread := (hi - lo) / (large - small)
			t.Logf("New+Run with %d threads: %.0f %s, with %d: %.0f — %.2f per extra thread", small, lo, unit, large, hi, perThread)
			if perThread > c.max {
				t.Fatalf("%.2f %s per extra thread, want <= %.1f", perThread, unit, c.max)
			}
		})
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

// TestXPipeAllocBudget: what NewXPipe adds to a deterministic runtime
// (DESIGN.md §4.13) is two allocations, the XPipe record — ring state, stamp
// counters, running hash and both condition variables — and its ring. The
// runtime's pipe list starts on an inline slot. Exact under -race too. The
// parent of the PR that set the budget read 4: the XPipe, a separate channel
// record, the ring and the list slot.
func TestXPipeAllocBudget(t *testing.T) {
	const budget = 2
	cfg := Config{Mode: RoundRobin, Policies: AllPolicies}
	base := minMallocs(func() { New(cfg).NewDomain("d") })
	got := minMallocs(func() {
		rt := New(cfg)
		rt.NewXPipe("x", rt.Domain(0), rt.NewDomain("d"), 4)
	}) - base
	t.Logf("NewXPipe: %d allocs", got)
	if got > budget {
		t.Fatalf("NewXPipe makes %d allocations, want <= %d", got, budget)
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
// stage nine events grow through (5), which later drains reuse instead of
// replacing; and per non-empty epoch one logged batch (2). Exact under -race
// too. The parent of the PR that set the budget read 8 and 24.
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
		{"live", live, 17},
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
