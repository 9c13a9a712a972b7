package qithread

import (
	"runtime"
	"testing"
	"unsafe"

	"qithread/internal/core"
	"qithread/internal/ingress"
	"qithread/internal/policy"
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
// into the next class for every instance a run makes. Thread is 176 B and
// fills the 176 class: one word more and every thread a program creates
// costs 192. It embeds core.Thread (120 B), whose flags share one word and
// which holds the thread's name; the scheduler record is reached as &node,
// not through a field. The per-run record a hosted scheduler hangs off
// itself, core.Host, is 144 B, its size class: its threads outside the turn
// one FIFO, the scheduler's thread table (24 B of slice), which moved there
// from the Scheduler so that it is recycled with the host, capacity and all,
// and one pointer to the domain's flight recorder, a ring recycled the same
// way. The
// wrappers share one header (domain, object id, name) and reach the runtime
// through the domain: Mutex and Pipe fill the 64 class, Cond and Sem sit at
// 56 in it, RWMutex and Barrier fill the 80 class, Once and SoftBarrier the
// 48 class; one field more on any of them costs every instance the next
// class. Runtime has room inside the 320 class. The Scheduler has room inside
// the 896 class (840 B): its policy stack keeps six unnamed 40-B counter
// blocks (policy.Stack, 248 B), its counters carry no snapshot slice, and its
// chooser enumerates candidates into one inline id buffer. An Event is not
// allocated alone but by the schedule: with its ids at int32 and its
// position left to its index in the schedule it is 24 B rather than 40,
// two fifths off every schedule.
func TestRecordSizesPinned(t *testing.T) {
	if n := unsafe.Sizeof(Thread{}); n > 176 {
		t.Errorf("Thread is %d B, want <= 176: the next size class is 192; per-thread state goes in core.Thread's padding or the scheduler's host record", n)
	}
	if n := unsafe.Sizeof(core.Thread{}); n > 120 {
		t.Errorf("core.Thread is %d B, want <= 120: it is embedded in Thread; a flag goes in wantTurn's padding", n)
	}
	if n := unsafe.Sizeof(core.Host{}); n > 144 {
		t.Errorf("core.Host is %d B, want <= 144, its size class: the threads outside the turn are one FIFO, the thread table one slice, the flight recorder one pointer", n)
	}
	if n := unsafe.Sizeof(policy.Stack{}); n > 248 {
		t.Errorf("policy.Stack is %d B, want <= 248: six counter blocks of 40 B and the configuration; a policy's name is a constant of its slot", n)
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
	if n := unsafe.Sizeof(core.Scheduler{}); n > 896 {
		t.Errorf("core.Scheduler is %d B, want <= 896: the next size class is 1024", n)
	}
	if n := unsafe.Sizeof(Event{}); n > 24 {
		t.Errorf("Event is %d B, want <= 24: every retained, loaded and flattened schedule is an []Event; the object word goes first, the int32 ids share the second and Op and Status the last, and the position is the event's index", n)
	}
}

// TestThreadAllocBudget: the construction budget of DESIGN.md §4.13. A
// thread is one heap record — the Thread, with the scheduler's queue node
// embedded and registered in place; its coroutine comes from the free list,
// its slot in the thread table from the recycled host record, its body
// reaches it without a closure, and its join object is an id on the node, not
// a map entry. With the free lists warm, the marginal cost of one more thread
// is therefore one allocation whether or not its joiner blocks (an exiting
// thread's emptied wait list is the next join's), and a thread that lives
// beside the others costs its record, 176 B. The free lists are bounded
// channels, not sync.Pools, so the counts are exact under -race too. The
// parent of the change that moved the table into the host record read 1.03
// and 244 B: a 208-B record and the table's regrowth.
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
		}, false, 1},
		{"joiner blocks", func(main *Thread, threads int) {
			for i := 0; i < threads; i++ {
				main.Join(main.Create("w", func(*Thread) {}))
			}
		}, false, 1},
		{"live at once", func(main *Thread, threads int) {
			var kids [large]*Thread
			for i := 0; i < threads; i++ {
				main.KeepTurn()
				kids[i] = main.Create("w", func(*Thread) {})
			}
			for i := 0; i < threads; i++ {
				main.Join(kids[i])
			}
		}, true, 176},
	} {
		t.Run(c.name, func(t *testing.T) {
			run := func(threads int) func() {
				return func() {
					New(Config{Mode: RoundRobin, Policies: AllPolicies}).Run(func(main *Thread) { c.body(main, threads) })
				}
			}
			for i := 0; i < 64; i++ {
				run(large)() // fill the coroutine free list; give every host record on its list a table of 64
			}
			loN, loB := minAllocs(run(small))
			hiN, hiB := minAllocs(run(large))
			lo, hi, unit := float64(loN), float64(hiN), "allocs"
			if c.bytes {
				lo, hi, unit = float64(loB), float64(hiB), "B"
			}
			perThread := (hi - lo) / (large - small)
			t.Logf("New+Run with %d threads: %.0f %s, with %d: %.0f — %.2f per extra thread", small, lo, unit, large, hi, perThread)
			if perThread > c.max {
				t.Fatalf("%.2f %s per extra thread, want <= %.0f", perThread, unit, c.max)
			}
		})
	}
}

// TestRuntimeAllocBudget: the other half of the construction budget — what a
// runtime costs before it has created a single thread. New plus Run of an
// empty main is three allocations (DESIGN.md §4.13) in three size classes,
// 1,392 B: the Runtime (320), which holds its default domain, the channel
// registry and the first slot of the domain list by value; the Scheduler
// (896), which holds its policy stack by value; and the main Thread (176).
// Exact under -race for the same reason as above. The parent of the change
// that set the byte budget read 1,680 B: a 1,152-B Scheduler and a 208-B
// Thread.
func TestRuntimeAllocBudget(t *testing.T) {
	const budget, bytesBudget = 3, 1392
	run := func() { New(Config{Mode: RoundRobin, Policies: AllPolicies}).Run(func(*Thread) {}) }
	run() // the host record is on the free list from here on
	best, bytes := minAllocs(run)
	t.Logf("New + Run of an empty main: %d allocs, %d B", best, bytes)
	if best > budget || bytes > bytesBudget {
		t.Fatalf("New + Run of an empty main makes %d allocations of %d B, want <= %d and %d B", best, bytes, budget, bytesBudget)
	}
}

// TestThreadTableAllocatesNothing: a hosted scheduler's thread table is its
// host record's, which the free list recycles with its capacity, so once the
// free lists are warm a run of 17 threads allocates one record per created
// thread and nothing for the table. Exact under -race too. At the parent of
// the change that moved the table, it started on eight inline slots in the
// Scheduler and regrew twice on every such run (18 for the 16 threads).
func TestThreadTableAllocatesNothing(t *testing.T) {
	const kids = 16
	run := func(n int) func() {
		return func() {
			New(Config{Mode: RoundRobin, Policies: AllPolicies}).Run(func(main *Thread) {
				for i := 0; i < n; i++ {
					main.Create("w", func(*Thread) {})
				}
			})
		}
	}
	for i := 0; i < 64; i++ {
		run(kids)() // more runs than the host free list holds: each record's table reaches 17
	}
	solo, wide := minMallocs(run(0)), minMallocs(run(kids))
	t.Logf("New+Run of main alone: %d allocs; with %d children: %d", solo, kids, wide)
	if wide-solo != kids {
		t.Fatalf("%d children cost %d allocations, want %d: one Thread each, nothing for the table", kids, wide-solo, kids)
	}
}

// TestWaitListAllocBudget: an object's wait list is a field of its entry in
// the scheduler's object table (DESIGN.md §4.13), so a thread that blocks on
// an object allocates nothing for it: a thread blocking on 16 semaphores in
// turn costs what blocking 16 times on one of them does, the table having
// grown when the semaphores were created. Exact under -race too. The parent
// of the PR that set the budget allocated a list per waited-on object and
// their map: 19 more for the distinct semaphores.
func TestWaitListAllocBudget(t *testing.T) {
	const n = 16
	var waits int64
	run := func(distinct bool) func() {
		return func() {
			rt := New(Config{Mode: RoundRobin})
			rt.Run(func(main *Thread) {
				var sems [n]*Sem
				for i := range sems {
					sems[i] = rt.NewSem(main, "s", 0)
				}
				ack := rt.NewSem(main, "ack", 0)
				sem := func(i int) *Sem {
					if distinct {
						return sems[i]
					}
					return sems[0]
				}
				waiter := main.Create("waiter", func(w *Thread) {
					for i := 0; i < n; i++ {
						sem(i).Wait(w)
						ack.Post(w)
					}
				})
				for i := 0; i < n; i++ {
					sem(i).Post(main)
					ack.Wait(main)
				}
				main.Join(waiter)
			})
			waits = rt.Stats().Waits
		}
	}
	run(true)() // warm the free lists
	one := minMallocs(run(false))
	oneWaits := waits
	many := minMallocs(run(true))
	t.Logf("%d blocking waits on one semaphore: %d allocs; %d on %d semaphores: %d allocs", oneWaits, one, waits, n, many)
	if waits < n || waits != oneWaits {
		t.Fatalf("%d and %d blocking waits, want the same count, at least %d", oneWaits, waits, n)
	}
	if many > one {
		t.Fatalf("blocking on %d distinct semaphores costs %d allocations more than blocking on one, want none", n, many-one)
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
		admitAll(main, rt.NewGateway("gw", rt.Domain(0), GatewayConfig{MaxBatch: 2, Replay: input}))
	})
	live := run(func(rt *Runtime, main *Thread) {
		gw := rt.NewGateway("gw", rt.Domain(0), GatewayConfig{MaxBatch: 2})
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
