package explore

import (
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"qithread"
)

// raceBaselineFP is the fingerprint of controlplane-race's default schedule as
// a fresh process computes it (the constant TestCellFingerprintsPinned holds,
// in the explorer's rendering): what every ok run below must reproduce no
// matter whose scaffold it runs on.
const raceBaselineFP = "f29c9ec81c5a0678+cbf29ce484222325+6789de4"

// TestExploredRunAllocBudget holds one search run of the seeded control-plane
// race — untraced and on a frontier entry, as the DPOR pool executes it; here
// the entry that forces the default schedule — to the construction budget of
// DESIGN.md §4.13: 31 allocations, of which 18 are the run's scaffolding (2:
// the deadlock handler and the chooser's closure), its fingerprint key, the
// gateway (2) and the cell (13), and 13 the runtime (3), two more threads,
// four sync objects, the object table (2), the chooser and its log. The run
// is hosted: its scaffold with its run goroutine, its host record and the
// coroutines its two created threads run on all come from bounded channel
// free lists, so once those are warm the count is exact, under -race too, and
// the budget is that count. The parent of the PR that set the first budget
// read 71; the fingerprint stopped copying the domain list at 41. At 40, a
// heap list per waited-on object, a goroutine per run and the fingerprint's
// hash slice went, for 31.
//
// The run's bytes are held too: 5,712 B, and the budget is that plus 5 %.
// With 32-byte core.Choice entries in its log the same run read 8,592 B, with
// the heap lists 6,288 B, and with 16-byte decisions but a 1,152-B-class
// Scheduler and 208-B Threads 6,064 B (budget 6,367).
func TestExploredRunAllocBudget(t *testing.T) {
	const (
		runs        = 200
		budget      = 31
		bytesBudget = 5997
	)
	p := Lookup("controlplane-race")
	base := RunForced(p, nil, testWatchdog)
	entry := prefixFlip(base.log)
	batch := func() {
		for i := 0; i < runs; i++ {
			if res := runPath(p, entry, entry.logLen(), testWatchdog, false); res.Outcome != OutcomeOK || res.Fingerprint != raceBaselineFP {
				t.Fatalf("run %d: %s [%s], want ok [%s]", i, res.Outcome, res.Fingerprint, raceBaselineFP)
			}
		}
	}
	batch() // warm the free lists
	best, bestBytes := ^uint64(0), ^uint64(0)
	for i := 0; i < 5; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		batch()
		runtime.ReadMemStats(&after)
		best = min(best, after.Mallocs-before.Mallocs)
		bestBytes = min(bestBytes, after.TotalAlloc-before.TotalAlloc)
	}
	perRun, bytesPerRun := float64(best)/runs, float64(bestBytes)/runs
	t.Logf("one search run of controlplane-race: %.2f allocs, %.0f B", perRun, bytesPerRun)
	if perRun > budget {
		t.Errorf("%.2f allocations per explored run, want <= %d", perRun, budget)
	}
	if bytesPerRun > bytesBudget {
		t.Errorf("%.0f B allocated per explored run, want <= %d", bytesPerRun, bytesBudget)
	}
}

// Programs that end a run every way it can end. Each builds a real runtime
// run, so a misdirected completion message would have something to corrupt.

// deadlockProgram's main thread locks one mutex twice: the scheduler reports
// a deterministic deadlock and the handler freezes the run.
var deadlockProgram = &Program{
	Name: "test-deadlock",
	Base: rrConfig(qithread.NoPolicies),
	Run: func(rt *qithread.Runtime) uint64 {
		rt.Run(func(main *qithread.Thread) {
			m := rt.NewMutex(main, "m")
			m.Lock(main)
			m.Lock(main)
		})
		return 0
	},
}

// childDeadlockProgram deadlocks on a created thread — a coroutine of the run
// goroutine — while main waits to join it: the handler freezes the coroutine,
// and with it the goroutine that is everybody else.
var childDeadlockProgram = &Program{
	Name: "test-child-deadlock",
	Base: rrConfig(qithread.NoPolicies),
	Run: func(rt *qithread.Runtime) uint64 {
		rt.Run(func(main *qithread.Thread) {
			m := rt.NewMutex(main, "m")
			main.Join(main.Create("child", func(c *qithread.Thread) {
				m.Lock(c)
				m.Lock(c)
			}))
		})
		return 0
	},
}

// panicProgram panics on the main thread, inside the run.
var panicProgram = &Program{
	Name: "test-panic",
	Base: rrConfig(qithread.NoPolicies),
	Run: func(rt *qithread.Runtime) uint64 {
		rt.Run(func(main *qithread.Thread) { panic("boom") })
		return 0
	},
}

// childPanicProgram panics on a created thread while the main thread is
// blocked joining it: the run is hosted, so the panic surfaces in the join.
var childPanicProgram = &Program{
	Name: "test-child-panic",
	Base: rrConfig(qithread.NoPolicies),
	Run: func(rt *qithread.Runtime) uint64 {
		rt.Run(func(main *qithread.Thread) {
			main.Join(main.Create("child", func(*qithread.Thread) { panic("child boom") }))
		})
		return 0
	},
}

// hangProgram blocks outside the scheduler until release is closed, which the
// test does once it is done so the hung run goroutines report — into the
// scaffolds they were abandoned with — and exit.
func hangProgram(release <-chan struct{}) *Program {
	return &Program{
		Name: "test-hang",
		Base: rrConfig(qithread.NoPolicies),
		Run: func(rt *qithread.Runtime) uint64 {
			<-release
			return 0
		},
	}
}

// childHangProgram blocks a created thread outside the scheduler, inside the
// run: hosted, that blocks every thread of the run, main's join included, and
// only the watchdog ends it. Released, the run completes and reports into the
// scaffold it was abandoned with.
func childHangProgram(release <-chan struct{}) *Program {
	return &Program{
		Name: "test-child-hang",
		Base: rrConfig(qithread.NoPolicies),
		Run: func(rt *qithread.Runtime) uint64 {
			rt.Run(func(main *qithread.Thread) {
				main.Join(main.Create("child", func(*qithread.Thread) { <-release }))
			})
			return 0
		},
	}
}

// eventually polls cond until it holds.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(testWatchdog); !cond(); {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// drainScaffolds empties the free list and returns what it held.
func drainScaffolds() []*scaffold {
	var out []*scaffold
	for {
		select {
		case sc := <-freeScaffolds:
			out = append(out, sc)
		default:
			return out
		}
	}
}

// dropScaffolds empties the free list and stops the run goroutine of every
// scaffold it held, so none idles for the rest of the test binary. It
// returns how many scaffolds the list held.
func dropScaffolds() int {
	held := drainScaffolds()
	for _, sc := range held {
		sc.stop()
	}
	return len(held)
}

// TestScaffoldNotRecycledAfterAbnormalEnd alternates ok runs with runs that
// deadlock, panic on the main thread or on a child and outlive their watchdog, 1,000 times
// on one goroutine and then 1,000 times spread over four at once. Every ok run must classify and
// fingerprint as a fresh process would, whatever ran on its scaffold before;
// and no scaffold of an abnormal run may come back: on one goroutine the free
// list holds exactly the one scaffold of the last ok run after an ok run and
// nothing after an abnormal one, never a scaffold an abnormal run took; with
// four, what the list holds at the end carries no message, even
// after every hung run has been released to report.
func TestScaffoldNotRecycledAfterAbnormalEnd(t *testing.T) {
	const rounds = 1000
	release := make(chan struct{})
	ok := Lookup("controlplane-race")
	abnormal := []struct {
		p        *Program
		watchdog time.Duration
		want     Outcome
	}{
		{deadlockProgram, testWatchdog, OutcomeDeadlock},
		{childDeadlockProgram, testWatchdog, OutcomeDeadlock},
		{panicProgram, testWatchdog, OutcomePanic},
		{childPanicProgram, testWatchdog, OutcomePanic},
		{hangProgram(release), time.Millisecond, OutcomeHang},
		{childHangProgram(release), time.Millisecond, OutcomeHang},
	}
	// round runs one ok run and one abnormal run, reporting (t.Error: it is
	// called off the test goroutine too) whether both ended as they must.
	round := func(i int, between func()) bool {
		if res := RunForced(ok, nil, testWatchdog); res.Outcome != OutcomeOK || res.Fingerprint != raceBaselineFP {
			t.Errorf("round %d: ok run is %s [%s] (%s), want ok [%s]", i, res.Outcome, res.Fingerprint, res.Err, raceBaselineFP)
			return false
		}
		between()
		a := abnormal[i%len(abnormal)]
		if res := RunForced(a.p, nil, a.watchdog); res.Outcome != a.want {
			t.Errorf("round %d: %s run is %s (%s), want %s", i, a.p.Name, res.Outcome, res.Err, a.want)
			return false
		}
		return true
	}

	dropScaffolds()
	abandoned := map[*scaffold]bool{}
	for i := 0; i < rounds; i++ {
		var last *scaffold
		peek := func() {
			// Exactly the ok run's scaffold is free, and the abnormal run
			// that follows is the one that takes it.
			held := drainScaffolds()
			if len(held) != 1 {
				t.Fatalf("round %d: %d scaffolds free after an ok run, want 1", i, len(held))
			}
			last = held[0]
			if abandoned[last] {
				t.Fatalf("round %d: a scaffold an abnormal run took is back on the free list", i)
			}
			freeScaffolds <- last
		}
		if !round(i, peek) {
			return
		}
		abandoned[last] = true
		if n := len(freeScaffolds); n != 0 {
			t.Fatalf("round %d: %d scaffolds free after a %s run, want 0: an abnormal end recycled its scaffold", i, n, abnormal[i%len(abnormal)].want)
		}
	}

	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds/workers; i++ {
				if !round(i, func() {}) {
					return
				}
			}
		}()
	}
	wg.Wait()
	close(release)
	// Every hung run goroutine now reports into its abandoned scaffold. Were
	// one of those on the free list, the message would sit in its channel.
	time.Sleep(50 * time.Millisecond)
	held := drainScaffolds()
	if len(held) > workers {
		t.Errorf("%d scaffolds free after %d concurrent workers, want at most that many", len(held), workers)
	}
	for _, sc := range held {
		if abandoned[sc] {
			t.Error("a scaffold an abnormal run took is on the free list")
		}
		if len(sc.done) != 0 {
			t.Errorf("a free scaffold holds %d message(s), want none", len(sc.done))
		}
		sc.stop()
	}
}

// TestLateDeadlockCannotClassifyNextRun: a program detaches a thread that
// deadlocks only after Program.Run has returned — after the run was
// classified ok and its scaffold recycled. The thread still holds that run's
// deadlock handler, so its report lands on the scaffold the next run is
// using; it names the old runtime, and the next run must end ok all the same.
// The detached Run starts only once the explorer has read the runtime's
// results, which it reads after Program.Run returns.
func TestLateDeadlockCannotClassifyNextRun(t *testing.T) {
	for i := 0; i < 50; i++ {
		goOn := make(chan struct{})
		late := &Program{
			Name: "test-late-deadlock",
			Base: rrConfig(qithread.NoPolicies),
			Run: func(rt *qithread.Runtime) uint64 {
				go func() {
					<-goOn
					rt.Run(func(main *qithread.Thread) {
						m := rt.NewMutex(main, "m")
						m.Lock(main)
						m.Lock(main)
					})
				}()
				return 7
			},
		}
		dropScaffolds()
		if res := RunForced(late, nil, testWatchdog); res.Outcome != OutcomeOK || res.Output != 7 {
			t.Fatalf("detaching run is %s (%s) with output %d, want ok with 7", res.Outcome, res.Err, res.Output)
		}
		held := drainScaffolds()
		if len(held) != 1 {
			t.Fatalf("%d scaffolds free after an ok run, want 1", len(held))
		}
		sc := held[0]
		close(goOn)
		if i%2 == 0 {
			// The report is already waiting when the next run takes the
			// scaffold; on odd rounds it races with that run instead.
			eventually(t, "the detached thread's deadlock is reported", func() bool { return len(sc.done) == 1 })
		}
		freeScaffolds <- sc
		if res := RunForced(Lookup("controlplane-race"), nil, testWatchdog); res.Outcome != OutcomeOK || res.Fingerprint != raceBaselineFP {
			t.Fatalf("round %d: the run after a late deadlock is %s [%s] (%s), want ok [%s]", i, res.Outcome, res.Fingerprint, res.Err, raceBaselineFP)
		}
	}
}

// TestWatchdogNoStaleTick: a watchdog that fired must not expire a later run.
// A hung run abandons its scaffold, so the run after it starts on another
// one; and a scaffold whose watchdog fired just as its run ended cleanly — the
// tick was prepared, nobody received it — is recycled all the same, because
// Stop and Reset discard it (go 1.23 timers): the run that takes it next gets
// its full watchdog.
func TestWatchdogNoStaleTick(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	dropScaffolds()
	if res := RunForced(hangProgram(release), nil, time.Millisecond); res.Outcome != OutcomeHang {
		t.Fatalf("hung run is %s (%s), want hang", res.Outcome, res.Err)
	}
	if res := RunForced(Lookup("controlplane-race"), nil, testWatchdog); res.Outcome != OutcomeOK || res.Fingerprint != raceBaselineFP {
		t.Fatalf("the run after a hang is %s [%s] (%s), want ok [%s]", res.Outcome, res.Fingerprint, res.Err, raceBaselineFP)
	}

	// Recycle around the expiry: well after it, and within microseconds of it
	// on either side.
	for i, lag := range []time.Duration{5 * time.Millisecond, time.Millisecond, 1100 * time.Microsecond, 900 * time.Microsecond} {
		dropScaffolds()
		sc := takeScaffold(time.Millisecond)
		time.Sleep(lag)
		sc.recycle()
		next := takeScaffold(time.Hour)
		if next != sc {
			t.Fatalf("round %d: the scaffold was not recycled", i)
		}
		select {
		case <-next.timer.C:
			t.Fatalf("round %d: a one-hour watchdog expired at once: it received the 1 ms tick of the scaffold's previous run", i)
		case <-time.After(5 * time.Millisecond):
		}
		next.timer.Stop()
	}

	// The list drops what does not fit rather than blocking or growing.
	for i := 0; i < scaffoldPoolCap+3; i++ {
		takeScaffold(time.Hour).recycle()
	}
	extra := make([]*scaffold, scaffoldPoolCap+3)
	for i := range extra {
		extra[i] = &scaffold{done: make(chan end, 1), timer: time.NewTimer(time.Hour)}
	}
	for _, sc := range extra {
		sc.recycle()
	}
	if n := dropScaffolds(); n != scaffoldPoolCap {
		t.Fatalf("free list holds %d scaffolds after %d were recycled, want its capacity %d", n, len(extra), scaffoldPoolCap)
	}
}

// idleRunGoroutines counts the run goroutines parked in loop waiting for a
// next run.
func idleRunGoroutines() (n int) {
	buf := make([]byte, 1<<20)
	for runtime.Stack(buf, true) == len(buf) {
		buf = make([]byte, 2*len(buf))
	}
	for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
		if strings.Contains(g, " [chan receive") && strings.Contains(g, "explore.(*scaffold).loop(") && !strings.Contains(g, "explore.(*scaffold).run(") {
			n++
		}
	}
	return n
}

// startedFree counts the scaffolds on the free list that have a run
// goroutine, leaving the list as it was.
func startedFree() (n int) {
	held := drainScaffolds()
	for _, sc := range held {
		if sc.runs != nil {
			n++
		}
		freeScaffolds <- sc
	}
	return n
}

// TestRunGoroutinesBounded: a run goroutine idles only on a scaffold of the
// free list. scaffoldPoolCap+8 runs at once take that many scaffolds, of which
// the list keeps scaffoldPoolCap; then runs deadlock, panic and hang on
// recycled ones. Afterwards the idle run goroutines are those of the free
// list, at most scaffoldPoolCap. A test that drains the free list stops what
// it drained (dropScaffolds), so before this one starts no run goroutine may
// idle outside the list.
func TestRunGoroutinesBounded(t *testing.T) {
	held := drainScaffolds()
	leaked := idleRunGoroutines()
	for _, sc := range held {
		if sc.runs != nil {
			leaked--
		}
		sc.stop()
	}
	if leaked != 0 {
		t.Errorf("%d idle run goroutines of scaffolds dropped without stop", leaked)
	}

	const concurrent = scaffoldPoolCap + 8
	var started sync.WaitGroup
	started.Add(concurrent)
	gate := make(chan struct{})
	gated := &Program{
		Name: "test-gated",
		Base: rrConfig(qithread.NoPolicies),
		Run: func(*qithread.Runtime) uint64 {
			started.Done()
			<-gate
			return 1
		},
	}
	var wg sync.WaitGroup
	for i := 0; i < concurrent; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if res := RunForced(gated, nil, testWatchdog); res.Outcome != OutcomeOK {
				t.Errorf("gated run is %s (%s), want ok", res.Outcome, res.Err)
			}
		}()
	}
	started.Wait() // every run holds its own scaffold now
	close(gate)
	wg.Wait()
	if n := startedFree(); n != scaffoldPoolCap {
		t.Fatalf("%d scaffolds with a run goroutine free after %d concurrent runs, want %d", n, concurrent, scaffoldPoolCap)
	}

	release := make(chan struct{})
	for _, a := range []struct {
		p        *Program
		watchdog time.Duration
		want     Outcome
	}{
		{deadlockProgram, testWatchdog, OutcomeDeadlock},
		{childDeadlockProgram, testWatchdog, OutcomeDeadlock},
		{panicProgram, testWatchdog, OutcomePanic},
		{childPanicProgram, testWatchdog, OutcomePanic},
		{hangProgram(release), time.Millisecond, OutcomeHang},
		{childHangProgram(release), time.Millisecond, OutcomeHang},
	} {
		if res := RunForced(a.p, nil, a.watchdog); res.Outcome != a.want {
			t.Fatalf("%s run is %s (%s), want %s", a.p.Name, res.Outcome, res.Err, a.want)
		}
	}
	close(release)
	idle := 0
	eventually(t, "only the free list's run goroutines idle", func() bool {
		idle = idleRunGoroutines() - leaked
		return idle == startedFree()
	})
	if idle > scaffoldPoolCap {
		t.Fatalf("%d run goroutines idle, want at most %d", idle, scaffoldPoolCap)
	}
	if res := RunForced(Lookup("controlplane-race"), nil, testWatchdog); res.Outcome != OutcomeOK || res.Fingerprint != raceBaselineFP {
		t.Fatalf("the run after them is %s [%s] (%s), want ok [%s]", res.Outcome, res.Fingerprint, res.Err, raceBaselineFP)
	}
}
