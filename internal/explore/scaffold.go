package explore

import (
	"fmt"
	"time"

	"qithread"
)

// end is a run's completion message, from one of its three reporters: the run
// goroutine when Program.Run returned (OutcomeOK, before the program's Check)
// or panicked (OutcomePanic), the scheduler's deadlock handler
// (OutcomeDeadlock). rt names the run it is about: scaffolds are reused, and a
// thread that outlives its run — one the program detached, deadlocking after
// Program.Run returned — still holds the handler of the run it belonged to.
type end struct {
	rt      *qithread.Runtime
	outcome Outcome
	out     uint64 // OutcomeOK: the program's output
	msg     string // the panic value, or the scheduler's deadlock report
}

// scaffold is what a run needs around its runtime: the goroutine it runs on,
// the channel its end is reported on and its watchdog. Explored runs are
// built by the ten thousand and a fresh scaffold is a goroutine and several
// allocations, so scaffolds are recycled the way coroutines are
// (internal/core): through freeScaffolds, a process-global bounded free list
// that is a channel — shared by every session and pool worker, and, unlike a
// sync.Pool, never dropping or duplicating an entry behind the caller's back,
// so the allocation budget is exact under -race. What makes the reuse safe:
//
//   - A scaffold is recycled only by the run that took it, and only when that
//     run ended with the run goroutine's own OutcomeOK (an ok or assert-fail
//     result): the run goroutine is then back in loop, idle, and takes the
//     next run from there. A deadlocked, panicked or hung run leaves threads
//     behind that may still report; it abandons its scaffold to the GC,
//     exactly as its frozen threads keep their coroutines, and stops the run
//     goroutine, which ends once its run does (a frozen one never does).
//   - A message is only ever believed by the run it names (await). A clean
//     end proves nothing about threads the program detached.
//   - The watchdog is stopped before the scaffold is offered for reuse
//     (recycle).
type scaffold struct {
	runs  chan job // the run goroutine's input; nil until the first run starts it
	done  chan end // cap 1: the run goroutine reports without a receiver
	timer *time.Timer
}

// job is one run handed to a scaffold's run goroutine.
type job struct {
	p  *Program
	rt *qithread.Runtime
}

// scaffoldPoolCap bounds the free list. One scaffold is in use per
// concurrently executing run, so this is the number of explorer workers
// (across sessions) that recycle without loss; one that finds the list full
// is stopped and dropped for the GC, so at most this many run goroutines are
// ever idle.
const scaffoldPoolCap = 32

var freeScaffolds = make(chan *scaffold, scaffoldPoolCap)

// takeScaffold returns a scaffold whose watchdog is running, recycled if one
// is free.
func takeScaffold(watchdog time.Duration) *scaffold {
	select {
	case sc := <-freeScaffolds:
		sc.timer.Reset(watchdog)
		return sc
	default:
		return &scaffold{done: make(chan end, 1), timer: time.NewTimer(watchdog)}
	}
}

// start runs p on the scaffold's run goroutine, which the first run starts:
// it executes the runs it is handed one after the other until stop closes
// runs.
func (sc *scaffold) start(p *Program, rt *qithread.Runtime) {
	if sc.runs == nil {
		sc.runs = make(chan job)
		go sc.loop(sc.runs)
	}
	sc.runs <- job{p, rt}
}

func (sc *scaffold) loop(runs <-chan job) {
	for j := range runs {
		sc.run(j.p, j.rt)
	}
}

// stop ends the run goroutine once its current run, if any, has ended.
func (sc *scaffold) stop() {
	if sc.runs != nil {
		close(sc.runs)
	}
}

// run executes the program on the run goroutine and reports how it ended.
// Panics are recovered only here: the run goroutine is the main thread and,
// the run being hosted, every other default-domain thread as well; see
// runOnce.
func (sc *scaffold) run(p *Program, rt *qithread.Runtime) {
	defer func() {
		if r := recover(); r != nil {
			sc.done <- end{rt: rt, outcome: OutcomePanic, msg: fmt.Sprint(r)}
		}
	}()
	sc.done <- end{rt: rt, out: p.Run(rt)}
}

// await blocks until rt's run reports its end, or until the watchdog expires
// (ok false). A message that names another runtime was sent by a leftover
// thread of an earlier run on this scaffold; it says nothing about this one
// and is skipped.
func (sc *scaffold) await(rt *qithread.Runtime) (e end, ok bool) {
	for {
		select {
		case e = <-sc.done:
			if e.rt == rt {
				return e, true
			}
		case <-sc.timer.C:
			return end{}, false
		}
	}
}

// recycle offers the scaffold for reuse; only a run that ended on the run
// goroutine's OutcomeOK may call it. The watchdog may have fired as the run
// ended: under the timer semantics go.mod's `go 1.23` selects, no tick
// prepared before Stop (or Reset) returns is ever received after it, so the
// next run's watchdog cannot expire early and nothing is drained or dropped
// here (TestWatchdogNoStaleTick). A scaffold the full list has no room for is
// stopped and dropped for the GC.
func (sc *scaffold) recycle() {
	sc.timer.Stop()
	select {
	case freeScaffolds <- sc:
	default:
		sc.stop()
	}
}
