package qithread

// Goroutine pool for thread bodies. A Runtime is single-use, so without
// pooling every run of a partitioned program pays a fresh goroutine spawn —
// and, worse, a fresh stack growth to the program's working depth — for
// every thread it creates (newstack/copystack is a measurable slice of the
// domains benchmark, which constructs runtimes in a loop). Thread bodies all
// have the same shape (Thread.run: thread_begin, the program's function,
// exit), so a worker is handed the Thread itself rather than a closure over
// it, exited bodies park here, and the next Create/Launch reuses a
// warm goroutine with an already-grown stack. The pool is deliberately
// process-global: it amortizes across the sequential single-use runtimes
// that benchmarks and the experiment harness create. It serves the drivers
// of launched deterministic domains and every thread of a Nondet run.
//
// Handing work over a channel establishes the happens-before edge between
// the spawner and the body, exactly like the `go` statement it replaces. A
// parked worker that loses the race to park (pool full) simply exits, so
// the pool never holds more than poolCap goroutines.
const poolCap = 64

var idleWorkers = make(chan chan *Thread, poolCap)

// spawn runs t's body on a pooled goroutine, or a fresh one when no worker
// is parked, or, for a deterministic thread but a launched domain's driver,
// on a coroutine of its domain's driver.
func spawn(t *Thread) {
	if t.ct != nil && !t.ct.Drives() {
		t.dom.rec.Sched.StartHosted(t.ct, (*hostedBody)(t))
		return
	}
	select {
	case w := <-idleWorkers:
		w <- t
	default:
		go poolWorker(t)
	}
}

func poolWorker(t *Thread) {
	self := make(chan *Thread)
	for {
		t.run()
		select {
		case idleWorkers <- self:
			// Park until the next spawn: an idle worker must not hold a P
			// the running program needs.
			t = <-self
		default:
			return
		}
	}
}

// hostedBody is a Thread as the core.Body a host coroutine executes: the same
// record under a type whose one method is the body, so handing it over costs
// no closure and Thread grows no exported Run.
type hostedBody Thread

func (b *hostedBody) Run() { (*Thread)(b).run() }
