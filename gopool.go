package qithread

// Goroutine pool for thread bodies. A Runtime is single-use, so without
// pooling every run of a partitioned program pays a fresh goroutine spawn —
// and, worse, a fresh stack growth to the program's working depth — for
// every thread it creates (newstack/copystack is a measurable slice of the
// domains benchmark, which constructs runtimes in a loop). Thread bodies all
// have the same shape (run one function, then return to the scheduler), so
// exited bodies park here and the next Create/Launch/Run reuses a
// warm goroutine with an already-grown stack. The pool is deliberately
// process-global: it amortizes across the sequential single-use runtimes
// that benchmarks and the experiment harness create.
//
// Handing work over a channel establishes the happens-before edge between
// the spawner and the body, exactly like the `go` statement it replaces. A
// parked worker that loses the race to park (pool full) simply exits, so
// the pool never holds more than poolCap goroutines.
const poolCap = 64

var idleWorkers = make(chan chan func(), poolCap)

// spawn runs fn on a pooled goroutine, or a fresh one when no worker is
// parked.
func spawn(fn func()) {
	select {
	case w := <-idleWorkers:
		w <- fn
	default:
		go poolWorker(fn)
	}
}

func poolWorker(fn func()) {
	self := make(chan func())
	for {
		fn()
		select {
		case idleWorkers <- self:
			// Park until the next spawn: like the scheduler's grant path, an
			// idle worker must not hold a P the running program needs.
			fn = <-self
		default:
			return
		}
	}
}
