package qithread

import (
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// poolStacks returns the stack of every live goroutine running poolWorker,
// straight from the runtime's dump: the pool is process-global and other
// tests leave workers parked in it, so nothing derived from a baseline is
// exact.
func poolStacks() []string {
	buf := make([]byte, 1<<20)
	for {
		if n := runtime.Stack(buf, true); n < len(buf) {
			var out []string
			for _, g := range strings.Split(string(buf[:n]), "\n\n") {
				if strings.Contains(g, "qithread.poolWorker(") {
					out = append(out, g)
				}
			}
			return out
		}
		buf = make([]byte, 2*len(buf))
	}
}

// poolGoroutines counts the live goroutines running poolWorker.
func poolGoroutines() int { return len(poolStacks()) }

// settlePool waits until no pool goroutine is on its way anywhere. A worker
// parks a moment after its body called wg.Done, so Run returning in the test
// before this one does not mean its workers have reached the idle list yet;
// until they do they are running or runnable — nothing on the way from a
// body's return to the park blocks. A goroutine that is blocked is either
// parked or a thread some deadlock test froze inside its body for good, and
// neither will touch the idle list behind the caller's back.
func settlePool(t *testing.T) {
	t.Helper()
	eventually(t, "every pool worker is parked or frozen", func() bool {
		for _, g := range poolStacks() {
			// "goroutine 7 [chan receive, 2 minutes]:"
			state, _, _ := strings.Cut(g[strings.Index(g, "[")+1:], "]")
			state, _, _ = strings.Cut(state, ",")
			if state == "running" || state == "runnable" {
				return false
			}
		}
		return true
	})
}

// eventually polls cond until it holds; parking and exiting happen after a
// body returns, so the pool settles asynchronously.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// spawnBody hands the pool the smallest Thread it accepts: a thread of a
// Nondet runtime, whose run is just fn and a scheduler-free exit.
func spawnBody(fn func()) {
	rt := New(Config{Mode: Nondet})
	t := rt.newThread("pooltest", rt.Domain(0))
	t.fn = func(*Thread) { fn() }
	rt.wg.Add(1)
	spawn(t)
}

// holdIdleWorkers waits for the workers of earlier tests to park, occupies
// every parked worker with a blocked body and returns the function that lets
// them go, so a test starts from an idle list that is empty, and stays empty
// but for its own spawns, whatever ran before it.
func holdIdleWorkers(t *testing.T) (release func()) {
	t.Helper()
	settlePool(t)
	gate := make(chan struct{})
	var wg sync.WaitGroup
	for len(idleWorkers) > 0 {
		wg.Add(1)
		started := make(chan struct{})
		spawnBody(func() { close(started); <-gate; wg.Done() })
		<-started
	}
	return func() { close(gate); wg.Wait() }
}

// TestPoolReusesParkedWorker: a body that returns parks its goroutine, and
// the next spawn runs on that goroutine instead of starting a new one.
func TestPoolReusesParkedWorker(t *testing.T) {
	defer holdIdleWorkers(t)()

	first := make(chan struct{})
	spawnBody(func() { close(first) })
	<-first
	eventually(t, "the finished worker is parked", func() bool { return len(idleWorkers) == 1 })
	workers := poolGoroutines()

	started, gate := make(chan struct{}), make(chan struct{})
	spawnBody(func() { close(started); <-gate })
	<-started
	if n := len(idleWorkers); n != 0 {
		t.Errorf("%d workers still parked while the second body runs, want 0 (parked worker not taken)", n)
	}
	if n := poolGoroutines(); n != workers {
		t.Errorf("pool has %d goroutines while the second body runs, had %d before: spawn started a new one", n, workers)
	}
	close(gate)
}

// TestPoolBoundedAfterBurst: a burst of concurrent bodies far above poolCap
// runs on as many goroutines as it needs, but once the bodies return at most
// poolCap of them stay behind, all parked.
func TestPoolBoundedAfterBurst(t *testing.T) {
	const burst = 3 * poolCap
	gate := make(chan struct{})
	var running, finished sync.WaitGroup
	running.Add(burst)
	finished.Add(burst)
	for i := 0; i < burst; i++ {
		spawnBody(func() { running.Done(); <-gate; finished.Done() })
	}
	running.Wait()
	if n := poolGoroutines(); n < burst {
		t.Fatalf("%d pool goroutines with %d bodies blocked at once", n, burst)
	}
	close(gate)
	finished.Wait()
	eventually(t, "the surplus workers have exited", func() bool {
		n := poolGoroutines()
		return n <= poolCap && n == len(idleWorkers)
	})
}
