package core

import (
	"testing"
	"testing/quick"

	"qithread/internal/policy"
)

// script is a randomized mini-program: nThreads threads each perform a
// deterministic sequence of operations derived from a seed (program). The
// waits always carry timeouts so random programs cannot deadlock.
type script struct {
	Seed     uint64
	NThreads uint8
	NOps     uint8
}

func (sc script) threads() int { return int(sc.NThreads)%5 + 2 }
func (sc script) ops() int     { return int(sc.NOps)%12 + 3 }

// program decodes the script into one operation list per thread.
func (sc script) program() [][]scriptOp {
	prog := make([][]scriptOp, sc.threads())
	for i := range prog {
		x := sc.Seed + uint64(i)*0x9e3779b97f4a7c15
		for range sc.ops() {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			prog[i] = append(prog[i], scriptOp{kind: byte(x), arg: byte(x >> 8)})
		}
	}
	return prog
}

// scriptOp is one operation of a script thread: kind % nScriptOps selects
// it, arg its object, timeout or amount of work.
type scriptOp struct{ kind, arg byte }

// The operations of a script thread (lockstep.thread, modeldiff_test.go).
// All but work and compute take the turn; the rest of them release it at the
// wrappers' policy-aware release point, as the qithread wrappers do.
const (
	opYield     = iota
	opSignal    // signal one of objects 1-3; WakeAMAP sees the waiters left
	opWait      // wait 3-9 turns at most on one of objects 1-3
	opWork      // compute, outside the turn
	opBroadcast // broadcast on one of objects 1-3
	opArm       // keep_turn (CreateAll): the next release point keeps the turn
	opLock      // enter a critical section (CSWhole keeps the turn in it)
	opUnlock    // leave one
	opDestroy   // DestroyObject on one of objects 1-3, waited on or not
	opCompute   // a declared computation handed off: a hosted thread yields until rejoined
	nScriptOps
)

func (op scriptOp) obj() uint64    { return uint64(op.arg%3) + 1 }
func (op scriptOp) timeout() int64 { return int64(op.arg%7) + 3 }
func (op scriptOp) work() int64    { return int64(op.arg % 64) }

// runScript executes the script under cfg and returns the recorded trace.
func runScript(sc script, cfg Config) []Event {
	cfg.Record = true
	return runScriptOn(New(cfg), sc.program())
}

// runScriptOn executes a script program on an existing scheduler (which the
// caller can then inspect for stats or turn counts), hosted, and returns the
// recorded trace.
func runScriptOn(s *Scheduler, prog [][]scriptOp) []Event {
	l := &lockstep{s: s, cov: new(coverage)}
	l.run(prog)
	return s.Trace()
}

func tracesEqual(a, b []Event) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestQuickScheduleDeterminism: any random script produces the identical
// trace on repeated runs, under every deterministic mode and policy setting.
func TestQuickScheduleDeterminism(t *testing.T) {
	for _, c := range []struct {
		mode string
		cfg  Config
	}{
		{"round-robin", Config{Mode: policy.RoundRobin}},
		{"round-robin", Config{Mode: policy.RoundRobin, Policies: policy.BoostBlocked}},
		{"logical-clock", Config{Mode: policy.LogicalClock}},
		{"virtual-parallel", Config{Mode: policy.VirtualClock}},
	} {
		cfg := c.cfg
		t.Run(c.mode+"/"+cfg.Policies.String(), func(t *testing.T) {
			f := func(sc script) bool {
				return tracesEqual(runScript(sc, cfg), runScript(sc, cfg))
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestQuickTraceWellFormed: every trace is a total order with contiguous
// sequence numbers, exactly one thread_end per thread, and every wait-return
// preceded by a matching wait-block from the same thread.
func TestQuickTraceWellFormed(t *testing.T) {
	f := func(sc script) bool {
		tr := runScript(sc, Config{Mode: policy.RoundRobin, Policies: policy.BoostBlocked})
		ends := map[int32]int{}
		pendingWait := map[int32]int{}
		for i, e := range tr {
			if e.Seq != int64(i) {
				return false
			}
			switch {
			case e.Op == OpThreadEnd:
				ends[e.TID]++
			case e.Op == OpCondWait && e.Status == StatusBlocked:
				pendingWait[e.TID]++
			case e.Op == OpCondWait && e.Status == StatusReturn:
				pendingWait[e.TID]--
				if pendingWait[e.TID] < 0 {
					return false
				}
			}
		}
		for _, c := range ends {
			if c != 1 {
				return false
			}
		}
		return len(ends) == sc.threads()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickVirtualMakespanSane: virtual makespans are positive, and the
// round-robin makespan is never smaller than the virtual-parallel (ideal)
// makespan for the same script — determinism can only cost parallelism. Each
// mode pays its own sync cost (a turn vs a native op), the comparison the
// harness makes.
func TestQuickVirtualMakespanSane(t *testing.T) {
	run := func(sc script, cfg Config) int64 {
		cfg.Record = false
		s := New(cfg)
		hostedRun(s, sc.threads(), func(i int, th *Thread) {
			x := sc.Seed + uint64(i)
			for op := 0; op < sc.ops(); op++ {
				x ^= x<<13 ^ x>>7
				s.AddWork(th, int64(x%128)+1)
				s.GetTurn(th)
				s.TraceOp(th, OpYield, 0, StatusOK)
				s.PutTurn(th)
			}
			s.GetTurn(th)
			s.Exit(th)
		})
		return s.VirtualMakespan()
	}
	f := func(sc script) bool {
		rr := run(sc, Config{Mode: policy.RoundRobin})
		vp := run(sc, Config{Mode: policy.VirtualClock})
		return rr > 0 && vp > 0 && rr >= vp
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestVirtualParallelOrdersByVTime: under VirtualParallel the thread with
// the smaller virtual clock executes its operation first.
func TestVirtualParallelOrdersByVTime(t *testing.T) {
	s := New(Config{Mode: policy.VirtualClock, Record: true})
	hostedRun(s, 2, func(i int, th *Thread) {
		if i == 0 {
			s.AddWork(th, 1000) // thread a is "later" in virtual time
		}
		s.GetTurn(th)
		s.TraceOp(th, OpYield, 0, StatusOK)
		s.Exit(th)
	})
	tr := s.Trace()
	if len(tr) != 2 || tr[0].TID != 1 {
		t.Fatalf("expected thread b (vtime 0) first, got %v", tr)
	}
}

// TestWakeEdgeRaisesVTime: a woken thread resumes no earlier (in virtual
// time) than its waker's wake-up operation.
func TestWakeEdgeRaisesVTime(t *testing.T) {
	s := New(Config{Mode: policy.RoundRobin})
	var waiterV int64
	hostedRun(s, 2, func(i int, th *Thread) {
		if i == 0 { // the waiter
			s.GetTurn(th)
			s.Wait(th, 9, NoTimeout)
			waiterV = th.VTime()
			s.Exit(th)
			return
		}
		s.GetTurn(th)
		s.PutTurn(th) // let the waiter park first
		s.AddWork(th, 5000)
		s.GetTurn(th)
		s.Signal(th, 9)
		s.Exit(th)
	})
	if waiterV < 5000 {
		t.Fatalf("woken thread's vtime %d should be >= signaler's 5000", waiterV)
	}
}

// TestExitedThreadMisuse: using a thread after Exit panics with a clear
// diagnostic instead of corrupting the queues.
func TestExitedThreadMisuse(t *testing.T) {
	s := New(Config{Mode: policy.RoundRobin})
	var exited *Thread
	hostedRun(s, 1, func(_ int, th *Thread) {
		s.GetTurn(th)
		s.Exit(th)
		exited = th
	})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on GetTurn after Exit")
		}
	}()
	s.GetTurn(exited)
}

// TestSignalNoWaitersIsNoop: signaling an object nobody waits on neither
// blocks nor corrupts state (pthread_cond_signal semantics).
func TestSignalNoWaitersIsNoop(t *testing.T) {
	s := New(Config{Mode: policy.RoundRobin})
	hostedRun(s, 1, func(_ int, th *Thread) {
		s.GetTurn(th)
		s.Signal(th, 77)
		s.Broadcast(th, 77)
		s.PutTurn(th)
		s.GetTurn(th)
		s.Exit(th)
	})
	if s.live != 0 {
		t.Fatal("thread leaked")
	}
}
