package core

import (
	"math"
	"strings"
	"testing"
	"unsafe"

	"qithread/internal/policy"
)

func TestRoundRobinOrder(t *testing.T) {
	s := New(Config{Mode: policy.RoundRobin, Record: true})
	var order []int
	hostedRun(s, 4, func(i int, th *Thread) {
		for r := 0; r < 3; r++ {
			s.GetTurn(th)
			order = append(order, i)
			s.PutTurn(th)
		}
		s.GetTurn(th)
		s.Exit(th)
	})
	want := []int{0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3}
	for i, v := range want {
		if order[i] != v {
			t.Fatalf("order[%d] = %d, want %d (full: %v)", i, order[i], v, order)
		}
	}
}

func TestGetTurnReentrant(t *testing.T) {
	s := New(Config{Mode: policy.RoundRobin})
	hostedRun(s, 1, func(i int, th *Thread) {
		s.GetTurn(th)
		s.GetTurn(th) // must not deadlock: already holder
		if s.holder != th {
			t.Error("expected to hold turn")
		}
		s.PutTurn(th)
		s.GetTurn(th)
		s.Exit(th)
	})
}

func TestWaitSignalFIFO(t *testing.T) {
	s := New(Config{Mode: policy.RoundRobin})
	const obj = uint64(99)
	var woken []int
	nWaiters := 3
	hostedRun(s, nWaiters+1, func(i int, th *Thread) {
		if i < nWaiters {
			s.GetTurn(th)
			st := s.Wait(th, obj, NoTimeout)
			if st != WaitSignaled {
				t.Errorf("waiter %d: status %v", i, st)
			}
			woken = append(woken, i)
			s.PutTurn(th)
			s.GetTurn(th)
			s.Exit(th)
			return
		}
		// Signaler: let all waiters park first by cycling turns.
		for r := 0; r < nWaiters+2; r++ {
			s.GetTurn(th)
			s.PutTurn(th)
		}
		for r := 0; r < nWaiters; r++ {
			s.GetTurn(th)
			s.Signal(th, obj)
			s.PutTurn(th)
		}
		s.GetTurn(th)
		s.Exit(th)
	})
	for i := 0; i < nWaiters; i++ {
		if woken[i] != i {
			t.Fatalf("wake order %v, want FIFO 0..%d", woken, nWaiters-1)
		}
	}
}

func TestBroadcastWakesAllInOrder(t *testing.T) {
	s := New(Config{Mode: policy.RoundRobin, Policies: policy.BoostBlocked})
	const obj = uint64(7)
	var woken []int
	hostedRun(s, 4, func(i int, th *Thread) {
		if i < 3 {
			s.GetTurn(th)
			s.Wait(th, obj, NoTimeout)
			woken = append(woken, i)
			s.PutTurn(th)
		} else {
			for r := 0; r < 5; r++ {
				s.GetTurn(th)
				s.PutTurn(th)
			}
			s.GetTurn(th)
			s.Broadcast(th, obj)
			s.PutTurn(th)
		}
		s.GetTurn(th)
		s.Exit(th)
	})
	if len(woken) != 3 || woken[0] != 0 || woken[1] != 1 || woken[2] != 2 {
		t.Fatalf("broadcast wake order %v, want [0 1 2]", woken)
	}
}

func TestWaitTimeout(t *testing.T) {
	s := New(Config{Mode: policy.RoundRobin})
	hostedRun(s, 1, func(i int, th *Thread) {
		s.GetTurn(th)
		st := s.Wait(th, 42, 5)
		if st != WaitTimeout {
			t.Errorf("status = %v, want timeout", st)
		}
		s.PutTurn(th)
		s.GetTurn(th)
		s.Exit(th)
	})
	// Logical time must have jumped to the deadline even though the
	// program was otherwise idle.
	if got := s.TurnCount(); got < 5 {
		t.Fatalf("turn count %d, want >= 5", got)
	}
}

func TestTimeoutOrderingAmongWaiters(t *testing.T) {
	s := New(Config{Mode: policy.RoundRobin})
	var order []int
	hostedRun(s, 2, func(i int, th *Thread) {
		s.GetTurn(th)
		var timeout int64 = 20
		if i == 1 {
			timeout = 10 // second thread expires first
		}
		s.Wait(th, uint64(100+i), timeout)
		order = append(order, i)
		s.PutTurn(th)
		s.GetTurn(th)
		s.Exit(th)
	})
	if len(order) != 2 || order[0] != 1 || order[1] != 0 {
		t.Fatalf("timeout wake order %v, want [1 0]", order)
	}
}

func TestBoostBlockedPriority(t *testing.T) {
	// One thread is woken while two other threads sit in the run queue; with
	// BoostBlocked the woken thread must run before them.
	run := func(policies policy.Set) []int {
		s := New(Config{Mode: policy.RoundRobin, Policies: policies})
		const obj = uint64(3)
		var order []int
		hostedRun(s, 3, func(i int, th *Thread) {
			switch i {
			case 0: // waiter
				s.GetTurn(th)
				s.Wait(th, obj, NoTimeout)
				order = append(order, 0)
				s.PutTurn(th)
			case 1: // signaler
				s.GetTurn(th)
				s.PutTurn(th) // let waiter park (it is ahead in the queue)
				s.GetTurn(th)
				s.Signal(th, obj)
				s.PutTurn(th)
				s.GetTurn(th)
				order = append(order, 1)
				s.PutTurn(th)
			case 2: // bystander doing sync ops
				for r := 0; r < 3; r++ {
					s.GetTurn(th)
					order = append(order, 2)
					s.PutTurn(th)
				}
			}
			s.GetTurn(th)
			s.Exit(th)
		})
		return order
	}

	boosted := run(policy.BoostBlocked)
	// Find the positions of the waiter's record (0) and check what ran
	// between the signal and it: with BoostBlocked the waiter runs
	// immediately after the signaler's PutTurn even though thread 2 was
	// already queued.
	posOf := func(order []int, v int) int {
		for i, x := range order {
			if x == v {
				return i
			}
		}
		return -1
	}
	bp := posOf(boosted, 0)
	if bp < 0 {
		t.Fatalf("waiter never ran: %v", boosted)
	}
	vanilla := run(policy.NoPolicies)
	vp := posOf(vanilla, 0)
	if bp > vp {
		t.Fatalf("BoostBlocked did not prioritize woken thread: boosted=%v vanilla=%v", boosted, vanilla)
	}
}

func TestLogicalClockMinRuns(t *testing.T) {
	s := New(Config{Mode: policy.LogicalClock})
	var order []int
	hostedRun(s, 2, func(i int, th *Thread) {
		if i == 0 {
			// Thread 0 accumulates a large clock before its first sync op,
			// so thread 1 (clock 0) must execute sync ops first even though
			// thread 0 registered first.
			s.AddWork(th, 1000)
		}
		for r := 0; r < 3; r++ {
			s.GetTurn(th)
			order = append(order, i)
			s.PutTurn(th)
		}
		s.GetTurn(th)
		s.Exit(th)
	})
	if order[0] != 1 || order[1] != 1 || order[2] != 1 {
		t.Fatalf("logical clock order %v, want thread 1 first three times", order)
	}
}

func TestLogicalClockTieBreakByID(t *testing.T) {
	s := New(Config{Mode: policy.LogicalClock})
	var first int = -1
	hostedRun(s, 3, func(i int, th *Thread) {
		s.GetTurn(th)
		if first == -1 {
			first = i
		}
		s.PutTurn(th)
		s.GetTurn(th)
		s.Exit(th)
	})
	if first != 0 {
		t.Fatalf("tie broken to thread %d, want 0", first)
	}
}

func TestExitRemovesThread(t *testing.T) {
	s := New(Config{Mode: policy.RoundRobin})
	hostedRun(s, 3, func(i int, th *Thread) {
		if i == 0 {
			s.GetTurn(th)
			s.Exit(th) // exits immediately; others must still make progress
			return
		}
		for r := 0; r < 10; r++ {
			s.GetTurn(th)
			s.PutTurn(th)
		}
		s.GetTurn(th)
		s.Exit(th)
	})
	if got := s.live; got != 0 {
		t.Fatalf("live = %d, want 0", got)
	}
}

func TestTraceTotalOrder(t *testing.T) {
	s := New(Config{Mode: policy.RoundRobin, Record: true})
	hostedRun(s, 3, func(i int, th *Thread) {
		for r := 0; r < 5; r++ {
			s.GetTurn(th)
			s.TraceOp(th, OpYield, 0, StatusOK)
			s.PutTurn(th)
		}
		s.GetTurn(th)
		s.TraceOp(th, OpThreadEnd, 0, StatusOK)
		s.Exit(th)
	})
	tr := s.Trace()
	if len(tr) != 3*6 {
		t.Fatalf("trace length %d, want %d", len(tr), 3*6)
	}
	for i, e := range tr {
		if e.Seq != int64(i) {
			t.Fatalf("trace[%d].Seq = %d", i, e.Seq)
		}
	}
}

func TestRequireTurnPanics(t *testing.T) {
	s := New(Config{Mode: policy.RoundRobin})
	s.HostThreads()
	th := s.Register("t0")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for PutTurn without turn")
		}
	}()
	s.PutTurn(th)
}

// TestObjEntrySize: an object's table entry, its name, its wait list and a
// one-byte kind, is 48 B. Every slot of the object table is one, so the
// catalog's byte metric moves with it: with a 56-B entry the catalog read
// 7,324 B/op, against 7,222 at 48 B and 7,295 for the two maps and the heap
// lists the table replaced.
func TestObjEntrySize(t *testing.T) {
	if n := unsafe.Sizeof(objEntry{}); n > 48 {
		t.Errorf("objEntry is %d B, want <= 48", n)
	}
}

func TestWaitersCount(t *testing.T) {
	s := New(Config{Mode: policy.RoundRobin})
	const obj = uint64(11)
	hostedRun(s, 3, func(i int, th *Thread) {
		if i < 2 {
			s.GetTurn(th)
			s.Wait(th, obj, NoTimeout)
			s.PutTurn(th)
		} else {
			s.GetTurn(th)
			s.PutTurn(th)
			s.GetTurn(th)
			s.PutTurn(th)
			s.GetTurn(th)
			if got := s.objs[obj].waits.n; got != 2 {
				t.Errorf("waiters = %d, want 2", got)
			}
			s.Broadcast(th, obj)
			if got := s.objs[obj].waits.n; got != 0 {
				t.Errorf("waiters after broadcast = %d, want 0", got)
			}
			s.PutTurn(th)
		}
		s.GetTurn(th)
		s.Exit(th)
	})
}

// keepDefault is a Chooser that takes the configured policy's own pick at
// every choice point, and remembers the widest candidate list it was shown.
type keepDefault struct{ widest int }

func (c *keepDefault) Choose(_ policy.ChoiceKind, ids []int, n, def int) int {
	if n > c.widest {
		c.widest = n
	}
	return def
}

// TestInlineTables: a scheduler is built per run, so its chooser scratch
// starts on arrays inside the Scheduler itself, and a run of up to
// inlineCands turn candidates never allocates them, while a wider one spills
// to the heap and behaves the same. Its thread table is its host record's: a
// hosted scheduler registers into the host's table, which keeps its capacity
// when the run drains and comes back cleared, holding no thread of the run.
func TestInlineTables(t *testing.T) {
	yields := func(s *Scheduler, n int) []Event {
		hostedRun(s, n, func(i int, th *Thread) {
			for r := 0; r < 3; r++ {
				s.GetTurn(th)
				s.TraceOp(th, OpYield, 0, StatusOK)
				s.PutTurn(th)
			}
			s.GetTurn(th)
			s.Exit(th)
		})
		return s.Trace()
	}

	const threads = 17
	s := New(Config{Mode: policy.RoundRobin})
	s.HostThreads()
	h := s.host
	for i := 0; i < threads; i++ {
		s.Register("t")
	}
	if s.threads != &h.threads || len(h.threads) != threads || h.threads[0] == nil || h.threads[threads-1] == nil {
		t.Fatalf("%d threads registered into a table of %d that is not the host record's", threads, len(s.tableLocked()))
	}
	for _, th := range h.threads {
		s.GetTurn(th)
		s.Exit(th)
	}
	h.threads[0] = &Thread{} // a stale entry the drain must not hand on
	s.DrainHosted()
	if s.threads != nil || len(h.threads) != 0 || cap(h.threads) < threads || h.threads[:1][0] != nil {
		t.Errorf("drained host: scheduler table %v, host table len %d cap %d, first slot %v; want none, 0, >= %d, nil",
			s.threads, len(h.threads), cap(h.threads), h.threads[:1][0], threads)
	}

	ch := &keepDefault{}
	s = New(Config{Mode: policy.RoundRobin, Record: true, Chooser: ch})
	narrow := yields(s, inlineCands)
	if ch.widest != inlineCands {
		t.Fatalf("chooser saw at most %d candidates, want %d", ch.widest, inlineCands)
	}
	if &s.chooseIDs[:1][0] != &s.chooseIDsInline[0] || &s.chooseCands[:1][0] != &s.chooseCandsInline[0] {
		t.Errorf("chooser scratch left its inline backing at %d candidates", inlineCands)
	}
	if want := yields(New(Config{Mode: policy.RoundRobin, Record: true}), inlineCands); !tracesEqual(narrow, want) {
		t.Error("default-keeping chooser changed the schedule")
	}

	ch = &keepDefault{}
	wide := yields(New(Config{Mode: policy.RoundRobin, Record: true, Chooser: ch}), 2*inlineCands)
	if ch.widest != 2*inlineCands {
		t.Fatalf("chooser saw at most %d candidates, want %d", ch.widest, 2*inlineCands)
	}
	if want := yields(New(Config{Mode: policy.RoundRobin, Record: true}), 2*inlineCands); !tracesEqual(wide, want) {
		t.Error("schedule changed once the chooser scratch spilled to the heap")
	}
}

// TestRegisterInRejectsRegisteredThread: in-place registration takes a zero
// Thread; handing it one that is already a queue node is a caller bug.
func TestRegisterInRejectsRegisteredThread(t *testing.T) {
	s := New(Config{Mode: policy.RoundRobin})
	s.HostThreads()
	var th Thread
	if got := s.RegisterIn(&th, "once"); got != &th || th.ID() != 0 || th.Name() != "once" {
		t.Fatalf("RegisterIn returned %v for caller storage %p", got, &th)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("registering the same Thread twice did not panic")
		}
	}()
	s.RegisterIn(&th, "twice")
}

// TestRegisterInRefusesIDPastInt32: an Event holds a thread id as an int32,
// so the id math.MaxInt32 is the last a domain hands out; the next
// registration panics rather than record an id that wraps onto T0's.
func TestRegisterInRefusesIDPastInt32(t *testing.T) {
	s := New(Config{Mode: policy.RoundRobin})
	s.HostThreads()
	s.nextTID = math.MaxInt32
	if th := s.Register("last"); th.ID() != math.MaxInt32 {
		t.Fatalf("the thread at the bound got id %d, want %d", th.ID(), math.MaxInt32)
	}
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "thread id 2147483648 is past math.MaxInt32") {
			t.Fatalf("registering past the bound: panic %q", msg)
		}
		if int64(s.nextTID) != math.MaxInt32+1 || s.live != 1 {
			t.Fatalf("the refused registration changed the scheduler: nextTID %d, live %d", s.nextTID, s.live)
		}
	}()
	s.Register("wrapped")
}
