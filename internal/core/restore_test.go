package core

import (
	"slices"
	"strings"
	"testing"
)

// parkedPair is the setup phase of a small checkpointed program on a hosted
// scheduler created for a restore: the main thread holds the turn, and
// threads 1 and 2 are parked on one object, in that order.
func parkedPair() (s *Scheduler, main *Thread, obj uint64) {
	s = New(Config{Record: true, SuspendRecording: true})
	s.HostThreads()
	main = s.Register("main")
	obj = s.NewObject("cv")
	for _, name := range []string{"a", "b"} {
		th := s.Register(name)
		s.StartHosted(th, bodyFunc(func() {
			s.GetTurn(th)
			s.Wait(th, obj, NoTimeout)
			s.GetTurn(th)
			s.Exit(th)
		}))
	}
	s.GetTurn(main)
	s.PutTurn(main)
	s.GetTurn(main) // a and b run and park
	return s, main, obj
}

// finish wakes the parked pair and ends the run.
func finish(s *Scheduler, main *Thread, obj uint64) {
	s.Broadcast(main, obj)
	s.Exit(main)
	s.DrainHosted()
}

// TestRestoreRejectsHostileSnapshot: a checkpoint is outside input
// (qithread.LoadCheckpoint reads a file), so RestoreState must refuse a
// snapshot whose wait or thread entries do not describe the rebuilt
// structure — with an error, before it relinks anything: a wait entry that
// lists a thread twice (which relinked the wait list into a cycle, so the
// next Dump never returned), and a thread list that names one thread twice
// and leaves another out (which left the missing thread's clocks as the setup
// phase rebuilt them). A wait entry with fewer park sequences than threads,
// which panicked with an index out of range, cannot be written down since
// each waiter carries its own sequence (WaitEntry.Waiters).
func TestRestoreRejectsHostileSnapshot(t *testing.T) {
	src, main, obj := parkedPair()
	snap, err := src.CaptureState(main)
	if err != nil {
		t.Fatal(err)
	}
	finish(src, main, obj)
	if len(snap.WaitLists) != 1 || !slices.Equal(waiterIDs(snap.WaitLists[0]), []int{1, 2}) || len(snap.Threads) != 3 {
		t.Fatalf("captured %#v, want threads 1 and 2 parked on one object", snap)
	}
	for _, c := range []struct {
		name, want string
		edit       func(st *SchedState)
	}{
		{"the snapshot as captured", "", func(*SchedState) {}},
		{"a waiter listed twice", "lists thread 1 twice", func(st *SchedState) {
			st.WaitLists[0].Waiters[1].TID = 1
		}},
		{"a thread listed twice, another missing", "lists thread 1 twice", func(st *SchedState) {
			st.Threads[2] = st.Threads[1]
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			st := *snap
			st.WaitLists = []WaitEntry{{Obj: snap.WaitLists[0].Obj, Waiters: slices.Clone(snap.WaitLists[0].Waiters)}}
			st.Threads = slices.Clone(snap.Threads)
			c.edit(&st)
			s, main, obj := parkedPair()
			err := s.RestoreState(main, &st)
			switch {
			case c.want == "" && err != nil:
				t.Fatal(err)
			case c.want != "" && err == nil:
				t.Fatal(s.Failure("RestoreState accepted the snapshot"))
			case c.want != "" && !strings.Contains(err.Error(), c.want):
				t.Fatalf("RestoreState: %v, want an error containing %q", err, c.want)
			}
			e := s.objs[obj]
			if got := queueIDs(&e.waits); !slices.Equal(got, []int{1, 2}) {
				t.Fatalf("wait list after RestoreState: %v, want [1 2]", got)
			}
			finish(s, main, obj)
		})
	}
}

// parkedOnThree is the setup phase of a checkpointed program whose waiters
// spread over three objects of the object table, created as cond:x (1),
// mutex:y (2) and sem:z (3): threads 1 and 3 park on y, 2 and 4 on x, so the
// first list to fill is not the lowest id's, and thread 5 on z, which main
// then destroys with thread 5 still on it. With late, threads 1 and 2 yield
// twice first, so each pair parks in the other order.
func parkedOnThree(late bool) (s *Scheduler, main *Thread, objs [3]uint64) {
	s = New(Config{Record: true, SuspendRecording: true})
	s.HostThreads()
	main = s.Register("main")
	for i, k := range []string{"cond:", "mutex:", "sem:"} {
		objs[i] = s.NewObjectKind(k, string(rune('x'+i)))
	}
	for i, obj := range []uint64{objs[1], objs[0], objs[1], objs[0], objs[2]} {
		th := s.Register(string(rune('a' + i)))
		s.StartHosted(th, bodyFunc(func() {
			s.GetTurn(th)
			for y := 0; late && i < 2 && y < 2; y++ {
				s.PutTurn(th)
				s.GetTurn(th)
			}
			s.Wait(th, obj, NoTimeout)
			s.Exit(th)
		}))
	}
	s.GetTurn(main)
	for s.nWaiting < 5 {
		s.PutTurn(main)
		s.GetTurn(main)
	}
	s.DestroyObject(main, objs[2])
	return s, main, objs
}

// TestCheckpointThroughObjectTable: CaptureState reads each object's wait
// list from its table entry in id order, the destroyed object's kept list
// included; RestoreState, on a rebuilt run whose pairs parked the other way
// round, relinks every list into the recorded FIFO order; and the report
// names each live object by its label and the destroyed one by its id alone.
func TestCheckpointThroughObjectTable(t *testing.T) {
	src, main, objs := parkedOnThree(false)
	snap, err := src.CaptureState(main)
	if err != nil {
		t.Fatal(err)
	}
	finishThree := func(s *Scheduler, main *Thread) {
		for _, obj := range objs {
			s.Broadcast(main, obj)
		}
		s.Exit(main)
		s.DrainHosted()
	}
	want := [][]int{{2, 4}, {1, 3}, {5}} // objs[i]'s waiters, FIFO
	ok := len(snap.WaitLists) == len(want)
	for i := 0; ok && i < len(want); i++ {
		ok = snap.WaitLists[i].Obj == objs[i] && slices.Equal(waiterIDs(snap.WaitLists[i]), want[i])
	}
	if !ok {
		t.Fatalf("captured wait lists %+v, want objects %v with waiters %v", snap.WaitLists, objs, want)
	}
	dump := src.Failure("parked on three")
	for _, line := range []string{"waitQ[cond:x#1]: T2(b) T4(d)", "waitQ[mutex:y#2]: T1(a) T3(c)", "waitQ[#3]: T5(e)"} {
		if !strings.Contains(dump, line) {
			t.Errorf("report lacks %q:\n%s", line, dump)
		}
	}
	finishThree(src, main)

	dst, dmain, _ := parkedOnThree(true)
	e := dst.objs[objs[1]]
	if got := queueIDs(&e.waits); !slices.Equal(got, []int{3, 1}) {
		t.Fatalf("rebuilt run parked %v on mutex:y, want [3 1]", got)
	}
	if err := dst.RestoreState(dmain, snap); err != nil {
		t.Fatal(err)
	}
	for i, tids := range want {
		e := dst.objs[objs[i]]
		if got := queueIDs(&e.waits); !slices.Equal(got, tids) {
			t.Errorf("object %d's list after RestoreState is %v, want %v", objs[i], got, tids)
		}
	}
	finishThree(dst, dmain)
}

// waiterIDs lists a captured wait list's thread ids in FIFO order.
func waiterIDs(we WaitEntry) []int {
	var ids []int
	for _, w := range we.Waiters {
		ids = append(ids, w.TID)
	}
	return ids
}
