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
// structure — with an error, before it relinks anything: a wait entry with
// fewer park sequences than threads (which panicked with an index out of
// range), one that lists a thread twice (which relinked the wait list into
// a cycle, so the next Dump never returned), and a thread list that names
// one thread twice and leaves another out (which left the missing thread's
// clocks as the setup phase rebuilt them).
func TestRestoreRejectsHostileSnapshot(t *testing.T) {
	src, main, obj := parkedPair()
	snap, err := src.CaptureState(main)
	if err != nil {
		t.Fatal(err)
	}
	finish(src, main, obj)
	if len(snap.Waits2) != 1 || !slices.Equal(snap.Waits2[0].TIDs, []int{1, 2}) || len(snap.Threads) != 3 {
		t.Fatalf("captured %+v, want threads 1 and 2 parked on one object", snap)
	}
	for _, c := range []struct {
		name, want string
		edit       func(st *SchedState)
	}{
		{"the snapshot as captured", "", func(*SchedState) {}},
		{"fewer park sequences than waiters", "with 1 park sequences", func(st *SchedState) {
			st.Waits2[0].Seqs = st.Waits2[0].Seqs[:1]
		}},
		{"a waiter listed twice", "lists thread 1 twice", func(st *SchedState) {
			st.Waits2[0].TIDs = []int{1, 1}
		}},
		{"a thread listed twice, another missing", "lists thread 1 twice", func(st *SchedState) {
			st.Threads[2] = st.Threads[1]
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			st := *snap
			st.Waits2 = []WaitEntry{{Obj: snap.Waits2[0].Obj, TIDs: slices.Clone(snap.Waits2[0].TIDs), Seqs: slices.Clone(snap.Waits2[0].Seqs)}}
			st.Threads = slices.Clone(snap.Threads)
			c.edit(&st)
			s, main, obj := parkedPair()
			err := s.RestoreState(main, &st)
			switch {
			case c.want == "" && err != nil:
				t.Fatal(err)
			case c.want != "" && err == nil:
				t.Fatalf("RestoreState accepted the snapshot\n%s", s.Dump())
			case c.want != "" && !strings.Contains(err.Error(), c.want):
				t.Fatalf("RestoreState: %v, want an error containing %q", err, c.want)
			}
			if got := queueIDs(s.waitLists[obj]); !slices.Equal(got, []int{1, 2}) {
				t.Fatalf("wait list after RestoreState: %v, want [1 2]", got)
			}
			finish(s, main, obj)
		})
	}
}
