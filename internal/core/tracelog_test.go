package core_test

import (
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"qithread/internal/core"
	"qithread/internal/trace"
)

type sliceSink struct{ events []core.Event }

func (s *sliceSink) Append(e core.Event) error {
	s.events = append(s.events, e)
	return nil
}

// record drives n events through one turn-holding thread, the driver of a
// hosted scheduler that never hands the turn on: enough variety in
// thread-independent fields that a misplaced or duplicated chunk shows up in
// the comparison, and nothing but TraceOp between the two memory readings.
// A non-empty replay is enforced while it lasts.
func record(cfg core.Config, replay []core.Event, n int) (*core.Scheduler, uint64) {
	cfg.Record = true
	s := core.New(cfg)
	s.SetReplay(replay)
	s.HostThreads()
	th := s.Register("t0")
	s.GetTurn(th)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		s.TraceOp(th, core.OpMutexLock+core.OpKind(i%3), uint64(1+i%7), core.EventStatus(i%3))
	}
	runtime.ReadMemStats(&after)
	return s, after.TotalAlloc - before.TotalAlloc
}

// TestChunkedTraceRetention: a retained trace is a list of chunks, and at
// every chunk boundary Trace() must still be exactly the event sequence a
// sink would have seen, positions and running hash included.
func TestChunkedTraceRetention(t *testing.T) {
	lo, hi := core.TraceChunkMin, core.TraceChunkMax
	for _, n := range []int{0, 1, lo - 1, lo, lo + 1, hi - 1, hi, hi + 1, 3*hi + 7} {
		sink := &sliceSink{}
		streamed, _ := record(core.Config{Sink: sink}, nil, n)
		s, _ := record(core.Config{}, nil, n)
		got := s.Trace()
		if n == 0 && got != nil {
			t.Fatalf("n=0: Trace() = non-nil empty slice, want nil")
		}
		if !slices.Equal(got, sink.events) {
			t.Fatalf("n=%d: retained trace (%d events) differs from what the sink saw (%d events)", n, len(got), len(sink.events))
		}
		for i, e := range got {
			if e.Seq != int64(i) {
				t.Fatalf("n=%d: trace[%d].Seq = %d", n, i, e.Seq)
			}
		}
		if h := trace.Hash(got); s.TraceHash() != h || streamed.TraceHash() != h {
			t.Fatalf("n=%d: TraceHash retained %016x, streamed %016x, trace.Hash(Trace()) %016x", n, s.TraceHash(), streamed.TraceHash(), h)
		}
		if len(got) != n {
			t.Fatalf("n=%d: retained %d events", n, len(got))
		}
		if tr := streamed.Trace(); tr != nil {
			t.Fatalf("n=%d: streaming scheduler retained %d events", n, len(tr))
		}
	}
}

// TestTraceRetentionAllocBound: recording writes each event once. A single
// regrowing slice allocates about five times the trace's size on the way to
// 200,000 events; the chunk list may over-allocate by its last chunk only.
// Trace() then costs exactly one more allocation, the caller's flat copy.
func TestTraceRetentionAllocBound(t *testing.T) {
	const n = 200000
	s, allocated := record(core.Config{}, nil, n)
	exact := uint64(n) * uint64(unsafe.Sizeof(core.Event{}))
	if limit := exact * 115 / 100; allocated > limit {
		t.Fatalf("recording %d events allocated %d bytes, %.2fx the trace itself (limit 1.15x = %d)",
			n, allocated, float64(allocated)/float64(exact), limit)
	}
	if a := testing.AllocsPerRun(3, func() { _ = s.Trace() }); a != 1 {
		t.Fatalf("Trace() made %v allocations, want 1", a)
	}
}

// TestReplayTraceBorrowsPrefix: a replaying scheduler retains the verified
// prefix of its schedule by reference, and Trace() still returns exactly the
// events a sink sees — Seq numbered by position and Domain the scheduler's,
// whatever the schedule's own copies of them say — for a schedule that
// covers the run, one cut short (the rest is recorded after the borrowed
// prefix), and none. Replaying a schedule that covers the run copies none of
// it until Trace() is called.
func TestReplayTraceBorrowsPrefix(t *testing.T) {
	const n = 3*core.TraceChunkMax + 7
	cfg := core.Config{DomainID: 3}
	full, _ := record(cfg, nil, n)
	want := full.Trace()
	// The schedule as a loader might hand it over: positions and domain ids
	// are the replaying scheduler's to assign.
	schedule := slices.Clone(want)
	for i := range schedule {
		schedule[i].Seq, schedule[i].Domain = int64(n-i), 9
	}
	for _, k := range []int{0, 1, core.TraceChunkMin + 1, n / 2, n - 1, n} {
		sink := &sliceSink{}
		streamed, _ := record(core.Config{DomainID: 3, Sink: sink}, schedule[:k], n)
		s, allocated := record(cfg, schedule[:k], n)
		got := s.Trace()
		if !slices.Equal(got, want) || !slices.Equal(sink.events, want) {
			t.Fatalf("k=%d: replayed trace (%d events) or streamed events (%d) differ from the recording (%d)", k, len(got), len(sink.events), n)
		}
		if s.TraceHash() != full.TraceHash() || streamed.TraceHash() != full.TraceHash() {
			t.Fatalf("k=%d: TraceHash %016x retained, %016x streamed, recording %016x", k, s.TraceHash(), streamed.TraceHash(), full.TraceHash())
		}
		if k == n && allocated >= 1<<10 {
			t.Fatalf("replaying the whole %d-event schedule allocated %d bytes recording it", n, allocated)
		}
	}
	if !slices.EqualFunc(schedule, want, func(a, b core.Event) bool {
		return a.TID == b.TID && a.Op == b.Op && a.Obj == b.Obj && a.Status == b.Status
	}) {
		t.Fatal("replay modified the schedule it borrowed")
	}
}
