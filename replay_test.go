package qithread

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"qithread/internal/core"
	"qithread/internal/ingress"
	"qithread/internal/trace"
)

// replayProgram is a nontrivial program with contention, condvars and
// dynamic work distribution — enough moving parts that a wrong schedule
// would be visible.
func replayProgram(rt *Runtime) []int {
	var handled []int
	var queue []int
	done := false
	rt.Run(func(main *Thread) {
		m := rt.NewMutex(main, "m")
		cv := rt.NewCond(main, "cv")
		var kids []*Thread
		for i := 0; i < 3; i++ {
			i := i
			kids = append(kids, main.Create(fmt.Sprintf("w%d", i), func(w *Thread) {
				for {
					m.Lock(w)
					for len(queue) == 0 && !done {
						cv.Wait(w, m)
					}
					if len(queue) == 0 && done {
						m.Unlock(w)
						return
					}
					it := queue[0]
					queue = queue[1:]
					handled = append(handled, it*10+i)
					m.Unlock(w)
					w.Work(int64(20 * (it + 1)))
				}
			}))
		}
		for it := 0; it < 9; it++ {
			m.Lock(main)
			queue = append(queue, it)
			m.Unlock(main)
			cv.Signal(main)
			main.Work(7)
		}
		m.Lock(main)
		done = true
		m.Unlock(main)
		cv.Broadcast(main)
		for _, k := range kids {
			main.Join(k)
		}
	})
	return handled
}

// TestReplayReproducesSchedule: a schedule recorded under the all-policies
// configuration replays exactly — same trace AND same data outcome (which
// worker handled which item) — even under a runtime with all policies off.
func TestReplayReproducesSchedule(t *testing.T) {
	rec := New(Config{Mode: RoundRobin, Policies: AllPolicies, Record: true})
	wantHandled := replayProgram(rec)
	recorded := rec.Trace()
	if len(recorded) == 0 {
		t.Fatal("nothing recorded")
	}

	rep := New(Config{Mode: RoundRobin, Policies: NoPolicies, Record: true, Replay: recorded})
	gotHandled := replayProgram(rep)
	replayed := rep.Trace()

	if len(replayed) != len(recorded) {
		t.Fatalf("replayed %d ops, recorded %d", len(replayed), len(recorded))
	}
	for i := range recorded {
		if recorded[i] != replayed[i] {
			t.Fatalf("schedule differs at %d: %v vs %v", i, recorded[i], replayed[i])
		}
	}
	if len(gotHandled) != len(wantHandled) {
		t.Fatalf("handled %d items, want %d", len(gotHandled), len(wantHandled))
	}
	for i := range wantHandled {
		if gotHandled[i] != wantHandled[i] {
			t.Fatalf("work distribution differs at %d: %d vs %d — replay did not reproduce the execution", i, gotHandled[i], wantHandled[i])
		}
	}
}

// TestReplayBorrowsSchedule: the runtime enforces the caller's schedule slice
// in place, and only ever reads it — one loaded schedule drives two runtimes
// at once (the race detector watches the shared slice) and is bit-identical
// to a pristine copy afterwards.
func TestReplayBorrowsSchedule(t *testing.T) {
	rec := New(Config{Mode: RoundRobin, Policies: AllPolicies, Record: true})
	wantHandled := replayProgram(rec)
	var file bytes.Buffer
	if err := trace.SaveBinary(&file, rec.Trace()); err != nil {
		t.Fatal(err)
	}
	loaded, err := trace.Load(&file)
	if err != nil {
		t.Fatal(err)
	}
	pristine := slices.Clone(loaded)

	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rep := New(Config{Mode: RoundRobin, Policies: NoPolicies, Record: true, Replay: loaded})
			handled := replayProgram(rep)
			if !slices.Equal(rep.Trace(), pristine) {
				t.Error("concurrent replay did not reproduce the recorded schedule")
			}
			if !slices.Equal(handled, wantHandled) {
				t.Errorf("concurrent replay distributed work as %v, recorded %v", handled, wantHandled)
			}
		}()
	}
	wg.Wait()
	if !slices.Equal(loaded, pristine) {
		t.Fatal("replay modified the schedule it borrowed")
	}
}

// TestTruncatedReplayTrace: a schedule cut short at k is enforced for k
// operations, which the replaying run retains by reference, and the run
// records the rest itself. Its Trace() must be exactly what a streaming run
// of the same replay hands its sink, with the recording's first k events
// first.
func TestTruncatedReplayTrace(t *testing.T) {
	rec := New(Config{Mode: RoundRobin, Policies: AllPolicies, Record: true})
	replayProgram(rec)
	recorded := rec.Trace()
	n := len(recorded)
	for _, k := range []int{1, n / 3, n - 1, n} {
		rep := New(Config{Mode: RoundRobin, Policies: AllPolicies, Record: true, Replay: recorded[:k]})
		replayProgram(rep)
		var sink sliceSink
		streamed := New(Config{Mode: RoundRobin, Policies: AllPolicies, Record: true, Replay: recorded[:k],
			StreamTrace: func(int) TraceSink { return &sink }})
		replayProgram(streamed)
		got := rep.Trace()
		if !slices.Equal(got, sink.events) || !slices.Equal(got[:k], recorded[:k]) {
			t.Fatalf("k=%d of %d: Trace() %d events, streamed %d; the borrowed prefix or the recorded rest is wrong", k, n, len(got), len(sink.events))
		}
		if !rep.Fingerprint().Equal(streamed.Fingerprint()) {
			t.Fatalf("k=%d: fingerprint %v retained, %v streamed", k, rep.Fingerprint(), streamed.Fingerprint())
		}
	}
}

type sliceSink struct{ events []Event }

func (s *sliceSink) Append(e Event) error {
	s.events = append(s.events, e)
	return nil
}

// serverShape is a small deterministic sharded server, the shape of the
// benchmark's server_record and replay workloads: domain 0 admits ingress
// events and routes them by payload over one XPipe per shard domain, where
// two workers each take batches and update a locked state. With input nil it
// records two live sources; otherwise it replays input and, when scheds is
// set, enforces one recorded schedule per domain. It returns every domain's
// Trace() and the ingress log.
func serverShape(input *IngressLog, scheds [][]Event) ([][]Event, *IngressLog) {
	const shards, batch, events = 2, 4, 64
	cfg := Config{Mode: RoundRobin, Policies: AllPolicies, Record: true}
	if scheds != nil {
		cfg.Replay = scheds[0]
	}
	rt := New(cfg)
	doms := make([]*Domain, shards)
	pipes := make([]*XPipe, shards)
	for k := range doms {
		doms[k] = rt.NewDomain(fmt.Sprintf("shard%d", k))
		if scheds != nil {
			doms[k].SetReplay(scheds[k+1])
		}
		pipes[k] = rt.NewXPipe(fmt.Sprintf("route%d", k), rt.Domain(0), doms[k], batch)
	}
	gw := rt.NewGateway("ingress", rt.Domain(0), GatewayConfig{StageCap: batch, MaxBatch: batch, Replay: input})
	for s := 0; s < 2; s++ {
		gw.AddSource(ingress.FuncSource("feed", func(p *ingress.Port) {
			for i := s; i < events; i += 2 {
				p.Push([]byte{byte(i)})
			}
		}))
	}
	rt.Run(func(main *Thread) {
		for k := range doms {
			doms[k].Start("root", func(root *Thread) {
				state := rt.NewMutex(root, "state")
				var kids []*Thread
				for w := 0; w < 2; w++ {
					kids = append(kids, root.Create("worker", func(w *Thread) {
						buf := make([]any, batch)
						for {
							n, ok := pipes[k].RecvUpTo(w, buf)
							for range n {
								state.Lock(w)
								w.Work(3)
								state.Unlock(w)
							}
							if !ok {
								return
							}
						}
					}))
				}
				for _, kid := range kids {
					root.Join(kid)
				}
			})
			doms[k].Launch()
		}
		buf := make([]IngressEvent, batch)
		for {
			n, ok := gw.Admit(main, buf)
			for _, e := range buf[:n] {
				pipes[int(e.Data[0])%shards].Send(main, e.Data[0])
			}
			if !ok {
				break
			}
		}
		for _, p := range pipes {
			p.Close(main)
		}
	})
	traces := make([][]Event, rt.NumDomains())
	for d := range traces {
		traces[d] = rt.Domain(d).Trace()
	}
	return traces, gw.Log()
}

// TestServerReplayTraces: a multi-domain server replaying its ingress log
// and every domain's recorded schedule returns, from every domain, a Trace()
// deep-equal to the recording, Domain included — the borrowed
// prefixes carry the domain ids of their schedulers.
func TestServerReplayTraces(t *testing.T) {
	recorded, log := serverShape(nil, nil)
	for d, tr := range recorded {
		if len(tr) == 0 || int(tr[len(tr)-1].Domain) != d {
			t.Fatalf("domain %d recorded %d events", d, len(tr))
		}
	}
	for _, scheds := range [][][]Event{nil, recorded} {
		replayed, _ := serverShape(log, scheds)
		for d := range recorded {
			if !slices.Equal(replayed[d], recorded[d]) {
				t.Fatalf("schedule replay %v: domain %d traced %d events, recorded %d, or they differ", scheds != nil, d, len(replayed[d]), len(recorded[d]))
			}
		}
	}
}

// TestReplayTraceIsTheSchedule: after a fully verified replay of loaded
// binary schedules, the default domain's and a launched domain's Trace() is
// the loaded schedule itself — same backing array, len == cap — and still
// equals the recording, so an append copies instead of writing into the
// schedule. Where the trace is not exactly the schedule, Trace() is a fresh
// copy (a second call returns another array) equal to the recording: a replay
// that ran out with recording continuing, a schedule whose borrowed events
// carry another Domain, and a run resumed from a checkpoint.
func TestReplayTraceIsTheSchedule(t *testing.T) {
	sameArray := func(a, b []Event) bool { return len(a) > 0 && len(b) > 0 && &a[0] == &b[0] }
	fresh := func(what string, trace func() []Event, want []Event) {
		t.Helper()
		got := trace()
		if !slices.Equal(got, want) {
			t.Fatalf("%s: Trace() has %d events, the recording %d, or they differ", what, len(got), len(want))
		}
		if sameArray(got, trace()) {
			t.Fatalf("%s: two Trace() calls returned one array, want a fresh copy each", what)
		}
	}

	recorded, recordedLog := serverShape(nil, nil)
	var logFile bytes.Buffer
	if err := recordedLog.SaveBinary(&logFile); err != nil {
		t.Fatal(err)
	}
	log, err := LoadIngressLog(&logFile)
	if err != nil {
		t.Fatal(err)
	}
	loaded := make([][]Event, len(recorded))
	for d, tr := range recorded {
		var file bytes.Buffer
		if err := trace.SaveBinary(&file, tr); err != nil {
			t.Fatal(err)
		}
		if loaded[d], err = trace.Load(&file); err != nil {
			t.Fatal(err)
		}
	}
	pristine := make([][]Event, len(loaded))
	for d := range loaded {
		pristine[d] = slices.Clone(loaded[d])
	}
	replayed, _ := serverShape(log, loaded)
	for _, d := range []int{0, 1} { // the default domain and a launched one
		got := replayed[d]
		if !sameArray(got, loaded[d]) || len(got) != cap(got) || !slices.Equal(got, recorded[d]) {
			t.Fatalf("domain %d: Trace() (%d events, cap %d) is not the %d-event schedule it replayed, or differs from the recording",
				d, len(got), cap(got), len(loaded[d]))
		}
		_ = append(got, Event{TID: 99, Op: core.OpYield})
		if !slices.Equal(loaded[d], pristine[d]) {
			t.Fatalf("domain %d: appending to Trace() modified the schedule", d)
		}
	}

	rec := New(Config{Mode: RoundRobin, Policies: AllPolicies, Record: true})
	replayProgram(rec)
	want := rec.Trace()
	for name, schedule := range map[string][]Event{
		"replay ran out": slices.Clone(want[:len(want)/2]),
		"other Domain":   slices.Clone(want),
	} {
		if name == "other Domain" {
			schedule[len(schedule)/2].Domain = 7
		}
		rep := New(Config{Mode: RoundRobin, Policies: AllPolicies, Record: true, Replay: schedule})
		replayProgram(rep)
		fresh(name, rep.Trace, want)
	}

	// The resumed run re-creates the mutex, resumes at the checkpoint and
	// retains only what follows it: the recording's tail.
	var cp *Checkpoint
	program := func(rt *Runtime, resume bool) {
		rt.Run(func(main *Thread) {
			m := rt.NewMutex(main, "m")
			if resume {
				if err := rt.Resume(main); err != nil {
					t.Fatal(err)
				}
			} else {
				for range 3 {
					m.Lock(main)
					m.Unlock(main)
				}
				var err error
				if cp, err = rt.Checkpoint(main, nil); err != nil {
					t.Fatal(err)
				}
			}
			for range 4 {
				m.Lock(main)
				m.Unlock(main)
			}
		})
	}
	full := New(Config{Mode: RoundRobin, Record: true})
	program(full, false)
	whole := full.Trace()
	resumed := New(Config{Mode: RoundRobin, Record: true, Resume: cp})
	program(resumed, true)
	n := len(resumed.Trace())
	if n == 0 || n >= len(whole) {
		t.Fatalf("resumed checkpoint: traced %d events of the recording's %d", n, len(whole))
	}
	fresh("resumed checkpoint", resumed.Trace, whole[len(whole)-n:])
}

// TestReplayDivergenceDetected: replaying a schedule against a different
// program panics with a divergence diagnostic at the first mismatch, and the
// diagnostic is actionable on its own — it names the domain, the op index,
// and the expected-vs-executed operations with their objects, and dumps the
// scheduler's queues like every other divergence. A schedule
// explorer replays thousands of schedules; "which op, expected what, got
// what" must not require re-running under a debugger.
func TestReplayDivergenceDetected(t *testing.T) {
	rec := New(Config{Mode: RoundRobin, Policies: AllPolicies, Record: true})
	replayProgram(rec)
	recorded := rec.Trace()

	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected divergence panic")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "replay divergence") {
			t.Fatalf("unexpected panic value: %v", r)
		}
		// The divergent program's first mismatch is deterministic: the
		// recording's op 1 initializes the condvar, the replayed program
		// locks its mutex instead.
		for _, want := range []string{
			"in domain 0 at op index 1",
			"expected {T0 " + recorded[1].Op.String(),
			"executed {T0 lock",
			"mutex:other",
			"holder=T0(main)", // the scheduler state follows the reason
			"runQ: T0(main)",
		} {
			if !strings.Contains(msg, want) {
				t.Fatalf("divergence diagnostic missing %q:\n%s", want, msg)
			}
		}
	}()
	rep := New(Config{Mode: RoundRobin, Replay: recorded})
	// A different program: an extra mutex operation first.
	rep.Run(func(main *Thread) {
		m := rep.NewMutex(main, "other")
		m.Lock(main)
		m.Unlock(main)
	})
}

// TestReplayNegativeThreadID: a hand-built Config.Replay passes no loader, so
// the scheduler itself must answer an impossible thread id with the
// divergence diagnostic, not an index-out-of-range under its mutex.
func TestReplayNegativeThreadID(t *testing.T) {
	defer func() {
		r := recover()
		if msg, ok := r.(string); !ok || !strings.HasPrefix(msg, "core: replay divergence") {
			t.Fatalf("panic value %v, want a core: replay divergence diagnostic", r)
		}
	}()
	rt := New(Config{Mode: RoundRobin, Replay: []Event{{TID: -1}}})
	rt.Run(func(main *Thread) { main.Yield() })
	t.Fatal("replay of a negative thread id ran to completion")
}

// TestReplayUnknownThreadDiverges: a schedule whose next event belongs to a
// thread the program never creates — any id a loader accepts — leaves the
// turn waiting for that thread's creator while every thread there is waits
// for the turn. The domain's driver finds nothing to resume, and that is the
// divergence diagnostic out of Run, not a hang — with PCS hints honored too.
func TestReplayUnknownThreadDiverges(t *testing.T) {
	for _, pcs := range []bool{false, true} {
		done := make(chan any, 1)
		go func() {
			defer func() { done <- recover() }()
			rt := New(Config{Mode: RoundRobin, PCS: pcs, Record: true, Replay: []Event{{TID: 3, Op: core.OpYield}}})
			rt.Run(func(main *Thread) { main.Yield() })
		}()
		select {
		case r := <-done:
			msg, _ := r.(string)
			for _, want := range []string{core.ErrReplayDivergence, "in domain 0 at op index 0", "expected T3 to run yield", "runQ: T0(main)"} {
				if !strings.Contains(msg, want) {
					t.Fatalf("PCS %v: panic value %v, want a divergence diagnostic containing %q", pcs, r, want)
				}
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("PCS %v: a replay naming a thread the program never creates hung", pcs)
		}
	}
}

// TestReplayRequiresDeterministicMode: misconfiguration is rejected loudly.
func TestReplayRequiresDeterministicMode(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Replay with Nondet mode")
		}
	}()
	New(Config{Mode: Nondet, Replay: []Event{{}}})
}

// TestJoinObjectLabels pins how reports name a thread's join object:
// `thread:<name>`, rendered from the live thread rather than stored beside
// the wrapper objects' labels. A seeded deadlock's report lists the blocked
// join's wait list under that label, and a replay that departs from its
// recording at a join names the thread in the expected operation — unless
// the thread has already retired the object on its way out.
func TestJoinObjectLabels(t *testing.T) {
	t.Run("deadlock", func(t *testing.T) {
		defer func() {
			msg, _ := recover().(string)
			for _, want := range []string{
				"core: deterministic deadlock",
				"  waitQ[mutex:m#1]: T1(stuck)\n",
				"  waitQ[thread:stuck#2]: T0(main)\n",
			} {
				if !strings.Contains(msg, want) {
					t.Fatalf("deadlock report missing %q:\n%s", want, msg)
				}
			}
		}()
		rt := New(Config{Mode: RoundRobin})
		rt.Run(func(main *Thread) {
			m := rt.NewMutex(main, "m")
			m.Lock(main)
			main.Join(main.Create("stuck", func(w *Thread) { m.Lock(w) }))
		})
		t.Fatal("a join on a thread blocked for good ran to completion")
	})
	t.Run("divergence", func(t *testing.T) {
		// kid yields before it exits, so main's join finds it alive.
		program := func(rt *Runtime, join bool) {
			rt.Run(func(main *Thread) {
				kid := main.Create("kid", func(w *Thread) { w.Yield(); w.Yield() })
				if join {
					main.Join(kid)
				} else {
					main.Yield()
				}
			})
		}
		rec := New(Config{Mode: RoundRobin, Record: true})
		program(rec, true)
		defer func() {
			msg, _ := recover().(string)
			for _, want := range []string{
				core.ErrReplayDivergence,
				"expected {T0 join obj=1(thread:kid) blocks}, executed {T0 yield obj=0() }",
			} {
				if !strings.Contains(msg, want) {
					t.Fatalf("divergence diagnostic missing %q:\n%s", want, msg)
				}
			}
		}()
		program(New(Config{Mode: RoundRobin, Replay: rec.Trace()}), false)
		t.Fatal("a replay that yields where the recording joins ran to completion")
	})
	t.Run("retired", func(t *testing.T) {
		// The schedule has kid join its own join object where kid exits: by
		// then kid's exit has destroyed the object, so it has no name.
		defer func() {
			msg, _ := recover().(string)
			want := "expected {T1 join obj=1() blocks}, executed {T1 thread_end obj=0() }"
			if !strings.Contains(msg, want) {
				t.Fatalf("divergence diagnostic missing %q:\n%s", want, msg)
			}
		}()
		rt := New(Config{Mode: RoundRobin, Replay: []Event{
			{TID: 0, Op: core.OpCreate, Obj: 1},
			{TID: 1, Op: core.OpThreadBegin},
			{TID: 1, Op: core.OpJoin, Obj: 1, Status: core.StatusBlocked},
		}})
		rt.Run(func(main *Thread) { main.Join(main.Create("kid", func(*Thread) {})) })
		t.Fatal("a replay that joins where the program exits ran to completion")
	})
}
