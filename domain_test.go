package qithread

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"qithread/internal/core"
	"qithread/internal/ingress"
)

// partitionModes are the two ends of mode selection: the partition rules of
// DESIGN.md §4.3 hold under the turn mechanism and without it.
func partitionModes() []Config {
	return []Config{{Mode: RoundRobin}, {Mode: Nondet}}
}

// recovered runs fn and returns what it panicked with, rendered ("" when it
// returned normally).
func recovered(fn func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	fn()
	return ""
}

// TestPartitionViolationsPanic: every way a thread can touch a
// synchronization object of another domain panics, under every mode, with a
// message naming both domains. The object is created by main in the default
// domain; the intruder is a root thread of a second domain.
func TestPartitionViolationsPanic(t *testing.T) {
	type setup func(rt *Runtime, main *Thread, other *Domain) (intrude func(x *Thread))
	rows := []struct {
		name  string
		tweak func(*Config)
		setup setup
	}{
		{"Mutex.Lock", nil, func(rt *Runtime, main *Thread, _ *Domain) func(*Thread) {
			m := rt.NewMutex(main, "m")
			return func(x *Thread) { m.Lock(x) }
		}},
		{"Mutex.TryLock", nil, func(rt *Runtime, main *Thread, _ *Domain) func(*Thread) {
			m := rt.NewMutex(main, "m")
			return func(x *Thread) { m.TryLock(x) }
		}},
		{"Mutex.Unlock", nil, func(rt *Runtime, main *Thread, _ *Domain) func(*Thread) {
			m := rt.NewMutex(main, "m")
			return func(x *Thread) { m.Unlock(x) }
		}},
		{"Mutex.Destroy", nil, func(rt *Runtime, main *Thread, _ *Domain) func(*Thread) {
			m := rt.NewMutex(main, "m")
			return func(x *Thread) { m.Destroy(x) }
		}},
		{"PCSMutex.Lock under Config.PCS", func(c *Config) { c.PCS = true }, func(rt *Runtime, main *Thread, _ *Domain) func(*Thread) {
			m := rt.NewPCSMutex(main, "hot")
			return func(x *Thread) { m.Lock(x) }
		}},
		{"RWMutex.RLock", nil, func(rt *Runtime, main *Thread, _ *Domain) func(*Thread) {
			rw := rt.NewRWMutex(main, "rw")
			return func(x *Thread) { rw.RLock(x) }
		}},
		{"RWMutex.WLock", nil, func(rt *Runtime, main *Thread, _ *Domain) func(*Thread) {
			rw := rt.NewRWMutex(main, "rw")
			return func(x *Thread) { rw.WLock(x) }
		}},
		{"RWMutex.RUnlock", nil, func(rt *Runtime, main *Thread, _ *Domain) func(*Thread) {
			rw := rt.NewRWMutex(main, "rw")
			return func(x *Thread) { rw.RUnlock(x) }
		}},
		{"RWMutex.TryRLock", nil, func(rt *Runtime, main *Thread, _ *Domain) func(*Thread) {
			rw := rt.NewRWMutex(main, "rw")
			return func(x *Thread) { rw.TryRLock(x) }
		}},
		{"RWMutex.TryWLock", nil, func(rt *Runtime, main *Thread, _ *Domain) func(*Thread) {
			rw := rt.NewRWMutex(main, "rw")
			return func(x *Thread) { rw.TryWLock(x) }
		}},
		{"RWMutex.WUnlock", nil, func(rt *Runtime, main *Thread, _ *Domain) func(*Thread) {
			rw := rt.NewRWMutex(main, "rw")
			return func(x *Thread) { rw.WUnlock(x) }
		}},
		{"RWMutex.Destroy", nil, func(rt *Runtime, main *Thread, _ *Domain) func(*Thread) {
			rw := rt.NewRWMutex(main, "rw")
			return func(x *Thread) { rw.Destroy(x) }
		}},
		// The intruder does not hold m either: the partition is checked first.
		{"Cond.Wait", nil, func(rt *Runtime, main *Thread, _ *Domain) func(*Thread) {
			m, c := rt.NewMutex(main, "m"), rt.NewCond(main, "cv")
			return func(x *Thread) { c.Wait(x, m) }
		}},
		{"Cond.TimedWait", nil, func(rt *Runtime, main *Thread, _ *Domain) func(*Thread) {
			m, c := rt.NewMutex(main, "m"), rt.NewCond(main, "cv")
			return func(x *Thread) { c.TimedWait(x, m, 1) }
		}},
		{"Cond.Signal", nil, func(rt *Runtime, main *Thread, _ *Domain) func(*Thread) {
			c := rt.NewCond(main, "cv")
			return func(x *Thread) { c.Signal(x) }
		}},
		{"Cond.Broadcast", nil, func(rt *Runtime, main *Thread, _ *Domain) func(*Thread) {
			c := rt.NewCond(main, "cv")
			return func(x *Thread) { c.Broadcast(x) }
		}},
		{"Cond.Destroy", nil, func(rt *Runtime, main *Thread, _ *Domain) func(*Thread) {
			c := rt.NewCond(main, "cv")
			return func(x *Thread) { c.Destroy(x) }
		}},
		{"Sem.Wait", nil, func(rt *Runtime, main *Thread, _ *Domain) func(*Thread) {
			s := rt.NewSem(main, "s", 1)
			return func(x *Thread) { s.Wait(x) }
		}},
		{"Sem.Post", nil, func(rt *Runtime, main *Thread, _ *Domain) func(*Thread) {
			s := rt.NewSem(main, "s", 0)
			return func(x *Thread) { s.Post(x) }
		}},
		{"Sem.TryWait", nil, func(rt *Runtime, main *Thread, _ *Domain) func(*Thread) {
			s := rt.NewSem(main, "s", 1)
			return func(x *Thread) { s.TryWait(x) }
		}},
		{"Sem.TimedWait", nil, func(rt *Runtime, main *Thread, _ *Domain) func(*Thread) {
			s := rt.NewSem(main, "s", 0)
			return func(x *Thread) { s.TimedWait(x, 1) }
		}},
		{"Sem.Value", nil, func(rt *Runtime, main *Thread, _ *Domain) func(*Thread) {
			s := rt.NewSem(main, "s", 0)
			return func(x *Thread) { s.Value(x) }
		}},
		{"Sem.Destroy", nil, func(rt *Runtime, main *Thread, _ *Domain) func(*Thread) {
			s := rt.NewSem(main, "s", 0)
			return func(x *Thread) { s.Destroy(x) }
		}},
		{"Barrier.Wait", nil, func(rt *Runtime, main *Thread, _ *Domain) func(*Thread) {
			b := rt.NewBarrier(main, "b", 2)
			return func(x *Thread) { b.Wait(x) }
		}},
		{"Barrier.Destroy", nil, func(rt *Runtime, main *Thread, _ *Domain) func(*Thread) {
			b := rt.NewBarrier(main, "b", 2)
			return func(x *Thread) { b.Destroy(x) }
		}},
		{"SoftBarrier.Arrive", func(c *Config) { c.SoftBarriers = true }, func(rt *Runtime, main *Thread, _ *Domain) func(*Thread) {
			sb := rt.NewSoftBarrier(main, "sb", 2)
			return func(x *Thread) { sb.Arrive(x) }
		}},
		{"Once.Do", nil, func(rt *Runtime, main *Thread, _ *Domain) func(*Thread) {
			o := rt.NewOnce(main, "o")
			return func(x *Thread) { o.Do(x, func() {}) }
		}},
		{"Pipe.Send", nil, func(rt *Runtime, main *Thread, _ *Domain) func(*Thread) {
			p := rt.NewPipe(main, "p", 1)
			return func(x *Thread) { p.Send(x, 1) }
		}},
		{"Pipe.Recv", nil, func(rt *Runtime, main *Thread, _ *Domain) func(*Thread) {
			p := rt.NewPipe(main, "p", 1)
			return func(x *Thread) { p.Recv(x) }
		}},
		{"Pipe.Close", nil, func(rt *Runtime, main *Thread, _ *Domain) func(*Thread) {
			p := rt.NewPipe(main, "p", 1)
			return func(x *Thread) { p.Close(x) }
		}},
		{"Thread.Join", nil, func(rt *Runtime, main *Thread, _ *Domain) func(*Thread) {
			c := main.Create("child", func(*Thread) {})
			main.Join(c)
			return func(x *Thread) { x.Join(c) }
		}},
		{"Gateway.Admit", nil, func(rt *Runtime, main *Thread, _ *Domain) func(*Thread) {
			gw := rt.NewGateway("gw", main.Domain(), GatewayConfig{})
			return func(x *Thread) { gw.Admit(x, make([]IngressEvent, 1)) }
		}},
		{"XPipe.Send from the receiver domain", nil, func(rt *Runtime, main *Thread, other *Domain) func(*Thread) {
			p := rt.NewXPipe("x", main.Domain(), other, 1)
			return func(x *Thread) { p.Send(x, 1) }
		}},
		{"XPipe.Recv from the sender domain", nil, func(rt *Runtime, main *Thread, other *Domain) func(*Thread) {
			p := rt.NewXPipe("x", other, main.Domain(), 1)
			return func(x *Thread) { p.Recv(x) }
		}},
		{"XPipe.Close from the receiver domain", nil, func(rt *Runtime, main *Thread, other *Domain) func(*Thread) {
			p := rt.NewXPipe("x", main.Domain(), other, 1)
			return func(x *Thread) { p.Close(x) }
		}},
		{"XPipe.SendAll of nothing from the receiver domain", nil, func(rt *Runtime, main *Thread, other *Domain) func(*Thread) {
			p := rt.NewXPipe("x", main.Domain(), other, 1)
			return func(x *Thread) { p.SendAll(x, nil) }
		}},
		{"XPipe.RecvUpTo of nothing from the sender domain", nil, func(rt *Runtime, main *Thread, other *Domain) func(*Thread) {
			p := rt.NewXPipe("x", other, main.Domain(), 1)
			return func(x *Thread) { p.RecvUpTo(x, nil) }
		}},
	}
	// Every exported method that takes a *Thread has a row: a row's name
	// starts with Type.Method.
	covered := map[string]bool{}
	for _, row := range rows {
		name, _, _ := strings.Cut(row.name, " ")
		covered[name] = true
	}
	for _, v := range []any{(*Mutex)(nil), (*RWMutex)(nil), (*Cond)(nil), (*Sem)(nil), (*Barrier)(nil),
		(*SoftBarrier)(nil), (*Once)(nil), (*Pipe)(nil), (*XPipe)(nil), (*Gateway)(nil)} {
		typ := reflect.TypeOf(v)
		for i := 0; i < typ.NumMethod(); i++ {
			m := typ.Method(i)
			name := typ.Elem().Name() + "." + m.Name
			for j := 1; j < m.Type.NumIn(); j++ {
				if m.Type.In(j) == reflect.TypeOf((*Thread)(nil)) && !covered[name] {
					t.Errorf("%s takes a *Thread and has no row", name)
				}
			}
		}
	}
	if !covered["Thread.Join"] {
		t.Error("Thread.Join has no row")
	}
	for _, cfg := range partitionModes() {
		for _, row := range rows {
			cfg := cfg
			if row.tweak != nil {
				row.tweak(&cfg)
			}
			t.Run(cfg.Mode.String()+"/"+row.name, func(t *testing.T) {
				rt := New(cfg)
				other := rt.NewDomain("other")
				var msg string
				rt.Run(func(main *Thread) {
					intrude := row.setup(rt, main, other)
					other.Start("intruder", func(x *Thread) {
						msg = recovered(func() { intrude(x) })
					})
					other.Launch()
				})
				if msg == "" {
					t.Fatal("cross-domain use did not panic")
				}
				for _, want := range []string{"domain 0 (main)", "domain 1 (other)"} {
					if !strings.Contains(msg, want) {
						t.Errorf("panic %q does not name %s", msg, want)
					}
				}
			})
		}
	}
}

// TestPartitionSetupPanics: the misuses of the partition's own API — the
// domain lifecycle and the two constructors that take a domain — are panics
// naming the domains involved, under every mode. A domain of another runtime
// is not a domain of this one.
func TestPartitionSetupPanics(t *testing.T) {
	rows := []struct {
		name string
		do   func(rt, foreign *Runtime, other *Domain)
		want []string
	}{
		{"Start on the default domain", func(rt, _ *Runtime, _ *Domain) {
			rt.Domain(0).Start("r", func(*Thread) {})
		}, []string{"Start on the default domain"}},
		{"Start after Launch", func(_, _ *Runtime, other *Domain) {
			other.Launch()
			other.Start("late", func(*Thread) {})
		}, []string{`Start("late")`, "domain 1 (other)", "after Launch"}},
		{"Launch twice", func(_, _ *Runtime, other *Domain) {
			other.Launch()
			other.Launch()
		}, []string{"domain 1 (other)", "launched twice"}},
		{"NewXPipe with equal endpoints", func(rt, _ *Runtime, other *Domain) {
			rt.NewXPipe("x", other, other, 1)
		}, []string{`"x"`, "both endpoints in domain 1 (other)"}},
		{"NewXPipe with a nil endpoint", func(rt, _ *Runtime, other *Domain) {
			rt.NewXPipe("x", other, nil, 1)
		}, []string{"non-nil"}},
		{"NewXPipe to a domain of another runtime", func(rt, foreign *Runtime, _ *Domain) {
			rt.NewXPipe("x", rt.Domain(0), foreign.NewDomain("theirs"), 1)
		}, []string{`"x"`, "domain 0 (main)", "domain 1 (theirs)", "another runtime"}},
		{"NewXPipe from a domain of another runtime", func(rt, foreign *Runtime, other *Domain) {
			rt.NewXPipe("x", foreign.Domain(0), other, 1)
		}, []string{`"x"`, "domain 0 (main)", "domain 1 (other)", "another runtime"}},
		{"NewGateway on a domain of another runtime", func(rt, foreign *Runtime, _ *Domain) {
			rt.NewGateway("gw", foreign.NewDomain("theirs"), GatewayConfig{})
		}, []string{`"gw"`, "domain 1 (theirs)", "another runtime"}},
		{"a constructor of another runtime", func(rt, foreign *Runtime, _ *Domain) {
			var msg string
			rt.Run(func(main *Thread) { msg = recovered(func() { foreign.NewCond(main, "cv") }) })
			if msg != "" {
				panic(msg)
			}
		}, []string{`cond "cv"`, "T0(main)", "another runtime"}},
		{"Runtime.Domain out of range", func(rt, _ *Runtime, _ *Domain) {
			rt.Domain(99)
		}, []string{"no domain 99 (have 2)"}},
	}
	for _, cfg := range partitionModes() {
		for _, row := range rows {
			t.Run(cfg.Mode.String()+"/"+row.name, func(t *testing.T) {
				rt, foreign := New(cfg), New(cfg)
				other := rt.NewDomain("other")
				msg := recovered(func() { row.do(rt, foreign, other) })
				if msg == "" {
					t.Fatal("did not panic")
				}
				for _, want := range row.want {
					if !strings.Contains(msg, want) {
						t.Errorf("panic %q does not contain %q", msg, want)
					}
				}
				if n := len(rt.gateways) + len(rt.xpipes); n != 0 {
					t.Errorf("the refused constructor registered %d objects with the runtime", n)
				}
			})
		}
	}
}

// TestLaunchRegistersRootsInStartOrder: Launch registers every queued root
// before any of them runs, so the domain's thread ids — and under round robin
// the order of the roots' thread_begin events — are the Start order whatever
// the goroutines' real start order is.
func TestLaunchRegistersRootsInStartOrder(t *testing.T) {
	const roots = 8
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("cpu=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			for round := 0; round < 20; round++ {
				rt := New(Config{Mode: RoundRobin, Record: true})
				d := rt.NewDomain("roots")
				var tids [roots]int
				for i := 0; i < roots; i++ {
					i := i
					d.Start(fmt.Sprintf("r%d", i), func(x *Thread) {
						tids[i] = x.ct().ID()
						x.Yield()
					})
				}
				rt.Run(func(*Thread) { d.Launch() })
				var begins []int
				for _, e := range d.Trace() {
					if e.Op == core.OpThreadBegin {
						begins = append(begins, int(e.TID))
					}
				}
				for i := 0; i < roots; i++ {
					if tids[i] != i {
						t.Fatalf("round %d: root Started %d-th has thread id %d", round, i, tids[i])
					}
					if i >= len(begins) || begins[i] != i {
						t.Fatalf("round %d: thread_begin order %v, want 0..%d", round, begins, roots-1)
					}
				}
			}
		})
	}
}

// kindCounter is a Chooser that keeps every default and counts the
// consultations by kind.
type kindCounter struct{ turn, wake, admit atomic.Int64 }

func (c *kindCounter) Choose(kind ChoiceKind, _ []int, _, def int) int {
	switch kind {
	case ChooseTurn:
		c.turn.Add(1)
	case ChooseWake:
		c.wake.Add(1)
	case ChooseAdmit:
		c.admit.Add(1)
	}
	return def
}

// TestChooserOncePerDomain: Config.Chooser is asked exactly once per domain
// id, when the domain is created, and that one instance is what both the
// domain's scheduler (turn choices) and the domain's gateway (admission
// choices) consult — no other domain's.
func TestChooserOncePerDomain(t *testing.T) {
	var asked []int
	inst := map[int]*kindCounter{}
	rt := New(Config{Mode: RoundRobin, Chooser: func(id int) Chooser {
		asked = append(asked, id)
		inst[id] = new(kindCounter)
		return inst[id]
	}})
	if fmt.Sprint(asked) != "[0]" {
		t.Fatalf("after New the factory was asked for domains %v, want [0]", asked)
	}
	front := rt.NewDomain("front")
	rt.NewDomain("idle")
	if fmt.Sprint(asked) != "[0 1 2]" {
		t.Fatalf("after two NewDomain calls the factory was asked for domains %v, want [0 1 2]", asked)
	}

	// Three events are staged before the gateway thread exists, so its first
	// admission slot has a multi-event batch to offer the chooser.
	gw := front.NewGateway("gw", GatewayConfig{})
	staged := make(chan struct{})
	gw.AddSource(ingress.FuncSource("three", func(p *ingress.Port) {
		for i := 0; i < 3; i++ {
			p.Push([]byte{byte(i)})
		}
		close(staged)
	}))
	<-staged
	admitted := 0
	front.Start("admitter", func(x *Thread) {
		buf := make([]IngressEvent, 4)
		for {
			n, ok := gw.Admit(x, buf)
			admitted += n
			if !ok {
				return
			}
		}
	})
	rt.Run(func(main *Thread) {
		front.Launch()
		// Two yielding children: every free turn has more than one candidate.
		var kids [2]*Thread
		for i := range kids {
			kids[i] = main.Create("w", func(w *Thread) {
				for j := 0; j < 4; j++ {
					w.Yield()
				}
			})
		}
		for _, k := range kids {
			main.Join(k)
		}
	})

	if fmt.Sprint(asked) != "[0 1 2]" {
		t.Fatalf("the run asked the factory again: %v", asked)
	}
	if admitted != 3 {
		t.Fatalf("admitted %d events, want 3", admitted)
	}
	if n := inst[0].turn.Load(); n == 0 {
		t.Error("domain 0's scheduler never consulted domain 0's chooser")
	}
	if n := inst[1].admit.Load(); n == 0 {
		t.Error("domain 1's gateway never consulted domain 1's chooser")
	}
	if n := inst[0].admit.Load() + inst[2].turn.Load() + inst[2].wake.Load() + inst[2].admit.Load(); n != 0 {
		t.Errorf("%d consultations reached a chooser of the wrong domain", n)
	}
}

// TestCheckpointCarriesBoundaryState: the only boundary state a legal
// checkpoint can carry — every other domain idle, every channel drained — is
// a domain's boundary-operation counter and a channel's closed flag. Both
// round-trip: the resumed run sees the pipe closed, continues the counter, and
// ends on the fingerprint of the run that was never interrupted.
func TestCheckpointCarriesBoundaryState(t *testing.T) {
	cfg := Config{Mode: RoundRobin, Policies: AllPolicies, Record: true}
	run := func(cfg Config) (rt *Runtime, cp *Checkpoint) {
		rt = New(cfg)
		idle := rt.NewDomain("idle") // never launched
		p := rt.NewXPipe("x", rt.Domain(0), idle, 2)
		rt.Run(func(main *Thread) {
			m := rt.NewMutex(main, "m")
			if cfg.Resume != nil {
				if err := rt.Resume(main); err != nil {
					t.Fatal(err)
				}
				if got := main.dom.xseq; got != 1 {
					t.Fatalf("boundary counter after Resume = %d, want 1", got)
				}
			} else {
				m.Lock(main)
				p.Close(main)
				m.Unlock(main)
				var err error
				if cp, err = rt.Checkpoint(main, nil); err != nil {
					t.Fatal(err)
				}
			}
			if p.Send(main, "late") {
				t.Error("Send on the closed pipe succeeded")
			}
			p.Close(main)
			m.Lock(main)
			m.Unlock(main)
		})
		if got := rt.Domain(0).xseq; got != 2 {
			t.Fatalf("final boundary counter = %d, want 2 (two closes)", got)
		}
		return rt, cp
	}

	full, cp := run(cfg)
	if got := cp.rec.Xseqs; len(got) != 1 || got[0] != 1 {
		t.Fatalf("checkpoint boundary counters = %v, want [1]", got)
	}
	if got := cp.rec.Channels; len(got) != 1 || got[0].ID != 1 || !got[0].Closed || got[0].SendSeq != 0 {
		t.Fatalf("checkpoint channel states = %+v, want one closed, unused channel with id 1", got)
	}
	var buf bytes.Buffer
	if err := SaveCheckpoint(&buf, cp); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Resume = loaded
	resumed, _ := run(cfg)
	if got, want := resumed.Fingerprint(), full.Fingerprint(); !got.Equal(want) {
		t.Fatalf("resumed run's fingerprint %v, uninterrupted run's %v", got, want)
	}
}
