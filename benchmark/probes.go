package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"qithread"
	"qithread/internal/core"
	"qithread/internal/explore"
	"qithread/internal/harness"
	"qithread/internal/ingress"
	"qithread/internal/trace"
	"qithread/internal/workload/controlplane"
)

// Probes: unit costs of single layers, measured from outside by timing calls
// into each layer's exported functions. Every probe times at least
// probeSize.calls calls or probeSize.dur of them, whichever comes first, and
// returns the mean. The smoke test shrinks probeSize; nothing else writes it.
var probeSize = struct {
	calls int
	dur   time.Duration
}{100_000, 200 * time.Millisecond}

const probeBatch = 1000 // calls between looks at the clock

// enough reports whether a probe loop may stop.
func enough(calls int, start time.Time) bool {
	return calls >= probeSize.calls || time.Since(start) >= probeSize.dur
}

// perCall is elapsed over calls, in the given unit.
func perCall(elapsed time.Duration, calls int, unit time.Duration) float64 {
	return float64(elapsed) / float64(unit) / float64(calls)
}

// inRuntime runs body as the main thread of a fresh runtime.
func inRuntime(cfg qithread.Config, body func(rt *qithread.Runtime, main *qithread.Thread)) *qithread.Runtime {
	rt := qithread.New(cfg)
	rt.Run(func(main *qithread.Thread) { body(rt, main) })
	return rt
}

var (
	cfgNondet = qithread.Config{Mode: qithread.Nondet}
	cfgRR     = qithread.Config{Mode: qithread.RoundRobin}
	cfgAll    = qithread.Config{Mode: qithread.RoundRobin, Policies: qithread.AllPolicies}
)

// probeLockUnlock times one uncontended Mutex.Lock/Unlock pair (ns).
func probeLockUnlock(cfg qithread.Config) float64 {
	var ns float64
	inRuntime(cfg, func(rt *qithread.Runtime, main *qithread.Thread) {
		m := rt.NewMutex(main, "m")
		calls, start := 0, time.Now()
		for !enough(calls, start) {
			for i := 0; i < probeBatch; i++ {
				m.Lock(main)
				m.Unlock(main)
			}
			calls += probeBatch
		}
		ns = perCall(time.Since(start), calls, time.Nanosecond)
	})
	return ns
}

// probeCondPingPong times one condition-variable round trip between two
// threads: broadcast, wait, and the peer's mirror image (ns).
func probeCondPingPong() float64 {
	var ns float64
	inRuntime(cfgRR, func(rt *qithread.Runtime, main *qithread.Thread) {
		m := rt.NewMutex(main, "m")
		cv := rt.NewCond(main, "cv")
		stop := false
		ball := 0
		ponger := main.Create("ponger", func(w *qithread.Thread) {
			m.Lock(w)
			for {
				for ball != 1 && !stop {
					cv.Wait(w, m)
				}
				if stop {
					m.Unlock(w)
					return
				}
				ball = 0
				cv.Broadcast(w)
			}
		})
		m.Lock(main)
		calls, start := 0, time.Now()
		for !enough(calls, start) {
			for i := 0; i < probeBatch; i++ {
				ball = 1
				cv.Broadcast(main)
				for ball != 0 {
					cv.Wait(main, m)
				}
			}
			calls += probeBatch
		}
		ns = perCall(time.Since(start), calls, time.Nanosecond)
		stop = true
		cv.Broadcast(main)
		m.Unlock(main)
		main.Join(ponger)
	})
	return ns
}

// probePipeMsg times one message through an in-domain Pipe of capacity 16,
// producer and consumer being two threads of one domain (ns).
func probePipeMsg() float64 {
	n := probeSize.calls
	var ns float64
	inRuntime(cfgRR, func(rt *qithread.Runtime, main *qithread.Thread) {
		p := rt.NewPipe(main, "p", 16)
		consumer := main.Create("consumer", func(w *qithread.Thread) {
			for {
				if _, ok := p.Recv(w); !ok {
					return
				}
			}
		})
		start := time.Now()
		for i := 0; i < n; i++ {
			p.Send(main, nil)
		}
		p.Close(main)
		main.Join(consumer)
		ns = perCall(time.Since(start), n, time.Nanosecond)
	})
	return ns
}

// probeCreateJoin times one Thread.Create + Join of an empty thread (µs).
func probeCreateJoin() float64 {
	var us float64
	inRuntime(cfgRR, func(rt *qithread.Runtime, main *qithread.Thread) {
		calls, start := 0, time.Now()
		for !enough(calls, start) {
			for i := 0; i < probeBatch; i++ {
				main.Join(main.Create("t", func(*qithread.Thread) {}))
			}
			calls += probeBatch
		}
		us = perCall(time.Since(start), calls, time.Microsecond)
	})
	return us
}

type discardSink struct{}

func (discardSink) Append(core.Event) error { return nil }

// probeTurn times one GetTurn/PutTurn on a solo thread, directly on the core
// scheduler, with a TraceOp in between when traceOp is set (ns).
func probeTurn(cfg core.Config, traceOp bool) float64 {
	s := core.New(cfg)
	t := s.Register("solo")
	calls, start := 0, time.Now()
	for !enough(calls, start) {
		for i := 0; i < probeBatch; i++ {
			s.GetTurn(t)
			if traceOp {
				s.TraceOp(t, core.OpYield, 0, core.StatusOK)
			}
			s.PutTurn(t)
		}
		calls += probeBatch
	}
	ns := perCall(time.Since(start), calls, time.Nanosecond)
	s.GetTurn(t)
	s.Exit(t)
	return ns
}

// probeHandoff times one turn handoff among n threads yielding round-robin,
// optionally with a trivial Chooser installed (ns).
func probeHandoff(n int, chooser bool) float64 {
	cfg := cfgRR
	if chooser {
		cfg.Chooser = func(int) qithread.Chooser { return defaultChooser{} }
	}
	perThread := probeSize.calls/n + 1
	var ns float64
	inRuntime(cfg, func(rt *qithread.Runtime, main *qithread.Thread) {
		ths := make([]*qithread.Thread, n)
		start := time.Now()
		for i := range ths {
			ths[i] = main.Create("y"+strconv.Itoa(i), func(w *qithread.Thread) {
				for r := 0; r < perThread; r++ {
					w.Yield()
				}
			})
		}
		for _, th := range ths {
			main.Join(th)
		}
		ns = perCall(time.Since(start), n*perThread, time.Nanosecond)
	})
	return ns
}

// defaultChooser always takes the configured policy's pick.
type defaultChooser struct{}

func (defaultChooser) Choose(_ qithread.ChoiceKind, _ []int, _, def int) int { return def }

// probeWaitSignal times one Wait/Signal pair on the core scheduler: two
// threads pass a ball, each iteration signalling the peer and waiting (ns).
func probeWaitSignal() float64 {
	rounds := probeSize.calls / 2
	s := core.New(core.Config{})
	ths := [2]*core.Thread{s.Register("a"), s.Register("b")}
	objs := [2]uint64{s.NewObject("a"), s.NewObject("b")}
	ball := 0 // guarded by the turn
	var wg sync.WaitGroup
	start := time.Now()
	for i := range ths {
		wg.Add(1)
		go func(me int) {
			defer wg.Done()
			t, peer := ths[me], 1-me
			s.GetTurn(t)
			for r := 0; r < rounds; r++ {
				for ball != me {
					s.Wait(t, objs[me], core.NoTimeout)
				}
				ball = peer
				s.Signal(t, objs[peer])
			}
			s.Exit(t)
		}(i)
	}
	wg.Wait()
	return perCall(time.Since(start), 2*rounds, time.Nanosecond)
}

// probeReplayEvent records a solo lock/unlock trace and times its replay,
// per recorded event (ns).
func probeReplayEvent() (float64, error) {
	pairs := probeSize.calls / 2
	body := func(rt *qithread.Runtime, main *qithread.Thread) {
		m := rt.NewMutex(main, "m")
		for i := 0; i < pairs; i++ {
			m.Lock(main)
			m.Unlock(main)
		}
	}
	cfg := cfgAll
	cfg.Record = true
	sched := inRuntime(cfg, body).Trace()
	cfg.Replay = sched
	start := time.Now()
	rt := inRuntime(cfg, body)
	elapsed := time.Since(start)
	if got := rt.Scheduler().ReplayPos(); got != len(sched) {
		return 0, fmt.Errorf("replay consumed %d of %d recorded events", got, len(sched))
	}
	return perCall(elapsed, len(sched), time.Nanosecond), nil
}

// probeXPipeMsg times one message through XPipe.SendAll/RecvUpTo at the
// given capacity, sender and receiver in different domains (ns).
func probeXPipeMsg(capacity int) float64 {
	n := probeSize.calls
	rt := qithread.New(cfgAll)
	src := rt.NewDomain("src")
	pipe := rt.NewXPipe("p", src, rt.Domain(0), capacity)
	vs := make([]any, capacity)
	var ns float64
	rt.Run(func(main *qithread.Thread) {
		src.Start("sender", func(t *qithread.Thread) {
			for sent := 0; sent < n; sent += capacity {
				pipe.SendAll(t, vs)
			}
			pipe.Close(t)
		})
		start := time.Now()
		src.Launch()
		dst := make([]any, capacity)
		got := 0
		for {
			k, ok := pipe.RecvUpTo(main, dst)
			got += k
			if !ok {
				break
			}
		}
		ns = perCall(time.Since(start), got, time.Nanosecond)
	})
	return ns
}

// batchLog builds an ingress log of n events in batches of b.
func batchLog(n, b int) *ingress.Log {
	payloads, _ := genEvents(rand.New(rand.NewSource(1)), n)
	return cutLog(payloads, func() int { return b })
}

// probeAdmit times Gateway.Admit per event over a prebuilt replay log whose
// batches hold b events (ns).
func probeAdmit(b int) (float64, error) {
	n := probeSize.calls
	g := ingress.NewGateway(ingress.Config{MaxBatch: b, Replay: ingress.NewReplayer(batchLog(n, b))})
	dst := make([]ingress.Event, b)
	got := 0
	start := time.Now()
	for {
		k, ok := g.Admit(dst)
		got += k
		if !ok {
			break
		}
	}
	elapsed := time.Since(start)
	if got != n {
		return 0, fmt.Errorf("admitted %d of %d events", got, n)
	}
	return perCall(elapsed, n, time.Nanosecond), nil
}

// probePush times Port.Push into a stage that never fills (ns).
func probePush() float64 {
	n := probeSize.calls
	payload := encodePayload(0, 0)
	g := ingress.NewGateway(ingress.Config{StageCap: n + 1, QueueCap: n + 1})
	done := make(chan float64, 1)
	g.AddSource(ingress.FuncSource("probe", func(p *ingress.Port) {
		start := time.Now()
		for i := 0; i < n; i++ {
			p.Push(payload)
		}
		done <- perCall(time.Since(start), n, time.Nanosecond)
	}))
	ns := <-done
	dst := make([]ingress.Event, 64)
	for {
		if _, ok := g.Admit(dst); !ok {
			break
		}
	}
	return ns
}

// probeIngressLog times the ingress log writer per event (ns) and the log
// loader (million events per second) on batches of serverBatch events.
func probeIngressLog() (appendNS, loadMevS float64, err error) {
	n := probeSize.calls
	log := batchLog(n, serverBatch)
	var buf bytes.Buffer
	bw, err := ingress.NewBinaryLogWriter(&buf)
	if err != nil {
		return 0, 0, err
	}
	start := time.Now()
	for _, b := range log.Batches {
		if err := bw.AppendBatch(b.Epoch, b.Events); err != nil {
			return 0, 0, err
		}
	}
	if err := bw.Close(); err != nil {
		return 0, 0, err
	}
	appendNS = perCall(time.Since(start), n, time.Nanosecond)
	start = time.Now()
	got, err := ingress.LoadLog(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return 0, 0, err
	}
	elapsed := time.Since(start)
	if got.Events() != n {
		return 0, 0, fmt.Errorf("loaded %d of %d events", got.Events(), n)
	}
	return appendNS, float64(n) / elapsed.Seconds() / 1e6, nil
}

// codecCosts are the schedule codec probes, all on one realistic schedule:
// a shard domain's trace from a run of the server driver.
type codecCosts struct {
	sinkAppendNS  float64
	saveBinaryMev float64
	loadBinaryMev float64
	loadTextMev   float64
	bytesPerEvent float64
}

func probeCodec() (codecCosts, error) {
	var c codecCosts
	// About one schedule event per ingress event lands on each shard.
	payloads, _ := genEvents(rand.New(rand.NewSource(1)), 2*probeSize.calls)
	res := runServer(serverInput{events: len(payloads), ingress: syntheticLog(rand.New(rand.NewSource(2)), payloads)})
	events := res.traces[1]
	if len(events) < probeSize.calls {
		return c, fmt.Errorf("codec probe schedule has only %d events, want %d", len(events), probeSize.calls)
	}
	n := float64(len(events))

	bw, err := trace.NewBinaryWriter(io.Discard)
	if err != nil {
		return c, err
	}
	start := time.Now()
	for _, e := range events {
		if err := bw.Append(e); err != nil {
			return c, err
		}
	}
	if err := bw.Close(); err != nil {
		return c, err
	}
	c.sinkAppendNS = perCall(time.Since(start), len(events), time.Nanosecond)

	var bin, text bytes.Buffer
	start = time.Now()
	if err := trace.SaveBinary(&bin, events); err != nil {
		return c, err
	}
	c.saveBinaryMev = n / time.Since(start).Seconds() / 1e6
	c.bytesPerEvent = float64(bin.Len()) / n
	if err := trace.Save(&text, events); err != nil {
		return c, err
	}
	load := func(encoded []byte) (float64, error) {
		start := time.Now()
		got, err := trace.Load(bytes.NewReader(encoded))
		if err != nil {
			return 0, err
		}
		if len(got) != len(events) {
			return 0, fmt.Errorf("loaded %d of %d events", len(got), len(events))
		}
		return n / time.Since(start).Seconds() / 1e6, nil
	}
	if c.loadBinaryMev, err = load(bin.Bytes()); err != nil {
		return c, err
	}
	c.loadTextMev, err = load(text.Bytes())
	return c, err
}

// ckptCosts are the checkpoint probes.
type ckptCosts struct {
	checkpointUS, resumeUS, bytes float64
}

// ckptProgram is the single-domain program the checkpoint probes snapshot: a
// main thread and four workers parked on a condition variable. Checkpoints
// need every other domain idle, which the multi-domain server driver never
// is, so the probe has its own quiescent program. With resume nil it takes
// checkpoints in a loop and returns the last one with the mean cost of
// Checkpoint + SaveCheckpoint; otherwise it resumes once and returns the cost
// of Runtime.Resume.
func ckptProgram(resume *qithread.Checkpoint) (cp *qithread.Checkpoint, size int, cost time.Duration, err error) {
	cfg := cfgAll
	cfg.Record = true
	cfg.Resume = resume
	inRuntime(cfg, func(rt *qithread.Runtime, main *qithread.Thread) {
		m := rt.NewMutex(main, "m")
		cv := rt.NewCond(main, "cv")
		done := false
		kids := make([]*qithread.Thread, 4)
		for i := range kids {
			kids[i] = main.Create("w"+strconv.Itoa(i), func(w *qithread.Thread) {
				m.Lock(w)
				for !done {
					cv.Wait(w, m)
				}
				m.Unlock(w)
			})
		}
		if resume != nil {
			start := time.Now()
			err = rt.Resume(main)
			cost = time.Since(start)
		} else {
			n := probeSize.calls / 50
			var buf bytes.Buffer
			start := time.Now()
			for i := 0; i < n && err == nil; i++ {
				buf.Reset()
				if cp, err = rt.Checkpoint(main, nil); err == nil {
					err = qithread.SaveCheckpoint(&buf, cp)
				}
			}
			cost = time.Since(start) / time.Duration(n)
			size = buf.Len()
		}
		m.Lock(main)
		done = true
		cv.Broadcast(main)
		m.Unlock(main)
		for _, k := range kids {
			main.Join(k)
		}
	})
	return cp, size, cost, err
}

func probeCkpt() (ckptCosts, error) {
	cp, size, cost, err := ckptProgram(nil)
	if err != nil {
		return ckptCosts{}, fmt.Errorf("checkpoint: %w", err)
	}
	c := ckptCosts{checkpointUS: float64(cost) / 1e3, bytes: float64(size)}
	n := probeSize.calls / 500
	var total time.Duration
	for i := 0; i < n; i++ {
		_, _, d, err := ckptProgram(cp)
		if err != nil {
			return c, fmt.Errorf("resume: %w", err)
		}
		total += d
	}
	c.resumeUS = float64(total) / float64(n) / 1e3
	return c, nil
}

// probeNewRun times qithread.New + Run of an empty main (µs) and counts its
// allocations.
func probeNewRun() (us, allocs float64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	calls, start := 0, time.Now()
	for !enough(calls, start) {
		for i := 0; i < probeBatch; i++ {
			qithread.New(cfgAll).Run(func(*qithread.Thread) {})
		}
		calls += probeBatch
	}
	us = perCall(time.Since(start), calls, time.Microsecond)
	runtime.ReadMemStats(&m1)
	return us, float64(m1.Mallocs-m0.Mallocs) / float64(calls)
}

// probeCell times full executions of app on fresh runtimes (µs per
// execution) and counts allocations per execution.
func probeCell(cfg qithread.Config, app func(*qithread.Runtime) uint64) (us, allocs float64) {
	app(qithread.New(cfg)) // warm-up
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	calls, start := 0, time.Now()
	for time.Since(start) < probeSize.dur {
		app(qithread.New(cfg))
		calls++
	}
	us = perCall(time.Since(start), calls, time.Microsecond)
	runtime.ReadMemStats(&m1)
	return us, float64(m1.Mallocs-m0.Mallocs) / float64(calls)
}

// probeControlPlane returns the 64 × 4 × 2 cell (the BenchmarkControlPlane
// shape) and the explore scenario run plain.
func probeControlPlane() (cellE64US, allocsPerEntity, cellRaceUS float64, err error) {
	const entities = 64
	cellE64US, allocs := probeCell(harness.QiThread().Cfg, controlplane.App(controlplane.Config{
		Entities: entities, Controllers: 4, Shards: 2,
		ValidateWork: 32, EventWork: 8, MaxBatch: 8,
		Log: controlplane.DemoLog(entities, controlplane.Transitions),
	}))
	p, err := lookupExploreProgram()
	if err != nil {
		return 0, 0, 0, err
	}
	cellRaceUS, _ = probeCell(p.Base(), p.Run)
	return cellE64US, allocs / entities, cellRaceUS, nil
}

// exploreCosts are the explorer probes that need their own sessions.
type exploreCosts struct {
	persistOverheadX float64
	firstBugRun      float64
	hbPrunedShare    float64
}

func probeExplore() (exploreCosts, error) {
	var c exploreCosts
	p, err := lookupExploreProgram()
	if err != nil {
		return c, err
	}
	session := func(dir string, workers, budget int, hb bool) (*explore.Session, time.Duration, error) {
		s, err := explore.NewSession(p, dir, explore.DefaultWatchdog)
		if err != nil {
			return nil, 0, err
		}
		s.Workers, s.HB = workers, hb
		start := time.Now()
		err = s.ExploreDPOR(budget, 0)
		return s, time.Since(start), err
	}
	dir, err := os.MkdirTemp(tmpRoot, "explore-")
	if err != nil {
		return c, err
	}
	defer os.RemoveAll(dir)

	// Persistence: the same search with a results directory and in memory.
	budget := probeSize.calls / 100
	_, mem, err := session("", loadGoroutines(), budget, false)
	if err != nil {
		return c, err
	}
	_, disk, err := session(filepath.Join(dir, "persist"), loadGoroutines(), budget, false)
	if err != nil {
		return c, err
	}
	c.persistOverheadX = disk.Seconds() / mem.Seconds()

	// First bug: one worker makes run ids exact; runs.csv is the documented
	// record of each run's outcome (run,strategy,depth,decisions,outcome,...).
	first := filepath.Join(dir, "first")
	if _, _, err := session(first, 1, 64, false); err != nil {
		return c, err
	}
	if c.firstBugRun, err = firstFailure(filepath.Join(first, "runs.csv")); err != nil {
		return c, err
	}

	s, _, err := session("", 1, budget/2, true)
	if err != nil {
		return c, err
	}
	var branched, pruned int
	for _, ws := range s.WorkerStats() {
		branched += ws.Branched
		pruned += ws.Pruned
	}
	if branched+pruned > 0 {
		c.hbPrunedShare = float64(pruned) / float64(branched+pruned)
	}
	return c, nil
}

// firstFailure returns the id of the first failing run listed in runs.csv.
func firstFailure(path string) (float64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Split(line, ",")
		if len(f) < 5 {
			continue
		}
		switch f[4] {
		case explore.OutcomeAssertFail.String(), explore.OutcomeDeadlock.String(), explore.OutcomePanic.String():
			id, err := strconv.Atoi(f[0])
			return float64(id), err
		}
	}
	return 0, fmt.Errorf("%s lists no failing run", path)
}
