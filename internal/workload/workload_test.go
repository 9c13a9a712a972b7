package workload

import (
	"slices"
	"testing"
	"testing/quick"

	"qithread"
	"qithread/internal/trace"
)

// modesUnderTest covers every scheduling configuration an engine must behave
// identically under (in output) or deterministically under (in schedule).
func modesUnderTest() []qithread.Config {
	return []qithread.Config{
		{Mode: qithread.Nondet},
		{Mode: qithread.VirtualParallel},
		{Mode: qithread.RoundRobin},
		{Mode: qithread.RoundRobin, Policies: qithread.AllPolicies},
		{Mode: qithread.RoundRobin, SoftBarriers: true, PCS: true},
		{Mode: qithread.LogicalClock},
	}
}

// checkApp runs the app under every mode and asserts output equality.
func checkApp(t *testing.T, name string, app App) {
	t.Helper()
	var ref uint64
	for i, cfg := range modesUnderTest() {
		rt := qithread.New(cfg)
		out := app(rt)
		if i == 0 {
			ref = out
		} else if out != ref {
			t.Fatalf("%s: output %#x under %v/%v, want %#x", name, out, cfg.Mode, cfg.Policies, ref)
		}
	}
}

func TestForkJoinOutputs(t *testing.T) {
	p := Params{Threads: 4, Scale: 0.05, InputSeed: 9}
	checkApp(t, "forkjoin", ForkJoin(ForkJoinConfig{
		Threads: 4, Rounds: 6, Work: 300, Imbalance: []int{100, 140, 60},
		LockEvery: 2, CSWork: 30,
	}, p))
	checkApp(t, "forkjoin-adhoc", ForkJoin(ForkJoinConfig{
		Threads: 4, Rounds: 4, Work: 200, AdHoc: true,
	}, p))
}

func TestOpenMPForOutputs(t *testing.T) {
	p := Params{Threads: 4, Scale: 0.1, InputSeed: 9}
	checkApp(t, "openmp", OpenMPFor(OpenMPForConfig{
		Threads: 4, Regions: 3, Iters: 32, WorkPerIter: 40, MasterWork: 60,
		ReduceLock: true, SoftBarrier: true,
	}, p))
}

func TestProdConsOutputs(t *testing.T) {
	p := Params{Threads: 3, Scale: 0.2, InputSeed: 9}
	checkApp(t, "prodcons", ProdCons(ProdConsConfig{
		Producers: 1, Consumers: 3, Blocks: 24, ProduceWork: 20, ConsumeWork: 200,
		QueueCap: 4, SoftBarrier: true,
	}, p))
	checkApp(t, "prodcons-multi", ProdCons(ProdConsConfig{
		Producers: 2, Consumers: 3, Blocks: 24, ProduceWork: 30, ConsumeWork: 150,
	}, p))
}

func TestVipsOutputs(t *testing.T) {
	p := Params{Threads: 3, Scale: 0.2, InputSeed: 9}
	checkApp(t, "vips", Vips(VipsConfig{
		Consumers: 3, Items: 18, DispatchWork: 15, ItemWork: 120, SoftBarrier: true,
	}, p))
}

func TestPipelineOutputs(t *testing.T) {
	p := Params{Scale: 0.2, InputSeed: 9}
	checkApp(t, "pipeline", Pipeline(PipelineConfig{
		Stages: []StageConfig{{Workers: 2, Work: 50}, {Workers: 3, Work: 200}, {Workers: 2, Work: 40}},
		Items:  30, QueueCap: 4, SourceWork: 10, SoftBarrier: true,
	}, p))
}

func TestX264Outputs(t *testing.T) {
	p := Params{Threads: 3, Scale: 0.3, InputSeed: 9}
	checkApp(t, "x264", X264(X264Config{
		Workers: 3, Frames: 9, RowsPerFrame: 4, RowWork: 60, Lag: 2,
	}, p))
}

func TestMapReduceOutputs(t *testing.T) {
	p := Params{Threads: 4, Scale: 0.1, InputSeed: 9}
	checkApp(t, "mapreduce-dynamic", MapReduce(MapReduceConfig{
		Workers: 4, MapTasks: 40, ReduceTasks: 12, MapWork: 60, ReduceWork: 30,
		Dynamic: true, SoftBarrier: true,
	}, p))
	checkApp(t, "mapreduce-static", MapReduce(MapReduceConfig{
		Workers: 4, MapTasks: 40, ReduceTasks: 12, MapWork: 60, ReduceWork: 30,
	}, p))
}

func TestCreateJoinOutputs(t *testing.T) {
	p := Params{Threads: 4, Scale: 0.2, InputSeed: 9}
	checkApp(t, "createjoin", CreateJoin(CreateJoinConfig{
		Threads: 4, Work: 500, Rounds: 2, ParentWorks: true,
	}, p))
	checkApp(t, "createjoin-progress", CreateJoin(CreateJoinConfig{
		Threads: 4, Work: 600, ProgressLock: true, ProgressEach: 100,
	}, p))
}

func TestServerEnginesOutputs(t *testing.T) {
	p := Params{Threads: 4, Scale: 0.2, InputSeed: 9}
	checkApp(t, "rwmix", RWMix(RWMixConfig{
		Workers: 4, Ops: 20, ReadPct: 80, ReadWork: 40, WriteWork: 90,
		LogEvery: 4, LogWork: 10,
	}, p))
	checkApp(t, "server", Server(ServerConfig{
		Workers: 4, Requests: 30, AcceptWork: 10, ParseWork: 40, StateWork: 15,
	}, p))
	checkApp(t, "taskqueue", TaskQueue(TaskQueueConfig{
		Workers: 4, Tasks: 30, TaskWorkMin: 20, TaskWorkMax: 200, ResultWork: 10,
		PCSResult: true,
	}, p))
}

// TestEngineOutputsQuick is the property-based sweep: random small
// configurations of the two most intricate engines must produce
// mode-independent output and mode-deterministic schedules.
func TestEngineOutputsQuick(t *testing.T) {
	type cfg struct {
		Consumers, Blocks uint8
		Produce, Consume  uint8
		Cap               uint8
	}
	f := func(c cfg, seed uint64) bool {
		consumers := int(c.Consumers)%4 + 1
		blocks := int(c.Blocks)%12 + 1
		app := ProdCons(ProdConsConfig{
			Producers:   1,
			Consumers:   consumers,
			Blocks:      blocks,
			ProduceWork: int64(c.Produce)%50 + 1,
			ConsumeWork: int64(c.Consume)%200 + 1,
			QueueCap:    int(c.Cap) % 5, // 0 = unbounded
		}, Params{InputSeed: seed, Scale: 1})
		var ref uint64
		for i, mc := range modesUnderTest() {
			rt := qithread.New(mc)
			out := app(rt)
			if i == 0 {
				ref = out
			} else if out != ref {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestEngineScheduleDeterminismQuick: for random fork-join shapes, the
// QiThread all-policies schedule hash is identical across runs.
func TestEngineScheduleDeterminismQuick(t *testing.T) {
	type cfg struct {
		Threads, Rounds, Work uint8
		LockEvery             uint8
	}
	f := func(c cfg, seed uint64) bool {
		app := ForkJoin(ForkJoinConfig{
			Threads:   int(c.Threads)%5 + 2,
			Rounds:    int(c.Rounds)%6 + 1,
			Work:      int64(c.Work)%100 + 1,
			LockEvery: int(c.LockEvery) % 3,
			CSWork:    5,
		}, Params{InputSeed: seed, Scale: 1})
		rc := qithread.Config{Mode: qithread.RoundRobin, Policies: qithread.AllPolicies, Record: true}
		var ref uint64
		for run := 0; run < 2; run++ {
			rt := qithread.New(rc)
			app(rt)
			h := trace.Hash(rt.Trace())
			if run == 0 {
				ref = h
			} else if h != ref {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestResumedReplayTraceIsTheTail: a run resumed from an epoch checkpoint
// against the recorded ingress log retains only what it executes after the
// checkpoint. Its Trace() must be exactly the tail of the uninterrupted
// replay's.
func TestResumedReplayTraceIsTheTail(t *testing.T) {
	cfg := IngressServerConfig{Sources: 2, Events: 48, Workers: 2, ParseWork: 20, StateWork: 5, MaxBatch: 4, CheckpointEvery: 3}
	p := Params{Scale: 1, InputSeed: 42}
	rtcfg := qithread.Config{Mode: qithread.RoundRobin, Policies: qithread.AllPolicies, Record: true}
	live := RunIngressServer(cfg, p, rtcfg, nil)
	if len(live.Checkpoints) == 0 {
		t.Fatalf("run over %d epochs took no checkpoints", live.Stats.Epochs)
	}
	full := qithread.New(rtcfg)
	runIngressServer(full, cfg, p, live.Log)
	want := full.Trace()
	for _, cp := range live.Checkpoints {
		rtcfg.Resume = cp
		rt := qithread.New(rtcfg)
		res := runIngressServer(rt, cfg, p, live.Log)
		got := rt.Trace()
		if len(got) == 0 || len(got) >= len(want) || !slices.Equal(got, want[len(want)-len(got):]) {
			t.Fatalf("resumed at epoch %d: traced %d events, not the tail of the full replay's %d", cp.Epoch(), len(got), len(want))
		}
		if !res.Fingerprint.Equal(live.Fingerprint) {
			t.Fatalf("resumed at epoch %d: fingerprint %v, recording %v", cp.Epoch(), res.Fingerprint, live.Fingerprint)
		}
	}
}
