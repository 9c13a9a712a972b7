package workload

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"qithread"
	"qithread/internal/ingress"
)

// This file holds the ingress-driven server workload: the first engine whose
// input arrives from OUTSIDE the deterministic execution. Free-running
// sources (one goroutine per source, optionally pacing themselves with
// random jitter to model real arrival nondeterminism) push request events
// into a Gateway; the main thread is the gateway thread, admitting
// epoch-stamped batches inside the turn and dispatching them to an in-domain
// worker pool over a Pipe. Each request's payload encodes its global index,
// and per-request seeds are derived from the index alone, so the output
// checksum is a pure function of the ADMITTED request set: runs without
// shedding produce the same checksum no matter how arrival timing batched
// the events, and a recorded run replays to an identical checksum,
// fingerprint, and shed set.

// IngressServerConfig describes the ingress-driven request server.
type IngressServerConfig struct {
	Sources int // free-running event producers
	Events  int // total requests across all sources
	Workers int // in-domain worker pool size
	// Gateway shape (zero values take the gateway defaults).
	StageCap int
	MaxBatch int
	QueueCap int
	// Per-request compute.
	ParseWork int64
	StateWork int64
	// Jitter, when positive, paces each source with a random sleep of up to
	// Jitter between pushes — deliberate real-time nondeterminism, so tests
	// can show that recorded runs replay identically anyway. Benchmarks
	// leave it zero (sources push at full speed).
	Jitter time.Duration
	// CheckpointEvery, when positive, takes an epoch checkpoint after every
	// CheckpointEvery-th admission slot: the gateway thread drains the worker
	// pool to a quiescent boundary and snapshots the execution plus the
	// workload's own progress (state checksum and per-worker partials).
	// Record and replay runs must use the same value — the quiescence drive
	// is part of the schedule — and a resumed run keeps checkpointing on the
	// same grid.
	CheckpointEvery int64
	// Sink, when non-nil, streams recorded ingress batches out instead of
	// retaining them in memory; the run's Log is then nil. A replay records
	// nothing, so a replayed run must leave it nil (NewGateway panics).
	// Pairs with qithread.Config.StreamTrace for bounded-memory recording of
	// arbitrarily long runs (qibench -experiment soak).
	Sink qithread.IngressBatchSink
}

// IngressRun is one execution's observable result: the output checksum, the
// recorded (or replayed) ingress log, the determinism fingerprint and the
// admission bookkeeping, everything the record/replay round-trip compares.
type IngressRun struct {
	Output      uint64
	Fingerprint qithread.Fingerprint
	Log         *qithread.IngressLog
	AdmitHash   uint64
	ShedHash    uint64
	Stats       qithread.IngressStats
	Wall        time.Duration
	// Checkpoints holds the epoch checkpoints taken during the run (empty
	// unless IngressServerConfig.CheckpointEvery is set), in epoch order.
	Checkpoints []*qithread.Checkpoint
}

// RunIngressServer runs the ingress server once on a fresh runtime. With
// replay nil the sources run live and the returned Log is the recording;
// with a replay log the sources are ignored and the run reproduces the
// recorded execution. Record is forced on so the fingerprint is meaningful.
func RunIngressServer(cfg IngressServerConfig, p Params, rtcfg qithread.Config, replay *qithread.IngressLog) IngressRun {
	rtcfg.Record = true
	rt := qithread.New(rtcfg)
	return runIngressServer(rt, cfg, p, replay)
}

// ResumeIngressServer continues a checkpointed ingress-server run: the setup
// phase (gateway, pipe, mutex, workers) re-executes with recording muted,
// qithread.Runtime.Resume reinstates the checkpoint, the workload decodes
// its progress payload, and the admission loop continues from the
// checkpoint's epoch against the recorded log. The returned run's
// fingerprint, output and hashes must equal the full run's.
func ResumeIngressServer(cfg IngressServerConfig, p Params, rtcfg qithread.Config, replay *qithread.IngressLog, cp *qithread.Checkpoint) IngressRun {
	if replay == nil {
		panic("workload: ResumeIngressServer needs the recorded ingress log")
	}
	rtcfg.Record = true
	rtcfg.Resume = cp
	rt := qithread.New(rtcfg)
	return runIngressServer(rt, cfg, p, replay)
}

// encodeIngressProgress serializes the workload's checkpointable progress:
// the shared state checksum and the per-worker partial sums.
func encodeIngressProgress(state uint64, parts []uint64) []byte {
	b := make([]byte, 0, 8*(len(parts)+2))
	b = binary.LittleEndian.AppendUint64(b, state)
	b = binary.LittleEndian.AppendUint64(b, uint64(len(parts)))
	for _, p := range parts {
		b = binary.LittleEndian.AppendUint64(b, p)
	}
	return b
}

// decodeIngressProgress restores what encodeIngressProgress saved; parts must
// already have the run's worker count (the resumed configuration must match).
func decodeIngressProgress(b []byte, parts []uint64) (state uint64, err error) {
	if len(b) < 16 {
		return 0, fmt.Errorf("workload: checkpoint payload is %d bytes, want at least 16", len(b))
	}
	state = binary.LittleEndian.Uint64(b)
	n := binary.LittleEndian.Uint64(b[8:])
	if n != uint64(len(parts)) {
		return 0, fmt.Errorf("workload: checkpoint has %d worker partials, run has %d workers", n, len(parts))
	}
	if uint64(len(b)) != 16+8*n {
		return 0, fmt.Errorf("workload: checkpoint payload is %d bytes, want %d", len(b), 16+8*n)
	}
	for i := range parts {
		parts[i] = binary.LittleEndian.Uint64(b[16+8*i:])
	}
	return state, nil
}

func runIngressServer(rt *qithread.Runtime, cfg IngressServerConfig, p Params, replay *qithread.IngressLog) IngressRun {
	sources := cfg.Sources
	if sources < 1 {
		sources = 1
	}
	workers := p.threads(cfg.Workers)
	events := p.scaleN(cfg.Events, sources*workers)
	parseWork := p.scaleW(cfg.ParseWork)
	stateWork := p.scaleW(cfg.StateWork)
	maxBatch := cfg.MaxBatch
	if maxBatch <= 0 {
		maxBatch = 16
	}

	gw := rt.NewGateway("ingress", rt.Domain(0), qithread.GatewayConfig{
		StageCap: cfg.StageCap,
		MaxBatch: maxBatch,
		QueueCap: cfg.QueueCap,
		Replay:   replay,
		Sink:     cfg.Sink,
	})
	for s := 0; s < sources; s++ {
		s := s
		lo := s * events / sources
		hi := (s + 1) * events / sources
		gw.AddSource(ingress.FuncSource("feed"+strconv.Itoa(s), func(port *ingress.Port) {
			// Jitter seeds from the wall clock on purpose: arrival timing is
			// the nondeterminism the gateway exists to fence off.
			var rng *rand.Rand
			if cfg.Jitter > 0 {
				rng = rand.New(rand.NewSource(time.Now().UnixNano() + int64(s)))
			}
			for r := lo; r < hi; r++ {
				if rng != nil {
					time.Sleep(time.Duration(rng.Int63n(int64(cfg.Jitter) + 1)))
				}
				port.Push([]byte(strconv.Itoa(r)))
			}
		}))
	}

	var state uint64
	var total uint64
	var checkpoints []*qithread.Checkpoint
	resume := rt.Config().Resume
	start := time.Now()
	rt.Run(func(main *qithread.Thread) {
		reqs := rt.NewPipe(main, "reqs", 2*maxBatch)
		stateM := rt.NewMutex(main, "state")
		parts := make([]uint64, workers)
		kids := createWorkers(main, workers, "worker", func(i int, w *qithread.Thread) {
			// Partials accumulate in parts[i] live (not in a local copied out
			// at exit) so a checkpoint taken at a quiescent boundary — every
			// worker drained and parked — observes the true progress.
			for {
				v, ok := reqs.Recv(w)
				if !ok {
					break
				}
				r := v.(int)
				pv := w.WorkSeeded(seedFor(p.InputSeed, r), itemWork(parseWork, r, p.InputSeed, p.InputSkew))
				parts[i] += pv
				stateM.Lock(w)
				sv := w.WorkSeeded(seedFor(p.InputSeed, r)+2, stateWork)
				state += sv
				stateM.Unlock(w)
				parts[i] += sv
			}
		})
		if resume != nil {
			// Setup ran muted; reinstate the checkpointed execution, then the
			// workload's own progress (workers are parked, so plain writes to
			// state and parts are safe here).
			if err := rt.Resume(main); err != nil {
				panic("workload: resume: " + err.Error())
			}
			var err error
			state, err = decodeIngressProgress(resume.App(), parts)
			if err != nil {
				panic(err.Error())
			}
		}
		// The gateway thread: admit epoch batches inside the turn, dispatch
		// each admitted request to the worker pool.
		buf := make([]qithread.IngressEvent, maxBatch)
		for {
			n, ok := gw.Admit(main, buf)
			for i := 0; i < n; i++ {
				r, err := strconv.Atoi(string(buf[i].Data))
				if err != nil {
					panic("workload: bad ingress payload " + strconv.Quote(string(buf[i].Data)))
				}
				reqs.Send(main, r)
			}
			if !ok {
				break
			}
			if cfg.CheckpointEvery > 0 && gw.Epoch()%cfg.CheckpointEvery == 0 {
				cp, err := rt.Checkpoint(main, func() []byte {
					return encodeIngressProgress(state, parts)
				})
				if err != nil {
					panic("workload: checkpoint at epoch " + strconv.FormatInt(gw.Epoch(), 10) + ": " + err.Error())
				}
				checkpoints = append(checkpoints, cp)
			}
		}
		reqs.Close(main)
		joinAll(main, kids)
		total = sumAll(parts)
	})
	wall := time.Since(start)

	admit, shed := gw.Hashes()
	return IngressRun{
		Output:      total,
		Fingerprint: rt.Fingerprint(),
		Log:         gw.Log(),
		AdmitHash:   admit,
		ShedHash:    shed,
		Stats:       gw.IngressStats(),
		Wall:        wall,
		Checkpoints: checkpoints,
	}
}
