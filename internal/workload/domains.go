package workload

import (
	"strconv"

	"qithread"
)

// This file holds the partitioned (multi-domain) workload engines. Each
// engine shards one of the single-domain synchronization structures across
// scheduler domains: every shard is an independent domain running the
// original engine over its slice of the input, and partial results flow back
// to the coordinator (the main thread, default domain) through sequenced
// XPipes. Per-item seeds are global — item r is seeded identically no matter
// which shard processes it — so the output checksum is a pure function of
// the input, independent of the domain count. That lets tests assert that
// 1-, 2-, 4- and 8-domain runs all compute the same answer while their
// virtual makespans shrink: under a single global turn every shard's
// synchronization serializes through one vLastOp chain, while per-domain
// turns serialize only within a shard.
//
// Each engine has two result-return shapes, selected by the Batch knob:
//
//   - Batch == 0 (aggregate): the shard reduces locally and sends ONE
//     partial checksum over a capacity-1 pipe, the cheapest possible
//     boundary traffic. This is the shape of the domains experiment's
//     scaling sweep (qibench -experiment domains, batch 0).
//   - Batch >= 1 (streaming): the shard ships every per-item checksum to
//     the coordinator through a capacity-Batch pipe using the batched
//     boundary API (XPipe.SendAll / RecvUpTo), modeling servers that return
//     per-request responses rather than a digest. Batch sets the pipe
//     capacity and therefore the maximum messages per turn-holding boundary
//     slot: Batch=1 degenerates to one slot per message, larger batches
//     amortize the slot, lock and wake-up over up to Batch messages. The
//     output checksum is identical across all Batch settings (and equals
//     the aggregate shape's), so sweeps compare boundary cost, not work.

// drainResults sums a shard's closed result stream, receiving up to batch
// messages per boundary slot.
func drainResults(main *qithread.Thread, p *qithread.XPipe, batch int) uint64 {
	buf := make([]any, batch)
	var total uint64
	for {
		n, ok := p.RecvUpTo(main, buf)
		for i := 0; i < n; i++ {
			total += buf[i].(uint64)
		}
		if !ok {
			return total
		}
	}
}

// DomainServerConfig describes a sharded request server: Domains independent
// server engines (each the listener + worker-pool structure of ServerConfig)
// behind a deterministic request partition, modeling a multi-process server
// or a sharded in-memory store. Requests is the total across all shards.
type DomainServerConfig struct {
	Domains    int
	Workers    int // per shard
	Requests   int // total, split contiguously across shards
	AcceptWork int64
	ParseWork  int64
	StateWork  int64
	// Batch selects the result-return shape: 0 sends one aggregated partial
	// checksum per shard (capacity-1 pipe); B>=1 streams every per-request
	// checksum through a capacity-B pipe with batched transfers.
	Batch int
}

// DomainServer builds the sharded request-server app. Shard k is scheduler
// domain k+1 (the default domain hosts only the coordinator); each shard
// sends its results to the coordinator over a dedicated XPipe.
func DomainServer(cfg DomainServerConfig, p Params) App {
	nd := cfg.Domains
	if nd < 1 {
		nd = 1
	}
	batch := cfg.Batch
	capacity := 1
	if batch > 0 {
		capacity = batch
	}
	workers := p.threads(cfg.Workers)
	requests := p.scaleN(cfg.Requests, nd*workers)
	acceptWork := p.scaleW(cfg.AcceptWork)
	parseWork := p.scaleW(cfg.ParseWork)
	stateWork := p.scaleW(cfg.StateWork)
	return func(rt *qithread.Runtime) uint64 {
		shards := make([]*qithread.Domain, nd)
		results := make([]*qithread.XPipe, nd)
		for k := 0; k < nd; k++ {
			shards[k] = rt.NewDomain("shard" + strconv.Itoa(k))
		}
		for k := 0; k < nd; k++ {
			results[k] = rt.NewXPipe("result"+strconv.Itoa(k), shards[k], rt.Domain(0), capacity)
		}
		engine := func(k int) func(*qithread.Thread) {
			lo := k * requests / nd
			hi := (k + 1) * requests / nd
			pipe := results[k]
			return func(e *qithread.Thread) {
				// One full server engine, domain-local: request queue under a
				// mutex+condvar, a worker pool, shared state under a mutex.
				parts := make([]uint64, workers)
				var vals []any // streaming shape: per-request checksums
				if batch > 0 {
					vals = make([]any, hi-lo)
				}
				var state uint64
				m := rt.NewMutex(e, "reqs")
				notEmpty := rt.NewCond(e, "notEmpty")
				stateM := rt.NewMutex(e, "state")
				var queue []int
				done := false
				kids := createWorkers(e, workers, "worker", func(i int, w *qithread.Thread) {
					var acc uint64
					for {
						m.Lock(w)
						for len(queue) == 0 && !done {
							notEmpty.Wait(w, m)
						}
						if len(queue) == 0 && done {
							m.Unlock(w)
							break
						}
						r := queue[0]
						queue = queue[1:]
						m.Unlock(w)
						pv := w.WorkSeeded(seedFor(p.InputSeed, r), itemWork(parseWork, r, p.InputSeed, p.InputSkew))
						acc += pv
						stateM.Lock(w)
						sv := w.WorkSeeded(seedFor(p.InputSeed, r)+2, stateWork)
						state += sv
						stateM.Unlock(w)
						if vals != nil {
							// Each request is processed by exactly one worker,
							// so the per-request slot needs no extra locking.
							vals[r-lo] = pv + sv
						}
					}
					parts[i] = acc
				})
				for r := lo; r < hi; r++ {
					e.WorkSeeded(seedFor(p.InputSeed, r), acceptWork)
					m.Lock(e)
					queue = append(queue, r)
					m.Unlock(e)
					notEmpty.Signal(e)
				}
				m.Lock(e)
				done = true
				m.Unlock(e)
				notEmpty.Broadcast(e)
				joinAll(e, kids)
				if batch > 0 {
					pipe.SendAll(e, vals)
					pipe.Close(e)
				} else {
					pipe.Send(e, sumAll(parts)+state)
				}
			}
		}
		var total uint64
		rt.Run(func(main *qithread.Thread) {
			for k := range shards {
				shards[k].Start("engine", engine(k))
			}
			for k := range shards {
				shards[k].Launch()
			}
			// Collect in shard order. Aggregate shape: each pipe carries
			// exactly one message on a capacity-1 pipe, so no shard ever
			// blocks sending. Streaming shape: drain each shard's stream to
			// its close, up to Batch messages per boundary slot.
			for k := range results {
				if batch > 0 {
					total += drainResults(main, results[k], batch)
					continue
				}
				v, ok := results[k].Recv(main)
				if !ok {
					panic("workload: shard result pipe drained early")
				}
				total += v.(uint64)
			}
		})
		return total
	}
}

// DomainMapReduceConfig describes a sharded Phoenix-style map-reduce: each
// shard statically partitions its slice of the map and reduce tasks across a
// created-then-joined worker round per phase (the Figure 2 structure), as if
// each shard were an independent map-reduce process.
type DomainMapReduceConfig struct {
	Domains     int
	Workers     int // per shard
	MapTasks    int // total, split contiguously across shards
	ReduceTasks int
	MapWork     int64
	ReduceWork  int64
	// Batch selects the result-return shape: 0 sends one aggregated partial
	// checksum per shard; B>=1 streams every per-task checksum (both phases)
	// through a capacity-B pipe with batched transfers.
	Batch int
}

// DomainMapReduce builds the sharded map-reduce app.
func DomainMapReduce(cfg DomainMapReduceConfig, p Params) App {
	nd := cfg.Domains
	if nd < 1 {
		nd = 1
	}
	batch := cfg.Batch
	capacity := 1
	if batch > 0 {
		capacity = batch
	}
	workers := p.threads(cfg.Workers)
	mapTasks := p.scaleN(cfg.MapTasks, nd*workers)
	reduceTasks := p.scaleN(cfg.ReduceTasks, nd*workers)
	mapWork := p.scaleW(cfg.MapWork)
	reduceWork := p.scaleW(cfg.ReduceWork)
	return func(rt *qithread.Runtime) uint64 {
		shards := make([]*qithread.Domain, nd)
		results := make([]*qithread.XPipe, nd)
		for k := 0; k < nd; k++ {
			shards[k] = rt.NewDomain("shard" + strconv.Itoa(k))
		}
		for k := 0; k < nd; k++ {
			results[k] = rt.NewXPipe("result"+strconv.Itoa(k), shards[k], rt.Domain(0), capacity)
		}
		engine := func(k int) func(*qithread.Thread) {
			pipe := results[k]
			return func(e *qithread.Thread) {
				parts := make([]uint64, workers)
				phase := func(tasks int, work int64, salt uint64) []any {
					lo := k * tasks / nd
					hi := (k + 1) * tasks / nd
					n := hi - lo
					var dst []any // streaming shape: per-task checksums
					if batch > 0 {
						dst = make([]any, n)
					}
					kids := createWorkers(e, workers, "worker", func(i int, w *qithread.Thread) {
						wlo := lo + i*n/workers
						whi := lo + (i+1)*n/workers
						acc := parts[i]
						for t := wlo; t < whi; t++ {
							v := w.WorkSeeded(seedFor(p.InputSeed+salt, t), itemWork(work, t, p.InputSeed+salt, p.InputSkew))
							acc += v
							if dst != nil {
								dst[t-lo] = v
							}
						}
						parts[i] = acc
					})
					joinAll(e, kids)
					return dst
				}
				mv := phase(mapTasks, mapWork, 0x11)
				rv := phase(reduceTasks, reduceWork, 0x22)
				if batch > 0 {
					pipe.SendAll(e, mv)
					pipe.SendAll(e, rv)
					pipe.Close(e)
				} else {
					pipe.Send(e, sumAll(parts))
				}
			}
		}
		var total uint64
		rt.Run(func(main *qithread.Thread) {
			for k := range shards {
				shards[k].Start("engine", engine(k))
			}
			for k := range shards {
				shards[k].Launch()
			}
			for k := range results {
				if batch > 0 {
					total += drainResults(main, results[k], batch)
					continue
				}
				v, ok := results[k].Recv(main)
				if !ok {
					panic("workload: shard result pipe drained early")
				}
				total += v.(uint64)
			}
		})
		return total
	}
}
