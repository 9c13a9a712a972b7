package controlplane

import (
	"strconv"
	"unicode"
	"unicode/utf8"

	"qithread"
	"qithread/internal/ingress"
)

// Config sizes one control-plane run.
type Config struct {
	// Entities is the number of entity state machines in the store. Zero
	// means 4.
	Entities int
	// Controllers is the reconciler pool size per shard. Zero means 2.
	Controllers int
	// Shards partitions the entity store across that many controller domains
	// (entity id modulo Shards), with reconcile tasks crossing from the
	// gateway domain over sequenced XPipes. Zero runs the controllers in the
	// gateway domain itself — the single-domain shape the explore scenarios
	// use to keep their schedule spaces small.
	Shards int
	// Stripes is the number of lock stripes guarding each shard's slice of
	// the store. Zero means 4; the explore scenarios use one stripe per
	// entity so only same-entity reconciles contend.
	Stripes int
	// ValidateWork is the compute a controller spends validating a
	// transition between snapshotting an entity and applying the result —
	// the window the seeded race needs. Zero means 24.
	ValidateWork int64
	// EventWork is the parse compute per admitted event. Zero means 8.
	EventWork int64
	// MaxBatch and QueueCap configure the ingress gateway (see
	// qithread.GatewayConfig). Zero means 8 and the gateway default.
	MaxBatch int
	QueueCap int
	// SeededRace plants the production-shape missing-recheck bug: the
	// controller applies the transition it computed from its snapshot
	// WITHOUT re-checking the entity's generation under the lock. Two
	// controllers reconciling the same entity concurrently then double-apply
	// one transition, breaking the Steps == State invariant. The fix (the
	// default path) re-checks the generation and drops the stale apply as a
	// conflict — a data-only difference, so a racy repro schedule replays
	// structurally unchanged against the fixed program.
	SeededRace bool
	// Log replays a recorded ingress log instead of running live sources.
	Log *ingress.Log
	// Faults, when non-nil, transforms Log before replay (drop / delay /
	// duplicate events); see FaultSpec. Requires Log.
	Faults *FaultSpec
	// Sources feed the gateway in live mode (ignored when Log is set).
	Sources []ingress.Source
}

func (cfg Config) withDefaults() Config {
	if cfg.Entities <= 0 {
		cfg.Entities = 4
	}
	if cfg.Controllers <= 0 {
		cfg.Controllers = 2
	}
	if cfg.Stripes <= 0 {
		cfg.Stripes = 4
	}
	if cfg.ValidateWork <= 0 {
		cfg.ValidateWork = 24
	}
	if cfg.EventWork <= 0 {
		cfg.EventWork = 8
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 8
	}
	return cfg
}

// task is one queued reconcile: revisit entity ID. Resync marks timer-driven
// sweep revisits (counted as Requeues on the entity).
type task struct {
	id     int
	resync bool
}

// summary aggregates one shard's outcome after its controllers quiesce.
type summary struct {
	transitions uint64
	conflicts   uint64
	skips       uint64
	anomalies   uint64
	installed   uint64
	stateHash   uint64
	entities    []Entity
}

// Result is one control-plane run's full outcome: the packed checksum, the
// per-counter breakdown, the final entity table, and the determinism
// observables (fingerprint, ingress log, admission hashes, stats snapshots).
type Result struct {
	// Output is the packed checksum; see Checksum.
	Output uint64
	// Transitions counts applied state transitions across all controllers.
	Transitions uint64
	// Conflicts counts stale applies dropped by the generation re-check
	// (always zero with SeededRace, which skips the check).
	Conflicts uint64
	// Skips counts reconciles of already-final entities.
	Skips uint64
	// Anomalies counts entities whose Steps/State invariant broke — the
	// seeded race's observable. Zero in every correct execution.
	Anomalies uint64
	// Installed counts entities that reached the final state.
	Installed int
	// Entities is the final entity table in id order.
	Entities []Entity
	// Fingerprint, Log, AdmitHash and ShedHash are the determinism
	// observables of the run.
	Fingerprint qithread.Fingerprint
	Log         *qithread.IngressLog
	AdmitHash   uint64
	ShedHash    uint64
	// Gateways and Schedulers are the observability snapshots.
	Gateways   []qithread.GatewayStat
	Schedulers []qithread.SchedulerStat
}

// Checksum packs a run's outcome into the single uint64 the explore registry
// checks: anomalies in the high bits (so any nonzero anomaly count survives
// packing), then conflicts, transitions, and a 24-bit hash of the final
// entity table.
func Checksum(anomalies, conflicts, transitions, stateHash uint64) uint64 {
	return (anomalies&0xffff)<<48 | (conflicts&0xff)<<40 | (transitions&0xffff)<<24 | stateHash&0xffffff
}

// Anomalies unpacks the anomaly count from a packed checksum.
func Anomalies(out uint64) uint64 { return out >> 48 }

// group is one shard's slice of the entity store plus its reconcile queue:
// entities, stripe mutexes, the work queue its controllers drain, and the
// per-run counters. Everything sized by the configuration is one slab made
// once — explored runs build a cell each, by the ten thousand.
type group struct {
	cfg      Config
	k, mod   int               // the shard owns the entities with id % mod == k
	entities []Entity          // owned entities, local index (id / mod) order
	stripes  []*qithread.Mutex // stripe k guards entities with local index % len(stripes) == k
	qm       *qithread.Mutex
	qcv      *qithread.Cond
	queue    []task // pending tasks are queue[head:]; the buffer is reused from the start whenever it drains
	head     int
	done     bool
	pool     []controller
}

// newGroup builds a shard's store slice: the entities whose id % mod == k
// (mod 1, k 0 selects everything), with Stripes lock stripes.
func newGroup(rt *qithread.Runtime, t *qithread.Thread, cfg Config, k, mod int, label string) *group {
	g := &group{cfg: cfg, k: k, mod: mod}
	g.entities = make([]Entity, (cfg.Entities-k+mod-1)/mod)
	for i := range g.entities {
		g.entities[i].ID = i*mod + k
	}
	ns := cfg.Stripes
	if ns > len(g.entities) {
		ns = len(g.entities)
	}
	if ns < 1 {
		ns = 1
	}
	g.stripes = make([]*qithread.Mutex, ns)
	for s := range g.stripes {
		g.stripes[s] = rt.NewMutex(t, label+"stripe"+strconv.Itoa(s))
	}
	g.qm = rt.NewMutex(t, label+"queue")
	g.qcv = rt.NewCond(t, label+"work")
	// One admitted batch plus one resync sweep fit without regrowing.
	g.queue = make([]task, 0, cfg.MaxBatch+len(g.entities))
	return g
}

// stripe returns the mutex guarding the entity at local index i.
func (g *group) stripe(i int) *qithread.Mutex {
	return g.stripes[i%len(g.stripes)]
}

// localIndex maps an entity id to its index in the shard's slice.
func (g *group) localIndex(id int) int {
	if i := id / g.mod; id >= 0 && id%g.mod == g.k && i < len(g.entities) {
		return i
	}
	panic("controlplane: entity " + strconv.Itoa(id) + " not owned by this shard")
}

// enqueue appends a task and signals one waiting controller.
func (g *group) enqueue(t *qithread.Thread, tk task) {
	g.qm.Lock(t)
	g.queue = append(g.queue, tk)
	g.qm.Unlock(t)
	g.qcv.Signal(t)
}

// idle reports whether no task is pending. Callers hold qm.
func (g *group) idle() bool { return g.head == len(g.queue) }

// dequeue removes the oldest pending task. Callers hold qm and have
// established that one is pending.
func (g *group) dequeue() task {
	tk := g.queue[g.head]
	g.head++
	if g.idle() {
		g.queue, g.head = g.queue[:0], 0
	}
	return tk
}

// expand turns one admitted event into reconcile tasks for this shard: an
// advance targets one entity, a tick sweeps every non-final owned entity (the
// deterministic resync timer's requeue path).
func (g *group) expand(t *qithread.Thread, tk task) {
	if tk.id >= 0 {
		g.enqueue(t, tk)
		return
	}
	for i := range g.entities {
		e := &g.entities[i]
		m := g.stripe(i)
		m.Lock(t)
		final := e.State == Installed
		m.Unlock(t)
		if !final {
			g.enqueue(t, task{id: e.ID, resync: true})
		}
	}
}

// close marks the queue complete and wakes every controller.
func (g *group) close(t *qithread.Thread) {
	g.qm.Lock(t)
	g.done = true
	g.qm.Unlock(t)
	g.qcv.Broadcast(t)
}

// reconcile is one controller pass over one entity: snapshot under the stripe
// lock, validate outside it, re-take the lock and apply. The seeded race is
// the apply path that trusts the snapshot; the fix re-checks the generation.
func (g *group) reconcile(w *qithread.Thread, tk task, c *counters) {
	i := g.localIndex(tk.id)
	e := &g.entities[i]
	m := g.stripe(i)

	m.Lock(w)
	if tk.resync {
		e.Requeues++
	}
	snapState, snapGen := e.State, e.Generation
	m.Unlock(w)

	if snapState == Installed {
		c.skips++
		return
	}
	// Validation: the guard computation a real controller performs against
	// the snapshot (preflight checks, quota, image availability) before
	// committing the transition.
	w.WorkSeeded(uint64(tk.id)*0x9e3779b97f4a7c15+snapGen, g.cfg.ValidateWork)

	m.Lock(w)
	if g.cfg.SeededRace {
		// BUG (missing re-check): applies the transition computed from the
		// snapshot without verifying the entity is still at snapGen. A
		// concurrent reconcile that applied first makes this a stale
		// double-apply: Steps advances, State does not.
		e.State = snapState.next()
		e.Steps++
		e.Generation++
		c.transitions++
	} else if e.Generation != snapGen {
		// The fix: the snapshot went stale while validating — drop the
		// apply as a conflict; a resync sweep revisits the entity.
		c.conflicts++
	} else {
		e.State = e.State.next()
		e.Steps++
		e.Generation++
		c.transitions++
	}
	m.Unlock(w)
}

// counters is one controller's private accumulator (no extra sync ops on the
// reconcile path).
type counters struct {
	transitions uint64
	conflicts   uint64
	skips       uint64
}

// controller is one member of the shard's pool: its thread and its counters.
type controller struct {
	t *qithread.Thread
	counters
}

// runControllers starts the shard's controller pool; each controller drains
// the queue until close. joinControllers waits for it.
func (g *group) runControllers(t *qithread.Thread, name string) {
	n := g.cfg.Controllers
	g.pool = make([]controller, n)
	for i := 0; i < n; i++ {
		if i+1 < n {
			t.KeepTurn()
		}
		c := &g.pool[i].counters
		g.pool[i].t = t.Create(name+strconv.Itoa(i), func(w *qithread.Thread) {
			for {
				g.qm.Lock(w)
				for g.idle() && !g.done {
					g.qcv.Wait(w, g.qm)
				}
				if g.idle() {
					g.qm.Unlock(w)
					return
				}
				tk := g.dequeue()
				g.qm.Unlock(w)
				g.reconcile(w, tk, c)
			}
		})
	}
}

// joinControllers joins the pool started by runControllers and folds its
// counters.
func (g *group) joinControllers(t *qithread.Thread) (transitions, conflicts, skips uint64) {
	for i := range g.pool {
		c := &g.pool[i]
		t.Join(c.t)
		transitions += c.transitions
		conflicts += c.conflicts
		skips += c.skips
	}
	return
}

// summarize folds the quiesced shard into its summary: counter totals, the
// invariant check per entity, and the FNV hash of the final entity table.
func (g *group) summarize(transitions, conflicts, skips uint64) summary {
	s := summary{transitions: transitions, conflicts: conflicts, skips: skips}
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	fold := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	for i := range g.entities {
		e := &g.entities[i]
		if !e.consistent() {
			s.anomalies++
		}
		if e.State == Installed {
			s.installed++
		}
		fold(uint64(e.ID))
		fold(uint64(e.State))
		fold(e.Steps)
		fold(e.Generation)
		fold(e.Requeues)
	}
	s.entities = append([]Entity(nil), g.entities...)
	s.stateHash = h
	return s
}

// parseEvent decodes an admitted payload into a task: "advance <id>" targets
// one entity, "tick <n>" is a resync sweep (id -1). Unknown payloads are
// dropped (id -2) — a fault spec may deliver garbage; a control plane logs
// and ignores it. The payload is scanned in place: this runs once per
// admitted event, and a split into strings would be its only allocation.
func parseEvent(data []byte, entities int) task {
	verb, rest := nextField(data)
	arg, rest := nextField(rest)
	if extra, _ := nextField(rest); len(arg) == 0 || len(extra) != 0 {
		return task{id: -2} // not exactly two fields
	}
	switch string(verb) {
	case "advance":
		if id, err := strconv.Atoi(string(arg)); err == nil && id >= 0 && id < entities {
			return task{id: id}
		}
	case "tick":
		return task{id: -1}
	}
	return task{id: -2}
}

// nextField returns the first whitespace-separated field of b and what
// follows it; the field is empty when b holds none. Whitespace is what
// strings.Fields splits on: unicode.IsSpace, with bytes that are not valid
// UTF-8 (a fault spec may deliver any) counting as non-space.
func nextField(b []byte) (field, rest []byte) {
	start := -1
	for i := 0; i < len(b); {
		r, n := rune(b[i]), 1
		if r >= utf8.RuneSelf {
			r, n = utf8.DecodeRune(b[i:])
		}
		if !unicode.IsSpace(r) {
			if start < 0 {
				start = i
			}
		} else if start >= 0 {
			return b[start:i], b[i:]
		}
		i += n
	}
	if start < 0 {
		return nil, nil
	}
	return b[start:], nil
}

// App builds the control-plane workload as a runnable app (the workload.App
// contract): run it on a runtime, get the packed checksum. Use Run for the
// full Result.
func App(cfg Config) func(rt *qithread.Runtime) uint64 {
	return func(rt *qithread.Runtime) uint64 {
		return run(rt, cfg, nil)
	}
}

// Run executes one control-plane run on a fresh runtime built from rtcfg and
// returns the full Result, including the recorded ingress log (live mode) and
// the observability snapshots.
func Run(cfg Config, rtcfg qithread.Config) Result {
	var res Result
	rt := qithread.New(rtcfg)
	res.Output = run(rt, cfg, &res)
	res.Fingerprint = rt.Fingerprint()
	res.Gateways = rt.GatewayStats()
	res.Schedulers = rt.SchedulerStats()
	return res
}

// run executes the workload on the given runtime. With capture non-nil it
// also fills the Result's counters, entity table and ingress observables.
func run(rt *qithread.Runtime, cfg Config, capture *Result) uint64 {
	cfg = cfg.withDefaults()
	replay := cfg.Log
	if replay != nil && cfg.Faults != nil {
		replay = cfg.Faults.Apply(replay)
	}
	gcfg := qithread.GatewayConfig{MaxBatch: cfg.MaxBatch, QueueCap: cfg.QueueCap, Replay: replay}

	var total summary
	var gw *qithread.Gateway
	if cfg.Shards <= 0 {
		rt.Run(func(main *qithread.Thread) {
			gw = rt.NewGateway("cluster", rt.Domain(0), gcfg)
			for _, s := range cfg.Sources {
				gw.AddSource(s)
			}
			g := newGroup(rt, main, cfg, 0, 1, "")
			g.runControllers(main, "controller")
			buf := make([]qithread.IngressEvent, cfg.MaxBatch)
			for {
				n, ok := gw.Admit(main, buf)
				for i := 0; i < n; i++ {
					ev := buf[i]
					main.WorkSeeded(uint64(ev.Seq)+1, cfg.EventWork)
					if tk := parseEvent(ev.Data, cfg.Entities); tk.id >= -1 {
						g.expand(main, tk)
					}
				}
				if !ok {
					break
				}
			}
			g.close(main)
			total = g.summarize(g.joinControllers(main))
		})
	} else {
		nd := cfg.Shards
		rt.Run(func(main *qithread.Thread) {
			gw = rt.NewGateway("cluster", rt.Domain(0), gcfg)
			for _, s := range cfg.Sources {
				gw.AddSource(s)
			}
			shards := make([]*qithread.Domain, nd)
			tasks := make([]*qithread.XPipe, nd)
			results := make([]*qithread.XPipe, nd)
			for k := 0; k < nd; k++ {
				shards[k] = rt.NewDomain("shard" + strconv.Itoa(k))
			}
			for k := 0; k < nd; k++ {
				tasks[k] = rt.NewXPipe("task"+strconv.Itoa(k), rt.Domain(0), shards[k], cfg.MaxBatch)
				results[k] = rt.NewXPipe("summary"+strconv.Itoa(k), shards[k], rt.Domain(0), 1)
			}
			for k := 0; k < nd; k++ {
				k := k
				shards[k].Start("reconciler", func(e *qithread.Thread) {
					g := newGroup(rt, e, cfg, k, nd, "s"+strconv.Itoa(k))
					g.runControllers(e, "controller")
					buf := make([]any, cfg.MaxBatch)
					for {
						n, ok := tasks[k].RecvUpTo(e, buf)
						for i := 0; i < n; i++ {
							g.expand(e, buf[i].(task))
						}
						if !ok {
							break
						}
					}
					g.close(e)
					results[k].Send(e, g.summarize(g.joinControllers(e)))
				})
			}
			for k := 0; k < nd; k++ {
				shards[k].Launch()
			}

			pending := make([][]any, nd)
			buf := make([]qithread.IngressEvent, cfg.MaxBatch)
			for {
				n, ok := gw.Admit(main, buf)
				for i := 0; i < n; i++ {
					ev := buf[i]
					main.WorkSeeded(uint64(ev.Seq)+1, cfg.EventWork)
					tk := parseEvent(ev.Data, cfg.Entities)
					switch {
					case tk.id >= 0:
						pending[tk.id%nd] = append(pending[tk.id%nd], tk)
					case tk.id == -1:
						// Resync tick: every shard sweeps its slice.
						for k := 0; k < nd; k++ {
							pending[k] = append(pending[k], tk)
						}
					}
				}
				for k := 0; k < nd; k++ {
					if len(pending[k]) > 0 {
						tasks[k].SendAll(main, pending[k])
						pending[k] = pending[k][:0]
					}
				}
				if !ok {
					break
				}
			}
			for k := 0; k < nd; k++ {
				tasks[k].Close(main)
			}
			// Collect shard summaries in shard order.
			merged := make([]Entity, cfg.Entities)
			for k := 0; k < nd; k++ {
				v, ok := results[k].Recv(main)
				if !ok {
					panic("controlplane: shard summary pipe drained early")
				}
				s := v.(summary)
				total.transitions += s.transitions
				total.conflicts += s.conflicts
				total.skips += s.skips
				total.anomalies += s.anomalies
				total.installed += s.installed
				// Shard-order folding keeps the combined hash deterministic.
				total.stateHash = total.stateHash*1099511628211 ^ s.stateHash
				for _, e := range s.entities {
					merged[e.ID] = e
				}
			}
			total.entities = merged
		})
	}

	if capture != nil {
		capture.Transitions = total.transitions
		capture.Conflicts = total.conflicts
		capture.Skips = total.skips
		capture.Anomalies = total.anomalies
		capture.Installed = int(total.installed)
		capture.Entities = total.entities
		capture.Log = gw.Log()
		capture.AdmitHash, capture.ShedHash = gw.Hashes()
	}
	return Checksum(total.anomalies, total.conflicts, total.transitions, total.stateHash)
}
