// Package ingress is the deterministic external-I/O frontier: the one point
// where nondeterministic outside events — connections, request bytes, timer
// firings — are serialized into a deterministic execution.
//
// The runtime's determinism has so far stopped at the process edge: Pipes
// and XPipes make in-process traffic deterministic, but a real server run is
// driven by external arrivals whose timing no scheduler controls. The paper's
// Parrot baseline solved this by interposing on socket operations; logical-
// clock systems such as Kendo likewise assume an admission point where
// outside nondeterminism enters the deterministic order exactly once. This
// package builds that admission point out of three pieces:
//
//   - Collection, outside the turn: free-running Source goroutines (socket
//     adapters, synthetic feeds) push events into a bounded staging
//     Collector in real time, with backpressure. Nothing here is
//     deterministic, and nothing here needs to be: arrival order and timing
//     are exactly the nondeterminism being fenced off.
//   - Admission, inside the turn: at each epoch boundary — one turn-holding
//     admission slot taken by a gateway thread, the same boundary shape as a
//     batched XPipe transfer — the Gateway snapshots the staged events,
//     stamps them with (epoch, seq), applies the deterministic overload
//     policy (a bounded admission queue; overflow is shed), and hands the
//     admitted batch to the domain. Every decision after the snapshot is a
//     pure function of the snapshot sequence and the gateway configuration.
//   - Record/replay: each snapshot is appended to the run's ingress log (a
//     retained Log, or a BinaryLogWriter streaming the v2b format). A
//     Replayer re-feeds a recorded log batch-for-batch, epoch-aligned, so an
//     externally-driven run reproduces byte-identical schedules and
//     fingerprints from the log alone — the collector, sources, sockets and
//     timers are not involved at all.
//
// The determinism argument extends the compositional one of the XPipe (pipe.go):
// a domain's schedule is a function of the synchronization its threads
// execute; the only new input is the event batch an admission slot returns,
// and that batch is a function of (log, configuration). Given the log, the
// whole downstream execution — every domain schedule, every cross-domain
// delivery, every shed decision — is reproducible.
package ingress

import (
	"fmt"
	"sync"

	"qithread/internal/logio"
	"qithread/internal/policy"
)

// Event is one external input event. Source and Data are set by the
// producing source; Epoch and Seq are the admission stamps assigned inside
// the turn when the event crosses the deterministic frontier.
type Event struct {
	// Source is the id of the producing source (registration order).
	Source int
	// Data is the opaque event payload. The gateway treats it as bytes; the
	// ingress log records it verbatim.
	Data []byte
	// Epoch is the admission slot (1-based) whose snapshot contained the
	// event.
	Epoch int64
	// Seq is the event's global admission sequence number (1-based, over all
	// events ever collected by the gateway, in epoch order then snapshot
	// order).
	Seq int64
}

func (e Event) String() string {
	return fmt.Sprintf("src%d@(e%d,s%d) %q", e.Source, e.Epoch, e.Seq, e.Data)
}

// Stats aggregates one gateway's admission activity. All counters are
// monotone over a run; Collected == Admitted + Shed once the run finishes.
// This is the only declaration of the gateway's counters: GatewayState
// (checkpoints) and qithread.GatewayStat (live snapshots) embed it.
type Stats struct {
	// Epochs is the number of admission slots taken (Admit calls).
	Epochs int64
	// Collected is the number of events snapshotted at epoch boundaries
	// (equals the event count of the ingress log).
	Collected int64
	// Admitted is the number of events delivered into the domain.
	Admitted int64
	// Shed is the number of events rejected by the bounded admission queue.
	Shed int64
	// PushBlocks counts producer pushes that blocked on staging
	// backpressure (the stage was full).
	PushBlocks int64
	// MaxStage is the staging high-water mark (events waiting outside the
	// turn).
	MaxStage int
	// MaxQueue is the admission-queue high-water mark (events admitted but
	// not yet delivered).
	MaxQueue int
}

func (st Stats) String() string {
	return fmt.Sprintf("epochs=%d collected=%d admitted=%d shed=%d pushBlocks=%d maxStage=%d maxQueue=%d",
		st.Epochs, st.Collected, st.Admitted, st.Shed, st.PushBlocks, st.MaxStage, st.MaxQueue)
}

// Config configures a Gateway.
type Config struct {
	// StageCap bounds the free-running staging buffer: producers pushing
	// into a full stage block in real time (backpressure toward the
	// sources). Zero means 64.
	StageCap int
	// MaxBatch bounds the events delivered to the domain per admission
	// slot. Zero means 16.
	MaxBatch int
	// QueueCap bounds the deterministic admission queue (events admitted
	// but not yet delivered). Collected events that would overflow it are
	// shed — inside the turn, so the reject set is a pure function of the
	// log. Zero means 1024.
	QueueCap int
	// Replay, when non-nil, re-feeds a recorded ingress log instead of
	// collecting live events: each admission slot receives exactly the
	// recorded snapshot of its epoch. Live sources are ignored in replay
	// mode.
	Replay *Replayer
	// Sink, when non-nil, receives the recorded batches instead of a Log
	// retained in memory: a BinaryLogWriter is the bounded-memory recording
	// mode for million-event runs. Log() returns nil unless the sink is a
	// *Log; the admit/shed hashes are unaffected. A replaying gateway records
	// nothing, so setting Sink with Replay panics.
	Sink BatchSink
	// Chooser, when non-nil, is consulted (policy.ChooseAdmit: candidate i is a
	// batch of i+1 events, the default the full batch) whenever an admission
	// slot could deliver more than one event (n >= 2 after the
	// MaxBatch/queue/dst bounds): it may shrink the batch to any size in
	// [1, n], perturbing where the admission boundaries fall without changing
	// which events are admitted or their order. Out-of-range returns keep the
	// full batch. Empty batches are not offered — a slot that can deliver must
	// deliver at least one event, so a perturbed run cannot spin forever
	// re-admitting nothing. This is the ingress choice point of the
	// schedule-space explorer (internal/explore); the qithread wrapper passes
	// the owning domain's chooser, so one decision sequence covers turn, wake
	// and admission choices.
	Chooser policy.Chooser
}

func (c Config) withDefaults() Config {
	if c.StageCap <= 0 {
		c.StageCap = 64
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 16
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 1024
	}
	return c
}

// Gateway is the deterministic admission point of one domain. The producer
// side (AddSource, Port.Push) is free-running; the consumer side (Admit) is
// called by exactly one gateway thread inside a turn-holding admission slot.
//
// The deterministic state — epoch and sequence counters, the bounded
// admission queue, the log, the running hashes — is mutated only inside
// Admit, whose calls the gateway domain's turn chain totally orders; the
// internal mutex only orders physical access against Stats readers and the
// collector.
type Gateway struct {
	cfg Config     // cfg.Replay is the log cursor in replay mode, nil in live mode
	col *collector // nil in replay mode

	mu    sync.Mutex
	epoch int64   // admission slots taken
	seq   int64   // events ever stamped
	queue []Event // bounded admission queue (head..)
	head  int
	sink  BatchSink // live mode: Config.Sink, or a retained *Log; nil in replay mode
	// admitHash and shedHash are running FNV-64a commitments to the
	// admitted and shed event sets (epoch, seq, source, payload bytes), the
	// O(1)-memory way to assert that two runs admitted and rejected exactly
	// the same events.
	admitHash uint64
	shedHash  uint64
	stats     Stats
}

// NewGateway creates a gateway. With cfg.Replay set it re-feeds the recorded
// log; otherwise it collects live events from its sources.
func NewGateway(cfg Config) *Gateway { return new(Gateway).Init(cfg) }

// Init is NewGateway into caller-owned storage: g, which must be a zero
// Gateway, is configured in place and returned. The qithread wrapper holds
// its Gateway by value this way, so a gateway is one heap object. An
// initialised Gateway must not be copied (it holds a mutex).
func (g *Gateway) Init(cfg Config) *Gateway {
	if cfg.Replay != nil && cfg.Sink != nil {
		panic("ingress: Config.Sink is set together with Config.Replay, but a replaying gateway records nothing")
	}
	cfg = cfg.withDefaults()
	g.cfg = cfg
	g.admitHash, g.shedHash = logio.FNVOffset64, logio.FNVOffset64
	if cfg.Replay == nil {
		g.col = newCollector(cfg.StageCap)
		g.sink = cfg.Sink
		if g.sink == nil {
			g.sink = &Log{}
		}
	}
	return g
}

// AddSource registers a free-running source and starts its feeder
// goroutine. Sources must be added in a deterministic order (by setup code,
// before admission starts): registration order assigns the source id that
// appears in every event and in the log. In replay mode live sources are
// ignored — the log already contains their recorded events — so one program
// builds the same structure for recording and replaying.
func (g *Gateway) AddSource(s Source) int {
	if g.cfg.Replay != nil {
		return -1
	}
	id := g.col.addSource()
	port := &Port{c: g.col, id: id}
	go func() {
		s.Run(port)
		port.Close()
	}()
	return id
}

// Admit takes one admission slot: it snapshots the staged events (blocking
// in real time while the stage is empty, the queue is drained and sources
// remain open), stamps the snapshot with (epoch, seq), appends it to the
// ingress log, applies the bounded-queue shedding policy, and stores up to
// min(len(dst), MaxBatch) admitted events into dst. It reports ok=false only
// when ingress is exhausted: all sources closed (or the log replayed to its
// end) and every admitted event delivered.
//
// The caller must hold its domain's turn for the duration (the qithread
// wrapper enforces this): the slot then occupies exactly one deterministic
// position in the domain schedule, and everything Admit computes past the
// snapshot is a pure function of the log and the configuration.
func (g *Gateway) Admit(dst []Event) (n int, ok bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.epoch++
	g.stats.Epochs++

	var snap []Event
	exhausted := false
	if rep := g.cfg.Replay; rep != nil {
		snap, exhausted = rep.next(g.epoch, g.queued())
	} else {
		// Block for events only when nothing is deliverable; with a backlog
		// queued, take whatever is staged (possibly nothing) and move on.
		snap, exhausted = g.col.drain(g.queued() == 0)
	}
	if len(snap) > 0 {
		if g.sink != nil {
			if err := g.sink.AppendBatch(g.epoch, snap); err != nil {
				// Losing input batches silently would break the record/replay
				// contract: the log IS the run's nondeterministic input.
				panic(fmt.Sprintf("ingress: batch sink failed at epoch %d: %v", g.epoch, err))
			}
		}
		if g.queue == nil {
			// The first snapshot sizes the queue: room for it plus one slot's
			// worth of backlog, so a consumer that keeps up never regrows it
			// (a run that falls behind grows it by doubling, up to QueueCap
			// events). Never QueueCap itself: runtimes that admit a handful of
			// events are built by the ten thousand.
			g.queue = make([]Event, 0, min(len(snap)+g.cfg.MaxBatch, g.cfg.QueueCap))
		}
		for _, e := range snap {
			g.seq++
			e.Epoch, e.Seq = g.epoch, g.seq
			g.stats.Collected++
			if g.queued() >= g.cfg.QueueCap {
				// Deterministic overload shedding: the queue is full, so the
				// event is rejected here, inside the turn. Which events are
				// shed is a function of the log alone — replaying the log
				// rejects exactly the same (epoch, seq) set.
				g.stats.Shed++
				g.shedHash = foldEvent(g.shedHash, e)
				continue
			}
			g.pushQueue(e)
		}
		if q := g.queued(); q > g.stats.MaxQueue {
			g.stats.MaxQueue = q
		}
	}

	n = g.queued()
	if n > g.cfg.MaxBatch {
		n = g.cfg.MaxBatch
	}
	if n > len(dst) {
		n = len(dst)
	}
	if ch := g.cfg.Chooser; ch != nil && n > 1 {
		// The hook runs inside the turn-ordered slot, after the bounds
		// computation common to live and replay admission, so a perturbed
		// batch size is as deterministic as the default one.
		if c := ch.Choose(policy.ChooseAdmit, nil, n, n-1) + 1; c >= 1 && c < n {
			n = c
		}
	}
	for i := 0; i < n; i++ {
		e := g.popQueue()
		g.admitHash = foldEvent(g.admitHash, e)
		g.stats.Admitted++
		dst[i] = e
	}
	if n == 0 && exhausted && g.queued() == 0 {
		return 0, false
	}
	return n, true
}

// queued returns the admission-queue length. Callers hold g.mu.
func (g *Gateway) queued() int { return len(g.queue) - g.head }

// pushQueue appends to the admission queue, compacting the consumed head
// space first so the backing array never retains delivered events. Callers
// hold g.mu.
func (g *Gateway) pushQueue(e Event) {
	if g.head > 0 && len(g.queue) == cap(g.queue) {
		n := copy(g.queue, g.queue[g.head:])
		for i := n; i < len(g.queue); i++ {
			g.queue[i] = Event{}
		}
		g.queue = g.queue[:n]
		g.head = 0
	}
	g.queue = append(g.queue, e)
}

// popQueue removes the oldest queued event. Callers hold g.mu and have
// established queued() > 0.
func (g *Gateway) popQueue() Event {
	e := g.queue[g.head]
	g.queue[g.head] = Event{}
	g.head++
	if g.head == len(g.queue) {
		g.queue = g.queue[:0]
		g.head = 0
	}
	return e
}

// Log returns the gateway's ingress log: every snapshot admitted so far, in
// epoch order. In replay mode it returns the log being replayed; with a Sink
// that is not a *Log, nil. The returned log is live until admission
// finishes; stop admitting before saving or sharing it.
func (g *Gateway) Log() *Log {
	if rep := g.cfg.Replay; rep != nil {
		return rep.log
	}
	l, _ := g.sink.(*Log)
	return l
}

// Epoch returns the number of admission slots taken so far (the epoch the
// next Admit will take, minus one).
func (g *Gateway) Epoch() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.epoch
}

// Hashes returns the running commitments to the admitted and shed event
// sets. Two runs that fed the same log through the same configuration must
// return identical pairs — the O(1)-memory form of comparing the full
// admitted and rejected event lists.
func (g *Gateway) Hashes() (admitted, shed uint64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.admitHash, g.shedHash
}

// Stats returns a snapshot of the gateway's admission counters, merged with
// the collector's staging counters.
func (g *Gateway) Stats() Stats {
	g.mu.Lock()
	st := g.stats
	g.mu.Unlock()
	if g.col != nil {
		blocks, maxStage := g.col.stageStats()
		st.PushBlocks = blocks
		st.MaxStage = maxStage
	}
	return st
}

// foldEvent folds one stamped event into an FNV-64a state: stamps, source,
// payload length and payload bytes, so the hash commits to content as well
// as order.
func foldEvent(h uint64, e Event) uint64 {
	h = logio.FNVFold64(h, uint64(e.Epoch))
	h = logio.FNVFold64(h, uint64(e.Seq))
	h = logio.FNVFold64(h, uint64(e.Source))
	h = logio.FNVFold64(h, uint64(len(e.Data)))
	return logio.FNVFoldBytes(h, e.Data)
}

// collector is the free-running staging area between sources and the
// gateway: a bounded buffer filled by producer
// goroutines in real time and snapshotted by the turn-holding admission
// slot. Everything in here is deliberately nondeterministic — it is the
// outside world — and none of it leaks downstream except through the logged
// snapshots.
type collector struct {
	mu      sync.Mutex
	canPush sync.Cond
	canPull sync.Cond
	stage   []Event
	cap     int
	sources int // registered; the next source's id
	open    int // sources not yet closed

	pushBlocks int64
	maxStage   int
}

func newCollector(stageCap int) *collector {
	c := &collector{cap: stageCap}
	c.canPush.L = &c.mu
	c.canPull.L = &c.mu
	return c
}

func (c *collector) addSource() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sources++
	c.open++
	return c.sources - 1
}

// push stages one event, blocking while the stage is full (the backpressure
// producers feel).
func (c *collector) push(source int, data []byte) {
	c.mu.Lock()
	blocked := false
	for len(c.stage) >= c.cap {
		if !blocked {
			blocked = true
			c.pushBlocks++
		}
		c.canPush.Wait()
	}
	c.stage = append(c.stage, Event{Source: source, Data: data})
	if len(c.stage) > c.maxStage {
		c.maxStage = len(c.stage)
	}
	c.mu.Unlock()
	c.canPull.Signal()
}

// closeSource marks one source exhausted; when the last source closes, a
// blocked drain returns.
func (c *collector) closeSource(source int) {
	c.mu.Lock()
	c.open--
	done := c.open == 0
	c.mu.Unlock()
	if done {
		c.canPull.Broadcast()
	}
}

// drain snapshots and clears the stage. When block is set it waits, in real
// time, until at least one event is staged or every source has closed.
// exhausted reports that no further events can ever arrive (all sources
// closed and the stage empty after the snapshot).
//
// The snapshot's backing array leaves with it — the gateway may retain
// batches cut from it — so the next stage is a fresh array; only the size
// carries over, as its capacity: epochs under steady load stage about as
// much as the last one did, and starting from nil would regrow 1→2→4→…
// under the producers' lock every epoch.
func (c *collector) drain(block bool) (snap []Event, exhausted bool) {
	c.mu.Lock()
	if block {
		for len(c.stage) == 0 && c.open > 0 {
			c.canPull.Wait()
		}
	}
	if len(c.stage) > 0 {
		snap = c.stage
		c.stage = make([]Event, 0, len(snap))
	}
	exhausted = c.open == 0
	c.mu.Unlock()
	if len(snap) > 0 {
		c.canPush.Broadcast()
	}
	return snap, exhausted
}

func (c *collector) stageStats() (pushBlocks int64, maxStage int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.pushBlocks, c.maxStage
}
