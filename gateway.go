package qithread

import (
	"fmt"
	"io"

	"qithread/internal/core"
	"qithread/internal/ingress"
)

// IngressEvent is one external input event with its admission stamps; see
// internal/ingress.
type IngressEvent = ingress.Event

// IngressLog is a recorded sequence of admission snapshots — the complete
// external input of an ingress-driven run; see Gateway.Log.
type IngressLog = ingress.Log

// IngressStats aggregates a gateway's admission counters; see
// Gateway.IngressStats.
type IngressStats = ingress.Stats

// IngressSource is a free-running producer of external events; see
// Gateway.AddSource. The ingress package provides adapters (ListenerSource,
// FuncSource).
type IngressSource = ingress.Source

// IngressBatchSink is a streaming receiver of recorded ingress batches; see
// GatewayConfig.Sink. ingress.BinaryLogWriter implements it.
type IngressBatchSink = ingress.BatchSink

// LoadIngressLog reads a log IngressLog.SaveBinary or an
// ingress.BinaryLogWriter wrote; see internal/ingress.LoadLog.
func LoadIngressLog(r io.Reader) (*IngressLog, error) {
	return ingress.LoadLog(r)
}

// GatewayConfig configures a deterministic ingress gateway.
type GatewayConfig struct {
	// StageCap bounds the free-running staging buffer; producers block on a
	// full stage (backpressure toward the sources). Zero means 64.
	StageCap int
	// MaxBatch bounds the events delivered per admission slot. Zero means 16.
	MaxBatch int
	// QueueCap bounds the deterministic admission queue; collected events
	// that would overflow it are shed inside the turn, so the reject set is
	// replayable. Zero means 1024.
	QueueCap int
	// Replay, when non-nil, re-feeds a recorded ingress log instead of
	// collecting live events: each admission slot receives exactly the
	// snapshot recorded for its epoch, and live sources are ignored. This is
	// how an externally-driven run is reproduced offline.
	Replay *IngressLog
	// Sink, when non-nil, streams recorded batches out — through an
	// ingress.BinaryLogWriter — instead of retaining the whole IngressLog in
	// memory: the bounded-memory recording mode for million-event runs.
	// Gateway.Log returns nil; the admit/shed hashes are unaffected. A
	// replaying gateway records nothing: setting Sink with Replay panics.
	Sink IngressBatchSink
}

// Gateway is the deterministic external-I/O frontier of one domain: the
// admission point where nondeterministic outside events — connections,
// request bytes, timer firings — enter the deterministic order.
//
// The producer side is free-running: sources registered with AddSource push
// events into a bounded staging buffer in real time, outside any turn. The
// consumer side is deterministic: a gateway thread of the owning domain
// calls Admit in a loop, and each call is one turn-holding admission slot —
// an epoch boundary, the same boundary shape as a batched XPipe transfer —
// that snapshots the staged events, stamps them with (epoch, seq), logs the
// snapshot, applies the bounded-queue shedding policy, and returns the
// admitted batch. Downstream of admission the execution is a pure function
// of the ingress log: record the log, replay it with GatewayConfig.Replay,
// and the entire run (all domains, all deliveries, all shed decisions)
// reproduces byte-identical fingerprints.
//
// In Nondet mode the gateway machinery runs without turns: collection,
// logging and shedding still work (the log remains replayable), but the
// downstream schedule is whatever the Go scheduler produces.
type Gateway struct {
	object
	g   ingress.Gateway  // initialised in place: a gateway is this one record plus its queue
	rep ingress.Replayer // g's cursor into GatewayConfig.Replay; unused in live mode
}

// NewGateway creates a deterministic ingress gateway owned by the given
// domain. Only threads of that domain may Admit; like XPipes, gateways must
// be created deterministically, before the domain is launched or from a
// thread of that domain (it takes an object id from the domain's scheduler,
// which only that domain's threads may touch while it runs). One
// gateway thread should own the Admit loop — concurrent admitters of the
// same domain are legal under the turn but interleave their epochs in
// schedule order, which is rarely what a server wants.
func (rt *Runtime) NewGateway(name string, d *Domain, cfg GatewayConfig) *Gateway {
	if d == nil {
		panic("qithread: gateway domain must be non-nil")
	}
	if d.rt != rt {
		panic(fmt.Sprintf("qithread: gateway %q on %s, which belongs to another runtime", name, d))
	}
	gw := &Gateway{object: object{dom: d, name: name}}
	icfg := ingress.Config{
		StageCap: cfg.StageCap,
		MaxBatch: cfg.MaxBatch,
		QueueCap: cfg.QueueCap,
		Sink:     cfg.Sink,
		// Admission boundaries are a scheduling choice point: the domain's
		// chooser may shrink any multi-event batch, moving the epoch boundary
		// without changing event order.
		Chooser: d.chooser,
	}
	if cfg.Replay != nil {
		// The cursor NewReplayer builds is copied into the record; the
		// temporary never reaches the heap.
		gw.rep = *ingress.NewReplayer(cfg.Replay)
		icfg.Replay = &gw.rep
	}
	gw.g.Init(icfg)
	if d.sched != nil {
		// The object id comes from the domain's scheduler, like every other
		// synchronization object, so it is a pure function of the program's
		// deterministic creation order — replays of one recording in one
		// process must trace identical ids.
		gw.obj = d.sched.NewObjectKind("gateway:", name)
	}
	// Registration order is the checkpoint order: gateways are created
	// deterministically, so a resumed run rebuilds the same sequence.
	rt.domMu.Lock()
	rt.gateways = append(rt.gateways, gw)
	rt.domMu.Unlock()
	return gw
}

// NewGateway creates an ingress gateway owned by this domain; see
// Runtime.NewGateway.
func (d *Domain) NewGateway(name string, cfg GatewayConfig) *Gateway {
	return d.rt.NewGateway(name, d, cfg)
}

// Name returns the gateway's debugging name.
func (gw *Gateway) Name() string { return gw.name }

// Domain returns the domain whose threads admit through this gateway.
func (gw *Gateway) Domain() *Domain { return gw.dom }

// Epoch returns the number of admission slots taken so far. After a
// checkpoint restore it continues from the checkpoint's epoch counter.
func (gw *Gateway) Epoch() int64 { return gw.g.Epoch() }

// AddSource registers a free-running event source and starts it. Sources
// must be added in a deterministic order — registration order assigns the
// source id stamped on every event and recorded in the log. In replay mode
// live sources are ignored (the log already contains their events), so the
// same setup code serves recording and replaying.
func (gw *Gateway) AddSource(s IngressSource) {
	gw.g.AddSource(s)
}

// Admit takes one admission slot, storing up to min(len(dst), MaxBatch)
// admitted events into dst; see internal/ingress.Gateway.Admit for the full
// contract. The calling thread must belong to the gateway's domain; it holds
// that domain's turn for the whole slot — blocking in real time while no
// event is deliverable and sources remain open — so the slot occupies
// exactly one deterministic position in the domain schedule no matter how
// outside timing interleaves. It reports ok=false once ingress is exhausted
// (all sources closed or log replayed, every admitted event delivered).
func (gw *Gateway) Admit(t *Thread, dst []IngressEvent) (n int, ok bool) {
	s := gw.dom.enter(t, "ingress gateway", gw.name)
	if s == nil {
		return gw.g.Admit(dst)
	}
	s.GetTurn(t.ct())
	n, ok = gw.g.Admit(dst)
	s.TraceOp(t.ct(), core.OpIngressAdmit, gw.obj, core.StatusOK)
	t.release()
	return n, ok
}

// Log returns the gateway's ingress log: every admission snapshot so far in
// epoch order (in replay mode, the log being replayed). Save it with
// IngressLog.SaveBinary and replay it with GatewayConfig.Replay. Read it
// after the run finishes.
func (gw *Gateway) Log() *IngressLog { return gw.g.Log() }

// Hashes returns the running commitments to the admitted and shed event
// sets: O(1)-memory proof that two runs admitted and rejected exactly the
// same events. Replays of one log must return identical pairs.
func (gw *Gateway) Hashes() (admitted, shed uint64) { return gw.g.Hashes() }

// IngressStats returns the gateway's admission counters — epochs, collected
// / admitted / shed events, producer backpressure blocks, staging and queue
// high-water marks.
func (gw *Gateway) IngressStats() IngressStats { return gw.g.Stats() }
