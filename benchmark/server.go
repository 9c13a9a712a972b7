package main

import (
	"encoding/binary"
	"fmt"
	"strconv"

	"qithread"
	"qithread/internal/ingress"
)

// The server driver: a deterministic sharded server written only against the
// public qithread API. It is the program under test of the server_record and
// replay workloads (and of the codec probes, which need a realistic schedule).
//
// The gateway domain (domain 0, Run's main thread) admits ingress events in
// batches of up to serverBatch and routes each by key over one XPipe per
// shard; every shard domain runs serverWorkers workers doing RecvUpTo →
// parse work → state mutex → state work. The program sees only event
// payloads: 16 bytes holding an event id and a key.

const (
	serverShards  = 2
	serverWorkers = 2
	serverBatch   = 16
	parseWork     = 4
	stateWork     = 2
	payloadLen    = 16
	// The traced run records about 1 span in eventSample calls at per-event
	// call sites (Push, trace sink Append) and 1 in batchSample at per-batch
	// ones (Admit, SendAll, RecvUpTo): timing every call would cost more than
	// the calls and hold millions of spans. Totals are scaled back up.
	eventSample = 64
	batchSample = 8
)

// sampler picks about 1 call in n, pseudo-randomly: a fixed stride would
// alias with periodic call patterns (a source blocks on every 8th push).
type sampler struct{ x uint64 }

func (s *sampler) hit(n uint64) bool {
	s.x = s.x*6364136223846793005 + 1442695040888963407
	return (s.x>>33)%n == 0
}

// serverInput is one run's input and recording/replay wiring.
type serverInput struct {
	// events is the number of events the run will see; it sizes the driver's
	// message table (ids are 0..events-1).
	events int
	// payloads, when non-nil, are pushed live by two free-running sources
	// (even indices by source 0, odd by source 1).
	payloads [][]byte
	// ingress, when non-nil, is re-fed through gateway replay instead of
	// live sources.
	ingress *qithread.IngressLog
	// sched, when non-nil, holds one recorded schedule per domain to enforce.
	sched [][]qithread.Event
	// traceSinks, when non-nil, receives each domain's schedule as it is
	// recorded (index = domain id); otherwise traces are retained in memory.
	traceSinks []qithread.TraceSink
	// ingressSink, when non-nil, receives recorded ingress batches.
	ingressSink qithread.IngressBatchSink
	// tr, when non-nil, records spans and push/done timestamps.
	tr *serverTrace
}

// serverTrace is the traced run's instrumentation of the driver's own call
// sites. All spans of one run hang under app.
type serverTrace struct {
	rec   *recorder
	trial int
	app   int // the app.run (or replay.run) span
	// pushT and doneT are indexed by event id (ns on the recorder's clock).
	pushT, doneT []int64
}

// serverResult is what one run of the driver observed.
type serverResult struct {
	output    uint64
	fp        qithread.Fingerprint
	admitHash uint64
	gw        qithread.GatewayStat
	scheds    []qithread.SchedulerStat
	vtime     int64
	traces    [][]qithread.Event // retained traces (nil entries when streamed)
	sendSlots int64              // SendAll calls that moved messages
}

// msg is what crosses an XPipe: a pointer into the run's message table, so
// boxing it into the pipe's `any` allocates nothing.
type msg struct {
	id, key uint64
}

func encodePayload(id, key uint64) []byte {
	b := make([]byte, payloadLen)
	binary.LittleEndian.PutUint64(b, id)
	binary.LittleEndian.PutUint64(b[8:], key)
	return b
}

// eventSeed derives an event's work seed from its payload. The worker that
// handles the event computes WorkSeeded(seed, parseWork) outside the state
// lock and WorkSeeded(seed+2, stateWork) inside it; the output checksum is
// the sum of both over all events, so it does not depend on which worker
// handled what, and genEvents can state it in closed form.
func eventSeed(id, key uint64) uint64 { return key*0x9e3779b97f4a7c15 + id }

func runServer(in serverInput) serverResult {
	cfg := qithread.Config{
		Mode:     qithread.RoundRobin,
		Policies: qithread.AllPolicies,
		Record:   true,
	}
	if in.traceSinks != nil {
		sinks := in.traceSinks
		cfg.StreamTrace = func(id int) qithread.TraceSink {
			if id < len(sinks) {
				return sinks[id]
			}
			return nil
		}
	}
	if in.sched != nil {
		cfg.Replay = in.sched[0]
	}
	tr := in.tr
	var rtNew int
	if tr != nil {
		rtNew = tr.rec.begin("runtime.new", tr.app, tr.trial)
	}
	rt := qithread.New(cfg)
	shards := make([]*qithread.Domain, serverShards)
	pipes := make([]*qithread.XPipe, serverShards)
	for k := range shards {
		shards[k] = rt.NewDomain("shard" + strconv.Itoa(k))
		if in.sched != nil {
			shards[k].SetReplay(in.sched[k+1])
		}
	}
	for k := range pipes {
		pipes[k] = rt.NewXPipe("route"+strconv.Itoa(k), rt.Domain(0), shards[k], serverBatch)
	}
	gw := rt.NewGateway("ingress", rt.Domain(0), qithread.GatewayConfig{
		StageCap: serverBatch,
		MaxBatch: serverBatch,
		Replay:   in.ingress,
		Sink:     in.ingressSink,
	})
	if tr != nil {
		tr.rec.end(rtNew)
	}
	if in.ingress == nil {
		for s := 0; s < 2; s++ {
			s := s
			gw.AddSource(ingress.FuncSource("feed"+strconv.Itoa(s), func(port *ingress.Port) {
				if tr == nil {
					for i := s; i < len(in.payloads); i += 2 {
						port.Push(in.payloads[i])
					}
					return
				}
				sm := sampler{x: uint64(s)}
				for i := s; i < len(in.payloads); i += 2 {
					t0 := tr.rec.now()
					tr.pushT[i] = t0
					port.Push(in.payloads[i])
					if sm.hit(eventSample) {
						tr.rec.add("ingress.push", tr.app, tr.trial, t0, tr.rec.now())
					}
				}
			}))
		}
	}

	msgs := make([]msg, in.events)
	totals := make([]uint64, serverShards)
	var sendSlots int64

	shardRoot := func(k int) func(*qithread.Thread) {
		return func(root *qithread.Thread) {
			state := rt.NewMutex(root, "state")
			var stateSum uint64
			parts := make([]uint64, serverWorkers)
			kids := make([]*qithread.Thread, serverWorkers)
			for i := range kids {
				i := i
				kids[i] = root.Create("worker"+strconv.Itoa(i), func(w *qithread.Thread) {
					buf := make([]any, serverBatch)
					var acc uint64
					sm := sampler{x: uint64(k*serverWorkers + i)}
					for {
						var n int
						var ok bool
						if tr == nil || !sm.hit(batchSample) {
							n, ok = pipes[k].RecvUpTo(w, buf)
						} else {
							t0 := tr.rec.now()
							n, ok = pipes[k].RecvUpTo(w, buf)
							tr.rec.add("domain.recv", tr.app, tr.trial, t0, tr.rec.now())
						}
						for j := 0; j < n; j++ {
							m := buf[j].(*msg)
							seed := eventSeed(m.id, m.key)
							acc += w.WorkSeeded(seed, parseWork)
							state.Lock(w)
							stateSum += w.WorkSeeded(seed+2, stateWork)
							state.Unlock(w)
							if tr != nil {
								tr.doneT[m.id] = tr.rec.now()
							}
						}
						if !ok {
							break
						}
					}
					parts[i] = acc
				})
			}
			for _, kid := range kids {
				root.Join(kid)
			}
			total := stateSum
			for _, p := range parts {
				total += p
			}
			totals[k] = total
		}
	}

	rt.Run(func(main *qithread.Thread) {
		for k := range shards {
			shards[k].Start("shard"+strconv.Itoa(k), shardRoot(k))
		}
		for k := range shards {
			shards[k].Launch()
		}
		buf := make([]qithread.IngressEvent, serverBatch)
		var out [serverShards][]any
		for k := range out {
			out[k] = make([]any, 0, serverBatch)
		}
		var admitSm, sendSm sampler
		sink, _ := in.ingressSink.(*timedBatchSink)
		for {
			var n int
			var ok bool
			if tr == nil || !admitSm.hit(batchSample) {
				n, ok = gw.Admit(main, buf)
			} else {
				id := tr.rec.begin("ingress.admit", tr.app, tr.trial)
				if sink != nil {
					sink.parent = id
				}
				n, ok = gw.Admit(main, buf)
				if sink != nil {
					sink.parent = 0
				}
				tr.rec.end(id)
			}
			for i := 0; i < n; i++ {
				d := buf[i].Data
				if len(d) != payloadLen {
					panic(fmt.Sprintf("benchmark: ingress payload of %d bytes, want %d", len(d), payloadLen))
				}
				id := binary.LittleEndian.Uint64(d)
				if id >= uint64(len(msgs)) {
					panic(fmt.Sprintf("benchmark: event id %d out of range (run sized for %d)", id, len(msgs)))
				}
				key := binary.LittleEndian.Uint64(d[8:])
				msgs[id] = msg{id: id, key: key}
				k := key % serverShards
				out[k] = append(out[k], &msgs[id])
			}
			for k := range out {
				if len(out[k]) == 0 {
					continue
				}
				if tr == nil || !sendSm.hit(batchSample) {
					pipes[k].SendAll(main, out[k])
				} else {
					t0 := tr.rec.now()
					pipes[k].SendAll(main, out[k])
					tr.rec.add("domain.send", tr.app, tr.trial, t0, tr.rec.now())
				}
				sendSlots++
				out[k] = out[k][:0]
			}
			if !ok {
				break
			}
		}
		for k := range pipes {
			pipes[k].Close(main)
		}
	})

	res := serverResult{
		fp:        rt.Fingerprint(),
		scheds:    rt.SchedulerStats(),
		vtime:     rt.VirtualMakespan(),
		sendSlots: sendSlots,
	}
	res.admitHash, _ = gw.Hashes()
	res.gw = rt.GatewayStats()[0]
	for _, t := range totals {
		res.output += t
	}
	if in.traceSinks == nil {
		res.traces = make([][]qithread.Event, rt.NumDomains())
		for d := range res.traces {
			res.traces[d] = rt.Domain(d).Trace()
		}
	}
	return res
}

// timedBatchSink decorates the ingress batch sink with an ingress.sink_append
// span under every sampled admit span: parent is the admit span open on the
// gateway thread (AppendBatch runs inside Admit, on that thread), 0 when the
// current admit is not sampled.
type timedBatchSink struct {
	inner  qithread.IngressBatchSink
	tr     *serverTrace
	parent int
}

func (s *timedBatchSink) AppendBatch(epoch int64, snap []ingress.Event) error {
	if s.parent == 0 {
		return s.inner.AppendBatch(epoch, snap)
	}
	t0 := s.tr.rec.now()
	err := s.inner.AppendBatch(epoch, snap)
	s.tr.rec.add("ingress.sink_append", s.parent, s.tr.trial, t0, s.tr.rec.now())
	return err
}

// timedTraceSink decorates one domain's trace sink, timing about 1 Append in
// eventSample.
type timedTraceSink struct {
	inner qithread.TraceSink
	tr    *serverTrace
	sm    sampler
}

func (s *timedTraceSink) Append(e qithread.Event) error {
	if !s.sm.hit(eventSample) {
		return s.inner.Append(e)
	}
	t0 := s.tr.rec.now()
	err := s.inner.Append(e)
	s.tr.rec.add("trace.sink_append", s.tr.app, s.tr.trial, t0, s.tr.rec.now())
	return err
}

// sumScheds folds every domain's scheduler counters into one.
func sumScheds(ss []qithread.SchedulerStat) (ops, turns, leaseExtends int64) {
	for _, s := range ss {
		ops += s.Ops
		turns += s.Turns
		leaseExtends += s.LeaseExtends
	}
	return
}
