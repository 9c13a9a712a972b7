package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"qithread/internal/core"
	"qithread/internal/stats"
)

// The traced run. Every workload repeats at tracedTrials trials with the span
// recorder on — the ledger rows that are shares or counts of one particular
// workload come from that workload's traced run — then the probes run. The
// selected workload also runs tracedTrials untraced trials in the same
// process: the difference is the tracing overhead, and its wall time is what
// the ledger's explained share is measured against. End-to-end metrics never
// come from here.

// tracedRun is one workload's traced trials.
type tracedRun struct {
	w     workload
	stats runStats
	spans []span
	tot   spanTotals
}

// traceWorkload sets the workload up and runs its traced trials; with
// untracedToo it first runs the same number of untraced trials.
func traceWorkload(name string, p plan, untracedToo bool) (*tracedRun, *runStats, error) {
	w := newWorkload(name)
	if _, err := setUp(w, p); err != nil {
		w.close()
		return nil, nil, err
	}
	var plain *runStats
	if untracedToo {
		plain = &runStats{workload: name}
		plain.timeTrials(w, p.tracedTrials, 0, 0, nil)
	}
	rec := newRecorder()
	tr := &tracedRun{w: w, stats: runStats{workload: name}}
	tr.stats.timeTrials(w, p.tracedTrials, 0, 0, rec)
	tr.spans = rec.snapshot()
	if err := checkSpans(tr.spans); err != nil {
		w.close()
		return nil, nil, fmt.Errorf("%s: span tree: %w", name, err)
	}
	tr.tot = totals(tr.spans)
	return tr, plain, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// probeSet holds every probe's unit cost; the ledger reuses them.
type probeSet struct {
	lockNondet, lockRR, lockAll    float64
	turnLeased, turnUnleased       float64
	handoff4, handoff64, chooser4  float64
	waitSignal, traceOp, replayEvt float64
	condPingPong, pipeMsg          float64
	createJoinUS                   float64
	xpipe1, xpipe16                float64
	admit1, admit16, push          float64
	logAppend, logLoadMev          float64
	codec                          codecCosts
	ckpt                           ckptCosts
	newRunUS, newRunAllocs         float64
	cellE64US, allocsPerEntity     float64
	cellRaceUS                     float64
	explore                        exploreCosts
}

func runProbes() (*probeSet, error) {
	p := &probeSet{}
	var err error
	p.lockNondet = probeLockUnlock(cfgNondet)
	p.lockRR = probeLockUnlock(cfgRR)
	p.lockAll = probeLockUnlock(cfgAll)
	p.condPingPong = probeCondPingPong()
	p.pipeMsg = probePipeMsg()
	p.createJoinUS = probeCreateJoin()
	p.turnLeased = probeTurn(core.Config{}, false)
	p.turnUnleased = probeTurn(core.Config{NoLease: true}, false)
	p.traceOp = probeTurn(core.Config{Record: true, Sink: discardSink{}}, true) - probeTurn(core.Config{}, true)
	p.handoff4 = probeHandoff(4, false)
	p.handoff64 = probeHandoff(64, false)
	p.chooser4 = probeHandoff(4, true)
	p.waitSignal = probeWaitSignal()
	if p.replayEvt, err = probeReplayEvent(); err != nil {
		return nil, fmt.Errorf("probe core.replay_event_ns: %w", err)
	}
	p.xpipe1 = probeXPipeMsg(1)
	p.xpipe16 = probeXPipeMsg(16)
	if p.admit1, err = probeAdmit(1); err != nil {
		return nil, fmt.Errorf("probe ingress.admit_event_ns_b1: %w", err)
	}
	if p.admit16, err = probeAdmit(16); err != nil {
		return nil, fmt.Errorf("probe ingress.admit_event_ns_b16: %w", err)
	}
	p.push = probePush()
	if p.logAppend, p.logLoadMev, err = probeIngressLog(); err != nil {
		return nil, fmt.Errorf("probe ingress log: %w", err)
	}
	if p.codec, err = probeCodec(); err != nil {
		return nil, fmt.Errorf("probe trace codec: %w", err)
	}
	if p.ckpt, err = probeCkpt(); err != nil {
		return nil, fmt.Errorf("probe ckpt: %w", err)
	}
	p.newRunUS, p.newRunAllocs = probeNewRun()
	if p.cellE64US, p.allocsPerEntity, p.cellRaceUS, err = probeControlPlane(); err != nil {
		return nil, fmt.Errorf("probe controlplane: %w", err)
	}
	if p.explore, err = probeExplore(); err != nil {
		return nil, fmt.Errorf("probe explore: %w", err)
	}
	return p, nil
}

func (p *probeSet) emit(m *metricSet) {
	m.emit("wrappers.lock_unlock_nondet_ns", p.lockNondet)
	m.emit("wrappers.lock_unlock_rr_ns", p.lockRR)
	m.emit("wrappers.cond_pingpong_ns", p.condPingPong)
	m.emit("wrappers.pipe_msg_ns", p.pipeMsg)
	m.emit("wrappers.create_join_us", p.createJoinUS)
	m.emit("policy.dispatch_ns", p.lockAll-p.lockRR)
	m.emit("core.turn_leased_ns", p.turnLeased)
	m.emit("core.turn_unleased_ns", p.turnUnleased)
	m.emit("core.handoff_ns_t4", p.handoff4)
	m.emit("core.handoff_ns_t64", p.handoff64)
	m.emit("core.wait_signal_ns", p.waitSignal)
	m.emit("core.traceop_ns", p.traceOp)
	m.emit("core.replay_event_ns", p.replayEvt)
	m.emit("core.chooser_turn_ns", p.chooser4)
	m.emit("domain.xpipe_msg_ns_b1", p.xpipe1)
	m.emit("domain.xpipe_msg_ns_b16", p.xpipe16)
	m.emit("ingress.admit_event_ns_b1", p.admit1)
	m.emit("ingress.admit_event_ns_b16", p.admit16)
	m.emit("ingress.push_ns", p.push)
	m.emit("ingress.log_append_event_ns", p.logAppend)
	m.emit("ingress.log_load_mev_s", p.logLoadMev)
	m.emit("trace.sink_append_ns", p.codec.sinkAppendNS)
	m.emit("trace.save_binary_mev_s", p.codec.saveBinaryMev)
	m.emit("trace.load_binary_mev_s", p.codec.loadBinaryMev)
	m.emit("trace.load_text_mev_s", p.codec.loadTextMev)
	m.emit("trace.bytes_per_event", p.codec.bytesPerEvent)
	m.emit("ckpt.checkpoint_us", p.ckpt.checkpointUS)
	m.emit("ckpt.resume_us", p.ckpt.resumeUS)
	m.emit("ckpt.bytes", p.ckpt.bytes)
	m.emit("explore.persist_overhead_x", p.explore.persistOverheadX)
	m.emit("explore.first_bug_run", p.explore.firstBugRun)
	m.emit("explore.hb_pruned_share", p.explore.hbPrunedShare)
	m.emit("controlplane.cell_us_e64", p.cellE64US)
	m.emit("controlplane.allocs_per_entity", p.allocsPerEntity)
	m.emit("controlplane.cell_us_race", p.cellRaceUS)
	m.emit("runtime.new_run_us", p.newRunUS)
	m.emit("runtime.new_run_allocs", p.newRunAllocs)
}

// emitCatalog emits the rows that come from catalog's traced run.
func emitCatalog(m *metricSet, tr *tracedRun) {
	c := tr.stats.total
	m.emit("policy.lease_extends_per_op", ratio(float64(c.policyLeaseExtends), float64(c.ops)))
	m.emit("policy.decisions_per_op", ratio(float64(c.policyDecisions), float64(c.ops)))
	m.emit("policy.norm_makespan", tr.w.(*catalogWorkload).normMakespan())
}

// emitServer emits the rows that come from server_record's traced run. The
// sampled call sites' totals are scaled back up by their sampling rate.
func emitServer(m *metricSet, tr *tracedRun, p *probeSet) {
	c, t := tr.stats.total, tr.tot
	app := float64(t.dur["app.run"])
	m.emit("domain.send_busy_share", ratio(float64(t.dur["domain.send"])*batchSample, app))
	m.emit("domain.recv_wait_share", ratio(float64(t.dur["domain.recv"])*batchSample, app*serverShards*serverWorkers))
	m.emit("domain.msgs_per_slot", ratio(float64(c.msgs), float64(c.sendSlots)))
	m.emit("ingress.admit_busy_share", ratio(float64(t.dur["ingress.admit"])*batchSample, app))
	// Time the two sources sat blocked in Push: time inside Push beyond what
	// the same number of never-blocking pushes costs.
	blocked := float64(t.dur["ingress.push"])*eventSample - float64(c.collected)*p.push
	if blocked < 0 {
		blocked = 0
	}
	m.emit("ingress.push_block_share", ratio(blocked, app*2))
	m.emit("ingress.events_per_epoch", ratio(float64(c.collected), float64(c.epochs)))
	m.emit("ingress.max_stage", float64(c.maxStage))
	lat := tr.w.(*serverRecord).lat
	m.emit("ingress.push_to_done_us_p50", quantile(lat, 0.50))
	m.emit("ingress.push_to_done_us_p99", quantile(lat, 0.99))
	m.emit("trace.sink_busy_share", ratio(float64(t.dur["trace.sink_append"])*eventSample, app*(serverShards+1)))
}

func emitReplay(m *metricSet, tr *tracedRun) {
	t := tr.tot
	m.emit("trace.load_share", ratio(float64(t.dur["trace.load"]+t.dur["ingress.log_load"]), float64(t.dur["trial"])))
}

func emitExplore(m *metricSet, tr *tracedRun) {
	c, t := tr.stats.total, tr.tot
	w := tr.w.(*exploreWorkload)
	m.emit("explore.run_us", ratio(float64(t.dur["explore.run"])/1e3, float64(t.count["explore.run"])))
	m.emit("explore.engine_share", 1-ratio(float64(t.dur["explore.run"]), float64(w.workers)*float64(t.dur["explore.session"])))
	m.emit("explore.minimize_ms", float64(w.minimizeWall)/1e6)
	m.emit("explore.minimize_runs", float64(w.minimizeRuns))
	m.emit("explore.distinct_share", ratio(float64(c.distinct), float64(c.ops)))
	m.emit("explore.failures_per_krun", 1000*ratio(float64(c.failures), float64(c.ops)))
}

// handoffAt interpolates the cost of one turn handoff at n threads per
// scheduler domain between the 4- and 64-thread probes, on a log scale: a
// handoff costs more the more threads take part, because the grantee has
// been parked for longer.
func (p *probeSet) handoffAt(n float64) float64 {
	switch {
	case n <= 4:
		return p.handoff4
	case n >= 64:
		return p.handoff64
	}
	f := math.Log(n/4) / math.Log(16)
	return p.handoff4 * math.Pow(p.handoff64/p.handoff4, f)
}

// explained is the ledger: Σ (layer call count × probe unit cost) over the
// selected workload's untraced trials, as a share of their wall time. A
// workload with at least as many busy lanes as the host has processors can
// overlap at most that many of them, so the sum is divided by the lanes in
// use. The model is deliberately coarse — counts the benchmark can read from
// outside, times unit costs measured alone; program compute and time parked
// in waits are not in it — and closing its gap is the job of a later change
// that traces inside the program.
func explained(rs *runStats, p *probeSet) float64 {
	c := rs.total
	lanes := 1.0
	handoff := p.handoffAt(ratio(float64(c.threads), float64(c.domains)))
	turns := float64(c.leaseExtends)*p.turnLeased + float64(c.handoffs)*handoff
	if c.handoffsExact {
		turns += float64(c.turns-c.leaseExtends-c.handoffs) * p.turnUnleased
	}
	// What a wrapper adds to its turn, and the policy stack to the wrapper.
	wrapper := math.Max(0, (p.lockRR-2*p.turnLeased)/2)
	dispatch := (p.lockAll - p.lockRR) / 2
	construction := float64(c.runtimes)*p.newRunUS*1e3 + float64(c.threads-c.runtimes)*p.createJoinUS*1e3
	ns := construction + turns + float64(c.syncOps)*(wrapper+dispatch)
	switch rs.workload {
	case "server_record":
		lanes = float64(loadGoroutines())
		ns += float64(c.msgs)*(p.push+p.admit16+p.logAppend+p.xpipe16) +
			float64(c.traceEvents)*(p.traceOp+p.codec.sinkAppendNS)
	case "replay":
		lanes = float64(loadGoroutines())
		// A replaying run never leases: every turn is one replayed event.
		ns = construction + float64(c.traceEvents)*(p.replayEvt+1e3/p.codec.loadBinaryMev) +
			float64(c.msgs)*(p.admit16+p.xpipe16+1e3/p.logLoadMev)
	case "explore":
		lanes = float64(loadGoroutines())
		// One explored run is one plain execution of the scenario plus the
		// chooser's cost on its multi-candidate turns.
		ns = float64(c.runtimes)*p.cellRaceUS*1e3 + float64(c.handoffs)*(p.chooser4-p.handoff4)
	}
	return ratio(ns, float64(rs.wall)*lanes)
}

// ledger is the outcome of one traced run.
type ledger struct {
	metrics   *metricSet
	runs      map[string]*tracedRun
	selected  *tracedRun // the workload the per-workload rows describe
	plain     *runStats  // its untraced trials
	explained float64
	attempted int64
	failed    int64
	errs      []string
	probeWall time.Duration
}

func (l *ledger) close() {
	for _, tr := range l.runs {
		tr.w.close()
	}
}

// traceAll runs the traced run: every workload's traced trials, the probes,
// and the per-layer metrics with the per-workload rows taken from name.
func traceAll(name string, p plan) (*ledger, error) {
	l := &ledger{metrics: newMetricSet(perLayer), runs: map[string]*tracedRun{}}
	for _, def := range workloadDefs {
		tr, plain, err := traceWorkload(def.Name, p, def.Name == name)
		if err != nil {
			l.close()
			return nil, err
		}
		l.runs[def.Name] = tr
		l.attempted += tr.stats.total.ops
		l.failed += tr.stats.total.failed
		for _, e := range tr.stats.errs {
			l.errs = append(l.errs, def.Name+": "+e)
		}
		if def.Name == name {
			l.selected, l.plain = tr, plain
			l.failed += plain.total.failed
			for _, e := range plain.errs {
				l.errs = append(l.errs, def.Name+" (untraced): "+e)
			}
		}
		// Each workload starts from a collected heap, as it does in a
		// process of its own.
		runtime.GC()
	}
	t0 := time.Now()
	pr, err := runProbes()
	if err != nil {
		l.close()
		return nil, err
	}
	l.probeWall = time.Since(t0)

	m := l.metrics
	pr.emit(m)
	emitCatalog(m, l.runs["catalog"])
	emitServer(m, l.runs["server_record"], pr)
	emitReplay(m, l.runs["replay"])
	emitExplore(m, l.runs["explore"])

	c, plain := l.selected.stats.total, l.plain
	m.emit("core.turns_per_op", ratio(float64(c.turns), float64(c.ops)))
	m.emit("core.lease_extend_share", ratio(float64(c.leaseExtends), float64(c.turns)))
	m.emit("core.handoff_share", ratio(float64(c.handoffs), float64(c.turns)))
	m.emit("runtime.cpu_us_per_op", plain.perOpOf(float64(plain.cpu)/1e3))
	m.emit("runtime.peak_heap_mb", float64(l.selected.stats.peakHeap)/(1<<20))
	m.emit("runtime.gc_cpu_share", ratio(plain.gcCPU, plain.cpu.Seconds()))
	m.emit("runtime.tracing_overhead_share",
		ratio(float64(stats.Median(l.selected.stats.walls)-stats.Median(plain.walls)), float64(stats.Median(plain.walls))))
	l.explained = explained(plain, pr)
	m.emit("ledger.explained_share", l.explained)
	return l, nil
}

// runTraced is the driver's traced invocation: it prints the per-layer
// ledger, with the per-workload rows taken from the named workload.
func runTraced(name string, p plan, out string) bool {
	printHeader(name+" (traced)", p)
	l, err := traceAll(name, p)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return false
	}
	defer l.close()
	for _, def := range workloadDefs {
		tr := l.runs[def.Name]
		fmt.Printf("  traced %-14s %2d trials, %7d spans, %6.2fs\n", def.Name, tr.stats.trials, len(tr.spans), tr.stats.wall.Seconds())
	}
	fmt.Printf("  probes %.2fs\n", l.probeWall.Seconds())
	printMetrics(l.metrics)
	if l.explained < 0.7 || l.explained > 1.3 {
		fmt.Printf("  WARN ledger.explained_share %.2f on %s is outside 0.7–1.3: the probes do not add up to the measured wall\n", l.explained, name)
	}
	printSelfTimes(l.selected)
	for _, e := range l.errs {
		fmt.Printf("  CHECK FAILED: %s\n", e)
	}
	ok := l.failed == 0 && len(l.errs) == 0
	if missing := l.metrics.missing(); len(missing) > 0 {
		fmt.Fprintln(os.Stderr, "benchmark: per-layer metrics not emitted:", missing)
		ok = false
	}
	if out != "" {
		spans := map[string][]span{}
		for n, tr := range l.runs {
			spans[n] = tr.spans
		}
		if err := writeAllSpans(out, spans); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			ok = false
		}
	}
	result{Correct: ok, Attempted: l.attempted, Failed: l.failed, Metrics: l.metrics.values}.print()
	return ok
}

// printSelfTimes prints the selected workload's span totals: count, total
// duration and self time per span name.
func printSelfTimes(tr *tracedRun) {
	fmt.Printf("  spans of %s (count, total ms, self ms):\n", tr.w.name())
	for _, name := range spanNames {
		if n := tr.tot.count[name]; n > 0 {
			fmt.Printf("    %-20s %9d %12.2f %12.2f\n", name, n, float64(tr.tot.dur[name])/1e6, float64(tr.tot.self[name])/1e6)
		}
	}
}

// spanNames lists every span the benchmark records, outermost first.
var spanNames = []string{
	"trial", "program", "runtime.new", "app.run", "replay.run",
	"ingress.push", "ingress.admit", "ingress.sink_append", "domain.send", "domain.recv",
	"trace.sink_append", "trace.load", "ingress.log_load", "explore.session", "explore.run",
}

func writeAllSpans(path string, spans map[string][]span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(spans); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
