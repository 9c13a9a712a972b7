package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"qithread"
	"qithread/internal/ingress"
	"qithread/internal/spin"
	"qithread/internal/trace"
)

// Trial sizes at size 1.
const (
	recordEvents = 250_000 // server_record: events per trial
	replayEvents = 200_000 // replay: ingress events in the recorded run
)

// genEvents derives n event payloads from rng, and the output checksum a
// correct run over them must produce (Thread.WorkSeeded returns spin.Work of
// its arguments).
func genEvents(rng *rand.Rand, n int) (payloads [][]byte, want uint64) {
	payloads = make([][]byte, n)
	for i := range payloads {
		key := rng.Uint64()
		payloads[i] = encodePayload(uint64(i), key)
		seed := eventSeed(uint64(i), key)
		want += spin.Work(seed, parseWork) + spin.Work(seed+2, stateWork)
	}
	return payloads, want
}

// recordFiles is the set of files one recording run streams into.
type recordFiles struct {
	files  []*os.File
	traces []*trace.BinaryWriter
	ilog   *ingress.BinaryLogWriter
}

func schedPath(dir string, d int) string {
	return filepath.Join(dir, "domain"+strconv.Itoa(d)+".qsched")
}
func ingressPath(dir string) string { return filepath.Join(dir, "ingress.qlog") }

// openRecordFiles creates one binary schedule file per domain and, when
// withIngress is set, the binary ingress log.
func openRecordFiles(dir string, withIngress bool) (*recordFiles, error) {
	rf := &recordFiles{}
	// The log writers buffer internally (logio.FrameWriter), so they write
	// straight to the files.
	create := func(path string) (*os.File, error) {
		f, err := os.Create(path)
		if err != nil {
			return nil, err
		}
		rf.files = append(rf.files, f)
		return f, nil
	}
	for d := 0; d <= serverShards; d++ {
		w, err := create(schedPath(dir, d))
		if err != nil {
			rf.abort()
			return nil, err
		}
		tw, err := trace.NewBinaryWriter(w)
		if err != nil {
			rf.abort()
			return nil, err
		}
		rf.traces = append(rf.traces, tw)
	}
	if withIngress {
		w, err := create(ingressPath(dir))
		if err != nil {
			rf.abort()
			return nil, err
		}
		if rf.ilog, err = ingress.NewBinaryLogWriter(w); err != nil {
			rf.abort()
			return nil, err
		}
	}
	return rf, nil
}

func (rf *recordFiles) abort() {
	for _, f := range rf.files {
		f.Close()
	}
}

func (rf *recordFiles) traceSinks() []qithread.TraceSink {
	out := make([]qithread.TraceSink, len(rf.traces))
	for i, t := range rf.traces {
		out[i] = t
	}
	return out
}

// finish terminates every log and closes the files.
func (rf *recordFiles) finish() error {
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	for _, t := range rf.traces {
		keep(t.Close())
	}
	if rf.ilog != nil {
		keep(rf.ilog.Close())
	}
	for _, f := range rf.files {
		keep(f.Close())
	}
	return first
}

// loadSchedules reads back the per-domain schedule files.
func loadSchedules(dir string) ([][]qithread.Event, error) {
	out := make([][]qithread.Event, serverShards+1)
	for d := range out {
		f, err := os.Open(schedPath(dir, d))
		if err != nil {
			return nil, err
		}
		out[d], err = trace.Load(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("load %s: %w", schedPath(dir, d), err)
		}
	}
	return out, nil
}

func loadIngress(dir string) (*qithread.IngressLog, error) {
	f, err := os.Open(ingressPath(dir))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return qithread.LoadIngressLog(f)
}

// checkSchedules verifies that each streamed schedule hashes to the run's
// fingerprint and returns the number of events across all domains.
func checkSchedules(scheds [][]qithread.Event, fp qithread.Fingerprint) (int64, error) {
	var n int64
	for d, s := range scheds {
		if h := trace.Hash(s); h != fp.DomainHashes[d] {
			return 0, fmt.Errorf("domain %d: streamed schedule hashes to %016x, fingerprint says %016x", d, h, fp.DomainHashes[d])
		}
		n += int64(len(s))
	}
	return n, nil
}

// serverCounts folds a server run's counters into the trial counts.
func serverCounts(c *counts, res serverResult, events int64) {
	ops, turns, ext := sumScheds(res.scheds)
	c.vtime += res.vtime
	c.syncOps += ops
	c.turns += turns
	c.leaseExtends += ext
	// Handoffs are only readable from outside for domain 0, so multi-domain
	// workloads report the non-leased turns, an upper bound on handoffs.
	c.handoffs += turns - ext
	c.runtimes++
	c.domains += 1 + serverShards
	c.threads += 1 + serverShards*(1+serverWorkers)
	c.epochs += res.gw.Epoch
	c.collected += res.gw.Collected
	c.pushBlocks += res.gw.PushBlocks
	if int64(res.gw.MaxStage) > c.maxStage {
		c.maxStage = int64(res.gw.MaxStage)
	}
	c.sendSlots += res.sendSlots
	c.msgs += events
}

// serverRecord is a live deterministic server recording itself: two
// free-running sources push as fast as stage backpressure allows (closed
// loop, two clients), every domain streams its schedule into a binary
// schedule file and the gateway streams its batches into a binary ingress
// log. One op is one event pushed, admitted, processed and recorded.
//
// Ingress, the domain boundary and the log sinks (writes) carry the load, and
// per-domain turns are mostly solo or leased: the counterpart of catalog for
// the turn mechanism.
type serverRecord struct {
	dir      string
	payloads [][]byte
	want     uint64
	// lat collects push-to-done latencies (µs) of the traced trials.
	lat []float64
}

func (w *serverRecord) name() string { return "server_record" }

func (w *serverRecord) setup(seed uint64, size float64) error {
	dir, err := os.MkdirTemp(tmpRoot, "server_record-")
	if err != nil {
		return err
	}
	w.dir = dir
	w.payloads, w.want = genEvents(rand.New(rand.NewSource(int64(seed))), scaled(recordEvents, size))
	return nil
}

func (w *serverRecord) close() {
	if w.dir != "" {
		os.RemoveAll(w.dir)
		w.dir = ""
	}
}

func (w *serverRecord) trial(tc trialCtx) (counts, time.Duration, error) {
	n := int64(len(w.payloads))
	c := counts{ops: n}
	rf, err := openRecordFiles(w.dir, true)
	if err != nil {
		return c, 0, err
	}
	in := serverInput{events: len(w.payloads), payloads: w.payloads, traceSinks: rf.traceSinks(), ingressSink: rf.ilog}
	start := time.Now()
	if tc.rec != nil {
		tr := &serverTrace{rec: tc.rec, trial: tc.id,
			pushT: make([]int64, n), doneT: make([]int64, n)}
		tr.app = tc.rec.begin("app.run", tc.span, tc.id)
		for d, s := range in.traceSinks {
			in.traceSinks[d] = &timedTraceSink{inner: s, tr: tr}
		}
		in.ingressSink = &timedBatchSink{inner: rf.ilog, tr: tr}
		in.tr = tr
	}
	res := runServer(in)
	err = rf.finish()
	wall := time.Since(start)
	if in.tr != nil {
		tc.rec.end(in.tr.app)
		for i, t := range in.tr.doneT {
			w.lat = append(w.lat, float64(t-in.tr.pushT[i])/1e3)
		}
	}
	if err != nil {
		return c, wall, err
	}
	serverCounts(&c, res, n)
	switch {
	case res.gw.Collected != n || res.gw.Admitted != n || res.gw.Shed != 0:
		return c, wall, fmt.Errorf("pushed %d events, gateway collected %d admitted %d shed %d", n, res.gw.Collected, res.gw.Admitted, res.gw.Shed)
	case res.output != w.want:
		return c, wall, fmt.Errorf("output checksum %#x, closed form %#x", res.output, w.want)
	}
	scheds, err := loadSchedules(w.dir)
	if err != nil {
		return c, wall, err
	}
	if c.traceEvents, err = checkSchedules(scheds, res.fp); err != nil {
		return c, wall, err
	}
	return c, wall, nil
}

// replayWorkload runs the same layers the other way round: each trial loads
// the binary schedule files and the binary ingress log of a recorded run and
// re-executes the driver under per-domain schedule replay and gateway
// replay. One op is one recorded schedule event re-executed, load included.
//
// The log decoders, the ingress replayer and the structural-replay turn path
// are the only places this work happens; a replaying run never leases, so
// every turn takes the slow path.
type replayWorkload struct {
	dir       string
	events    int
	want      uint64
	fp        qithread.Fingerprint
	admitHash uint64
	recorded  int64 // schedule events in the recording
}

func (w *replayWorkload) name() string { return "replay" }

// cutLog cuts payloads into batches on consecutive epochs, each of the size
// next returns.
func cutLog(payloads [][]byte, next func() int) *qithread.IngressLog {
	l := &qithread.IngressLog{}
	epoch := int64(0)
	for i := 0; i < len(payloads); {
		n := next()
		if i+n > len(payloads) {
			n = len(payloads) - i
		}
		evs := make([]ingress.Event, n)
		for j := range evs {
			evs[j] = ingress.Event{Source: (i + j) % 2, Data: payloads[i+j]}
		}
		epoch++
		l.Batches = append(l.Batches, ingress.Batch{Epoch: epoch, Events: evs})
		i += n
	}
	return l
}

// syntheticLog cuts payloads into batches whose sizes (1..serverBatch) come
// from rng.
func syntheticLog(rng *rand.Rand, payloads [][]byte) *qithread.IngressLog {
	return cutLog(payloads, func() int { return 1 + rng.Intn(serverBatch) })
}

func (w *replayWorkload) setup(seed uint64, size float64) error {
	dir, err := os.MkdirTemp(tmpRoot, "replay-")
	if err != nil {
		return err
	}
	*w = replayWorkload{dir: dir}
	rng := rand.New(rand.NewSource(int64(seed)))
	payloads, want := genEvents(rng, scaled(replayEvents, size))
	w.events, w.want = len(payloads), want
	log := syntheticLog(rng, payloads)

	// Record: the driver runs once against the synthetic log, streaming its
	// schedules; the log itself is saved in the binary format.
	rf, err := openRecordFiles(dir, false)
	if err != nil {
		return err
	}
	res := runServer(serverInput{events: w.events, ingress: log, traceSinks: rf.traceSinks()})
	if err := rf.finish(); err != nil {
		return err
	}
	f, err := os.Create(ingressPath(dir))
	if err != nil {
		return err
	}
	if err := log.SaveBinary(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if res.output != want {
		return fmt.Errorf("recording run: output checksum %#x, closed form %#x", res.output, want)
	}
	w.fp, w.admitHash = res.fp, res.admitHash
	scheds, err := loadSchedules(dir)
	if err != nil {
		return err
	}
	w.recorded, err = checkSchedules(scheds, res.fp)
	return err
}

func (w *replayWorkload) close() {
	if w.dir != "" {
		os.RemoveAll(w.dir)
		w.dir = ""
	}
}

func (w *replayWorkload) trial(tc trialCtx) (counts, time.Duration, error) {
	c := counts{ops: w.recorded, traceEvents: w.recorded}
	rec := tc.rec
	start := time.Now()
	sp := rec.begin("trace.load", tc.span, tc.id)
	scheds, err := loadSchedules(w.dir)
	rec.end(sp)
	if err != nil {
		return c, time.Since(start), err
	}
	sp = rec.begin("ingress.log_load", tc.span, tc.id)
	log, err := loadIngress(w.dir)
	rec.end(sp)
	if err != nil {
		return c, time.Since(start), err
	}
	in := serverInput{events: w.events, ingress: log, sched: scheds}
	if rec != nil {
		in.tr = &serverTrace{rec: rec, trial: tc.id, doneT: make([]int64, w.events)}
		in.tr.app = rec.begin("replay.run", tc.span, tc.id)
	}
	res := runServer(in)
	if rec != nil {
		rec.end(in.tr.app)
	}
	wall := time.Since(start)
	serverCounts(&c, res, int64(w.events))
	switch {
	case !res.fp.Equal(w.fp):
		return c, wall, fmt.Errorf("replay fingerprint [%s], recorded [%s]", res.fp, w.fp)
	case res.output != w.want:
		return c, wall, fmt.Errorf("replay output %#x, recorded %#x", res.output, w.want)
	case res.admitHash != w.admitHash:
		return c, wall, fmt.Errorf("replay admit hash %#x, recorded %#x", res.admitHash, w.admitHash)
	}
	return c, wall, nil
}
