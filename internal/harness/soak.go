package harness

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"qithread"
	"qithread/internal/ingress"
	"qithread/internal/trace"
	"qithread/internal/workload"
)

// runSoak is experiment E19: a million-event streaming record. The ingress
// server runs live with BOTH streaming sinks attached — the schedule goes to
// a binary schedule writer, the ingress log to a binary batch writer, each on
// its own file — plus periodic epoch checkpoints, while a sampler watches the
// heap to show recording memory stays flat. Afterwards the streamed schedule
// is loaded back (its hash must equal the run's fingerprint), re-encoded as
// text to measure the size and load-time ratios, and the streamed ingress log
// is replayed in streaming mode to the recorded observables. The one row is
// printed once that replay gate has passed.
func runSoak(e *Experiment, w io.Writer, _ *Runner, a Args) (*Table, error) {
	dir, err := os.MkdirTemp("", "qisoak")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	// The deferred closes are for the error returns; the recording path checks
	// its own Close calls below.
	schedPath := filepath.Join(dir, "sched.qbin")
	schedF, err := os.Create(schedPath)
	if err != nil {
		return nil, err
	}
	defer schedF.Close()
	sw, err := trace.NewBinaryWriter(schedF)
	if err != nil {
		return nil, err
	}
	logPath := filepath.Join(dir, "ingress.qlog")
	logF, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logF.Close()
	blw, err := ingress.NewBinaryLogWriter(logF)
	if err != nil {
		return nil, err
	}

	wcfg := workload.IngressServerConfig{
		Sources: 4, Events: a.SoakEvents, Workers: 3,
		MaxBatch: 64, ParseWork: 4, StateWork: 2,
		CheckpointEvery: 64,
		Sink:            blw,
	}
	p := workload.Params{Scale: 1, InputSeed: 42}
	rtcfg := QiThread().Cfg
	rtcfg.StreamTrace = func(domainID int) qithread.TraceSink {
		if domainID != 0 {
			return nil
		}
		return sw
	}

	// Heap sampler: HeapAlloc every 25ms while the soak runs. A retained-mode
	// recording of the same run grows without bound; streaming must not.
	var (
		samples []uint64
		stop    = make(chan struct{})
		done    sync.WaitGroup
	)
	done.Add(1)
	go func() {
		defer done.Done()
		tick := time.NewTicker(25 * time.Millisecond)
		defer tick.Stop()
		var ms runtime.MemStats
		for {
			runtime.ReadMemStats(&ms)
			samples = append(samples, ms.HeapAlloc)
			select {
			case <-tick.C:
			case <-stop:
				return
			}
		}
	}()
	run := workload.RunIngressServer(wcfg, p, rtcfg, nil)
	close(stop)
	done.Wait()
	for _, c := range []io.Closer{sw, schedF, blw, logF} {
		if err := c.Close(); err != nil {
			return nil, err
		}
	}

	// Load the streamed schedule back and check it commits to the run. This
	// untimed load doubles as warm-up for the timed ones below: it also
	// produces the text re-encoding, so both timed loads run with the same
	// live heap — otherwise whichever format loads first pays the whole GC
	// ramp from a small heap to a hundred-megabyte one and the ratio measures
	// allocator pacing, not decoding.
	bin, err := os.ReadFile(schedPath)
	if err != nil {
		return nil, err
	}
	binBytes := int64(len(bin))
	events, err := trace.Load(bytes.NewReader(bin))
	if err != nil {
		return nil, err
	}
	if h := trace.Hash(events); h != run.Fingerprint.DomainHashes[0] {
		return nil, fmt.Errorf("streamed schedule hashes to %016x, fingerprint says %016x", h, run.Fingerprint.DomainHashes[0])
	}
	ckptEpoch, ckptBytes := any("-"), any("-")
	if n := len(run.Checkpoints); n > 0 {
		var buf bytes.Buffer
		if err := qithread.SaveCheckpoint(&buf, run.Checkpoints[n-1]); err != nil {
			return nil, err
		}
		ckptEpoch, ckptBytes = run.Checkpoints[n-1].Epoch(), buf.Len()
	}
	first, peak, last := samples[0], samples[0], samples[len(samples)-1]
	for _, s := range samples {
		peak = max(peak, s)
	}

	// Time both formats.
	var text bytes.Buffer
	if err := trace.Save(&text, events); err != nil {
		return nil, err
	}
	textBytes := int64(text.Len())
	runtime.GC()
	t0 := time.Now()
	if _, err := trace.Load(bytes.NewReader(bin)); err != nil {
		return nil, err
	}
	binLoad := time.Since(t0)
	runtime.GC()
	t0 = time.Now()
	if _, err := trace.Load(bytes.NewReader(text.Bytes())); err != nil {
		return nil, err
	}
	textLoad := time.Since(t0)

	// Replay the streamed ingress log — also in streaming mode, so the check
	// itself runs in bounded memory — and require the recorded observables.
	lf, err := os.Open(logPath)
	if err != nil {
		return nil, err
	}
	ilog, err := qithread.LoadIngressLog(lf)
	lf.Close()
	if err != nil {
		return nil, err
	}
	wcfg.Sink = nil
	nullSink, err := trace.NewBinaryWriter(io.Discard)
	if err != nil {
		return nil, err
	}
	rtcfg.StreamTrace = func(domainID int) qithread.TraceSink {
		if domainID != 0 {
			return nil
		}
		return nullSink
	}
	rerun := workload.RunIngressServer(wcfg, p, rtcfg, ilog)
	if got, want := rerun.Observables(), run.Observables(); got != want {
		return nil, fmt.Errorf("streamed replay diverged:\n  recorded: %s\n  replayed: %s", want, got)
	}
	fmt.Fprintf(w, "=== E19 soak: bounded-memory streaming record (%d requests, a checkpoint every %d epochs); streamed replay: observables identical ===\n",
		a.SoakEvents, wcfg.CheckpointEvery)
	mb := func(v uint64) string { return ftoa(float64(v)/(1<<20), 1) }
	t := e.newTable()
	t.add(a.SoakEvents, run.Stats.Admitted, run.Stats.Epochs, run.Wall, len(events), binBytes, textBytes, binLoad, textLoad,
		len(run.Checkpoints), ckptEpoch, ckptBytes, mb(first), mb(peak), mb(last), len(samples))
	t.Fprint(w)
	return t, nil
}

// soakSummary derives the soak's headline ratios from its row: admission
// throughput, schedule bytes per event, and the binary format's size and
// load-time advantage over text.
func soakSummary(w io.Writer, t *Table) {
	for _, row := range t.rows {
		fmt.Fprintf(w, "recorded %.0f req/s at %.1f B/event\n",
			ratio(t.num(row, "admitted"), t.num(row, "wall_ms")/1000), ratio(t.num(row, "bin_bytes"), t.num(row, "events")))
		fmt.Fprintf(w, "binary is %.1fx smaller than text and %.1fx faster to load\n",
			ratio(t.num(row, "text_bytes"), t.num(row, "bin_bytes")), ratio(t.num(row, "text_load_ms"), t.num(row, "bin_load_ms")))
	}
}
