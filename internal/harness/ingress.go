package harness

import (
	"fmt"
	"io"
	"time"

	"qithread"
	"qithread/internal/workload"
)

// This file runs the ingress-admission experiment (E17): the ingress-driven
// request server with free-running sources, measured across admission batch
// sizes and — separately — under deliberate overload with a tight admission
// queue. Every admission slot is a turn-holding boundary op, so small batches
// pay one deterministic slot per few events while large batches amortize it;
// the overload point shows the deterministic shedding policy rejecting a
// replayable subset instead of stalling the sources.

// IngressPoint is one ingress-server measurement.
type IngressPoint struct {
	// MaxBatch is the admission batch bound of this point.
	MaxBatch int
	// QueueCap is the deterministic admission queue bound (0 = default).
	QueueCap int
	// Events is the total events the sources produced.
	Events int64
	// Admitted and Shed partition the collected events.
	Admitted int64
	Shed     int64
	// Epochs is the number of admission slots taken.
	Epochs int64
	// Wall is the host wall-clock time of the run.
	Wall time.Duration
	// Throughput is admitted events per second of wall time.
	Throughput float64
	// Output is the workload checksum (fixed across batch sizes while no
	// event is shed).
	Output uint64
}

// ingressServerConfig is the experiment's fixed workload shape; MaxBatch and
// QueueCap vary per point.
func ingressServerConfig(maxBatch, queueCap int) workload.IngressServerConfig {
	return workload.IngressServerConfig{
		Sources: 4, Events: 256, Workers: 3,
		ParseWork: 320, StateWork: 80,
		MaxBatch: maxBatch, QueueCap: queueCap,
	}
}

// MeasureIngress measures the ingress server at one admission batch size and
// queue bound under one mode, from one run.
func (r *Runner) MeasureIngress(maxBatch, queueCap int, mode Mode) IngressPoint {
	run := workload.RunIngressServer(ingressServerConfig(maxBatch, queueCap), r.Params, mode.Cfg, nil)
	pt := IngressPoint{
		MaxBatch: maxBatch,
		QueueCap: queueCap,
		Events:   run.Stats.Collected,
		Admitted: run.Stats.Admitted,
		Shed:     run.Stats.Shed,
		Epochs:   run.Stats.Epochs,
		Wall:     run.Wall,
		Output:   run.Output,
	}
	if run.Wall > 0 {
		pt.Throughput = float64(pt.Admitted) / run.Wall.Seconds()
	}
	return pt
}

// IngressSweep measures the ingress server across admission batch sizes under
// the given mode, then appends one overload point: the largest batch size with
// an admission queue deliberately smaller than the sources' burst, so a
// deterministic fraction of the input is shed.
func (r *Runner) IngressSweep(batches []int, mode Mode) []IngressPoint {
	var points []IngressPoint
	for _, b := range batches {
		pt := r.MeasureIngress(b, 0, mode)
		points = append(points, pt)
		r.logf("ingress batch=%-3d  admitted=%d shed=%d epochs=%-5d wall=%10v  %.0f ev/s\n",
			b, pt.Admitted, pt.Shed, pt.Epochs, pt.Wall, pt.Throughput)
	}
	if len(batches) > 0 {
		b := batches[len(batches)-1]
		pt := r.MeasureIngress(b, 8, mode)
		points = append(points, pt)
		r.logf("ingress batch=%-3d queue=8 (overload)  admitted=%d shed=%d wall=%10v\n",
			b, pt.Admitted, pt.Shed, pt.Wall)
	}
	return points
}

// IngressReplayCheck records one jittered live run and replays its log,
// returning an error if any replay observable (checksum, fingerprint,
// admitted/shed hashes) diverges — the experiment's determinism gate.
func IngressReplayCheck(p workload.Params, cfg qithread.Config, replays int) error {
	wcfg := ingressServerConfig(16, 0)
	wcfg.Jitter = 200 * time.Microsecond
	rec := workload.RunIngressServer(wcfg, p, cfg, nil)
	for i := 0; i < replays; i++ {
		rep := workload.RunIngressServer(wcfg, p, cfg, rec.Log)
		if got, want := rep.Observables(), rec.Observables(); got != want {
			return fmt.Errorf("ingress replay %d diverged:\n  recorded: %s\n  replayed: %s", i, want, got)
		}
	}
	return nil
}

// runIngress runs the ingress-admission experiment (E17): the batch sweep,
// one overload point with a deliberately tight admission queue (deterministic
// shedding), and a record/replay determinism gate — a jittered live run whose
// log is replayed with every observable compared. Unlike the virtual-makespan
// experiments these measurements are wall-clock (the sources run in real
// time), so the throughput numbers vary between hosts; the determinism gate
// does not. The title line is printed once the gate has passed.
func runIngress(e *Experiment, w io.Writer, r *Runner, _ Args) (*Table, error) {
	batches := []int{1, 4, 16, 64}
	points := r.IngressSweep(batches, QiThread())
	if err := IngressReplayCheck(r.Params, QiThread().Cfg, 5); err != nil {
		return nil, fmt.Errorf("record/replay gate: %w", err)
	}
	fmt.Fprintf(w, "=== Ingress admission: batch sweep %v + overload shedding (queue_cap 0 = default); record/replay gate: 5 jittered-log replays identical ===\n", batches)
	t := e.newTable()
	for _, pt := range points {
		t.add(pt.MaxBatch, pt.QueueCap, pt.Events, pt.Admitted, pt.Shed, pt.Epochs, pt.Wall, ftoa(pt.Throughput, 0),
			ftoa(ratio(float64(pt.Admitted), float64(pt.Epochs)), 1), ftoa(100*ratio(float64(pt.Shed), float64(pt.Events)), 1))
	}
	t.Fprint(w)
	return t, nil
}

// ingressSummary names the sweep's best batch size: the highest admission
// throughput among the rows with the default queue (the overload rows shed).
func ingressSummary(w io.Writer, t *Table) {
	best, bestRate := "", 0.0
	for _, row := range t.rows {
		if rate := t.num(row, "admit_per_sec"); t.num(row, "queue_cap") == 0 && rate > bestRate {
			best, bestRate = row[t.col("max_batch")], rate
		}
	}
	if best != "" {
		fmt.Fprintf(w, "best admission throughput: batch %s at %.0f admitted events/s\n", best, bestRate)
	}
}

// ratio is a/b, or 0 when there is nothing to divide by.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
