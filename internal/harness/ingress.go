package harness

import (
	"fmt"
	"io"
	"time"

	"qithread/internal/workload"
)

// This file runs the ingress-admission experiment (E17): the ingress-driven
// request server with free-running sources, measured across admission batch
// sizes and — separately — under deliberate overload with a tight admission
// queue. Every admission slot is a turn-holding boundary op, so small batches
// pay one deterministic slot per few events while large batches amortize it;
// the overload point shows the deterministic shedding policy rejecting a
// replayable subset instead of stalling the sources.

// ingressServerConfig is the experiment's fixed workload shape; MaxBatch and
// QueueCap vary per row.
func ingressServerConfig(maxBatch, queueCap int) workload.IngressServerConfig {
	return workload.IngressServerConfig{
		Sources: 4, Events: 256, Workers: 3,
		ParseWork: 320, StateWork: 80,
		MaxBatch: maxBatch, QueueCap: queueCap,
	}
}

// runIngress runs the ingress-admission experiment (E17): the batch sweep,
// one overload row with the largest batch and an admission queue
// deliberately smaller than the sources' burst (deterministic shedding), and
// a record/replay determinism gate — a jittered live run whose log is
// replayed with every observable (checksum, fingerprint, admitted/shed
// hashes) compared. Unlike the virtual-makespan experiments these
// measurements are wall-clock, one run each (the sources run in real time),
// so the throughput numbers vary between hosts; the determinism gate does
// not. The title line is printed once the gate has passed.
func runIngress(e *Experiment, w io.Writer, r *Runner, _ Args) (*Table, error) {
	batches := []int{1, 4, 16, 64}
	t := e.newTable()
	measure := func(maxBatch, queueCap int) {
		run := workload.RunIngressServer(ingressServerConfig(maxBatch, queueCap), r.Params, QiThread().Cfg, nil)
		s := run.Stats
		t.add(maxBatch, queueCap, s.Collected, s.Admitted, s.Shed, s.Epochs, run.Wall, ftoa(ratio(float64(s.Admitted), run.Wall.Seconds()), 0),
			ftoa(ratio(float64(s.Admitted), float64(s.Epochs)), 1), ftoa(100*ratio(float64(s.Shed), float64(s.Collected)), 1))
		r.logf("ingress batch=%-3d queue=%d  admitted=%d shed=%d epochs=%-5d wall=%10v\n", maxBatch, queueCap, s.Admitted, s.Shed, s.Epochs, run.Wall)
	}
	for _, b := range batches {
		measure(b, 0)
	}
	measure(batches[len(batches)-1], 8) // overload: a queue below the sources' burst

	wcfg := ingressServerConfig(16, 0)
	wcfg.Jitter = 200 * time.Microsecond
	var rec workload.IngressRun
	if err := replayGate("ingress replay %d diverged:\n  recorded: %s\n  replayed: %s",
		func() string {
			rec = workload.RunIngressServer(wcfg, r.Params, QiThread().Cfg, nil)
			return rec.Observables()
		},
		func() string { return workload.RunIngressServer(wcfg, r.Params, QiThread().Cfg, rec.Log).Observables() },
	); err != nil {
		return nil, fmt.Errorf("record/replay gate: %w", err)
	}
	fmt.Fprintf(w, "=== Ingress admission: batch sweep %v + overload shedding (queue_cap 0 = default); record/replay gate: %d jittered-log replays identical ===\n", batches, gateReplays)
	t.Fprint(w)
	return t, nil
}

// gateReplays is how many times an arm's determinism gate re-runs its input.
const gateReplays = 5

// replayGate is the determinism gate of the ingress and control-plane arms:
// it runs ref once and replay gateReplays times and fails on the first replay
// whose observables differ from ref's, worded by format from the replay's
// index, ref's observables and the replay's.
func replayGate(format string, ref, replay func() string) error {
	want := ref()
	for i := 0; i < gateReplays; i++ {
		if got := replay(); got != want {
			return fmt.Errorf(format, i, want, got)
		}
	}
	return nil
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
