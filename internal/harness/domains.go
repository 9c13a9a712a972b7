package harness

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"qithread"
	"qithread/internal/workload"
)

// This file runs the scheduler-domain scaling experiment: the same sharded
// workload at 1, 2, 4, 8 domains under the QiThread configuration. A single
// global turn serializes every synchronization operation of the process
// through one virtual-time chain (vLastOp); per-domain turns serialize only
// within a shard, so the virtual makespan should improve monotonically with
// the domain count while the output checksum and the per-domain determinism
// fingerprints stay fixed. Wall-clock times are reported alongside for
// reference, as everywhere else in the harness.

// DomainPoint is one (workload, domain count, batch size) measurement.
type DomainPoint struct {
	Workload string
	Domains  int
	// Batch is the boundary batch size: 0 is the aggregate shape (one
	// message per shard), B>=1 streams per-item results through a
	// capacity-B pipe (see workload.DomainServerConfig.Batch).
	Batch int
	// Makespan is the virtual makespan (1 work unit = 1ns).
	Makespan time.Duration
	// Wall is the host wall-clock time.
	Wall time.Duration
	// Output is the workload checksum, identical across domain counts and
	// batch sizes.
	Output uint64
}

// DomainWorkload names one sharded engine at a given domain count and
// boundary batch size.
type DomainWorkload struct {
	Name  string
	Build func(domains, batch int, p workload.Params) workload.App
}

// DomainWorkloads returns the sharded engines of the scaling experiment:
// the request server and the static map-reduce, the two structures the
// partitioned design targets (independent request streams, independent data
// partitions).
func DomainWorkloads() []DomainWorkload {
	return []DomainWorkload{
		{
			Name: "server",
			Build: func(nd, batch int, p workload.Params) workload.App {
				return workload.DomainServer(workload.DomainServerConfig{
					Domains: nd, Workers: 3, Requests: 48,
					AcceptWork: 60, ParseWork: 420, StateWork: 90,
					Batch: batch,
				}, p)
			},
		},
		{
			Name: "mapreduce",
			Build: func(nd, batch int, p workload.Params) workload.App {
				return workload.DomainMapReduce(workload.DomainMapReduceConfig{
					Domains: nd, Workers: 3, MapTasks: 96, ReduceTasks: 48,
					MapWork: 380, ReduceWork: 260,
					Batch: batch,
				}, p)
			},
		},
	}
}

// MeasureDomains measures one sharded workload at one domain count and batch
// size under one mode, returning one run's virtual makespan and wall time.
func (r *Runner) MeasureDomains(w DomainWorkload, domains, batch int, mode Mode) DomainPoint {
	app := w.Build(domains, batch, r.Params)
	rt := qithread.New(mode.Cfg)
	start := time.Now()
	out := app(rt)
	wall := time.Since(start)
	return DomainPoint{
		Workload: w.Name,
		Domains:  domains,
		Batch:    batch,
		Makespan: time.Duration(rt.VirtualMakespan()),
		Wall:     wall,
		Output:   out,
	}
}

// DomainScaling runs every sharded workload at every domain count under the
// given mode, in the aggregate result shape (batch 0), and returns the
// points in (workload, count) order.
func (r *Runner) DomainScaling(counts []int, mode Mode) []DomainPoint {
	var points []DomainPoint
	for _, w := range DomainWorkloads() {
		for _, nd := range counts {
			pt := r.MeasureDomains(w, nd, 0, mode)
			points = append(points, pt)
			r.logf("%-12s domains=%d  makespan=%10v  wall=%10v\n", w.Name, nd, pt.Makespan, pt.Wall)
		}
	}
	return points
}

// DomainBatchSweep runs every sharded workload in the streaming result shape
// at a fixed domain count across boundary batch sizes. Streaming ships every
// per-item checksum to the coordinator, so the boundary cost dominates at
// batch 1 (one turn-holding slot, lock acquisition and wake-up per message)
// and amortizes as the batch grows; the output checksum stays identical
// across the sweep.
func (r *Runner) DomainBatchSweep(domains int, batches []int, mode Mode) []DomainPoint {
	var points []DomainPoint
	for _, w := range DomainWorkloads() {
		for _, b := range batches {
			pt := r.MeasureDomains(w, domains, b, mode)
			points = append(points, pt)
			r.logf("%-12s domains=%d batch=%-3d  makespan=%10v  wall=%10v\n", w.Name, domains, b, pt.Makespan, pt.Wall)
		}
	}
	return points
}

// runDomains runs the scheduler-domain experiments as one table: (1) the
// sharded server and map-reduce workloads at 1, 2, 4, 8 domains under the full
// QiThread configuration, in the aggregate result shape (batch 0); (2) the
// boundary batch-size sweep — the same workloads in the streaming result
// shape (every per-item checksum shipped to the coordinator) at a fixed
// domain count across batch sizes, where batch 1 pays one turn-holding
// boundary slot per message and larger batches amortize the slot, lock and
// wake-up over up to batch messages. speedup is relative to the first row of
// the same workload and sweep: the 1-domain run, the batch-1 run. Virtual
// makespans are deterministic; wall clock is reported per point for reference
// and depends on the host's core budget, hence the GOMAXPROCS in the title.
func runDomains(e *Experiment, w io.Writer, r *Runner, _ Args) (*Table, error) {
	counts, sweepDomains, batches := []int{1, 2, 4, 8}, 4, []int{1, 2, 4, 8, 16}
	fmt.Fprintf(w, "=== Scheduler domains: sharded scaling (%v domains, batch 0) + boundary batch sweep (%d domains, streaming results, batch %v), GOMAXPROCS=%d ===\n",
		counts, sweepDomains, batches, runtime.GOMAXPROCS(0))
	points := append(r.DomainScaling(counts, QiThread()), r.DomainBatchSweep(sweepDomains, batches, QiThread())...)
	t := e.newTable()
	type sweep struct {
		workload string
		batched  bool
	}
	base := make(map[sweep]time.Duration)
	for _, pt := range points {
		k := sweep{pt.Workload, pt.Batch > 0}
		if _, seen := base[k]; !seen {
			base[k] = pt.Makespan
		}
		t.add(pt.Workload, pt.Domains, pt.Batch, pt.Makespan, pt.Wall, ftoa(ratio(float64(base[k]), float64(pt.Makespan)), 3))
	}
	t.Fprint(w)
	return t, nil
}
