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

// domainWorkload names one sharded engine at a given domain count and
// boundary batch size: 0 is the aggregate shape (one message per shard),
// B>=1 streams per-item results through a capacity-B pipe (see
// workload.DomainServerConfig.Batch).
type domainWorkload struct {
	name  string
	build func(domains, batch int, p workload.Params) workload.App
}

// domainWorkloads returns the sharded engines of the scaling experiment:
// the request server and the static map-reduce, the two structures the
// partitioned design targets (independent request streams, independent data
// partitions).
func domainWorkloads() []domainWorkload {
	return []domainWorkload{
		{
			name: "server",
			build: func(nd, batch int, p workload.Params) workload.App {
				return workload.DomainServer(workload.DomainServerConfig{
					Domains: nd, Workers: 3, Requests: 48,
					AcceptWork: 60, ParseWork: 420, StateWork: 90,
					Batch: batch,
				}, p)
			},
		},
		{
			name: "mapreduce",
			build: func(nd, batch int, p workload.Params) workload.App {
				return workload.DomainMapReduce(workload.DomainMapReduceConfig{
					Domains: nd, Workers: 3, MapTasks: 96, ReduceTasks: 48,
					MapWork: 380, ReduceWork: 260,
					Batch: batch,
				}, p)
			},
		},
	}
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
// makespans are deterministic; wall clock is one run's, for reference, and
// depends on the host's core budget, hence the GOMAXPROCS in the title.
func runDomains(e *Experiment, w io.Writer, r *Runner, _ Args) (*Table, error) {
	counts, sweepDomains, batches := []int{1, 2, 4, 8}, 4, []int{1, 2, 4, 8, 16}
	fmt.Fprintf(w, "=== Scheduler domains: sharded scaling (%v domains, batch 0) + boundary batch sweep (%d domains, streaming results, batch %v), GOMAXPROCS=%d ===\n",
		counts, sweepDomains, batches, runtime.GOMAXPROCS(0))
	type point struct{ domains, batch int }
	var scaling, sweep []point
	for _, nd := range counts {
		scaling = append(scaling, point{nd, 0})
	}
	for _, b := range batches {
		sweep = append(sweep, point{sweepDomains, b})
	}
	t := e.newTable()
	for _, points := range [][]point{scaling, sweep} {
		for _, dw := range domainWorkloads() {
			var base time.Duration
			for i, pt := range points {
				app := dw.build(pt.domains, pt.batch, r.Params)
				rt := qithread.New(QiThread().Cfg)
				start := time.Now()
				app(rt)
				wall := time.Since(start)
				makespan := time.Duration(rt.VirtualMakespan())
				if i == 0 {
					base = makespan
				}
				t.add(dw.name, pt.domains, pt.batch, makespan, wall, ftoa(ratio(float64(base), float64(makespan)), 3))
				r.logf("%-12s domains=%d batch=%-3d  makespan=%10v  wall=%10v\n", dw.name, pt.domains, pt.batch, makespan, wall)
			}
		}
	}
	t.Fprint(w)
	return t, nil
}
