package harness

import (
	"fmt"
	"io"
	"time"

	"qithread/internal/workload/controlplane"
)

// runControlPlane is experiment E22: the production-shape control-plane
// workload (internal/workload/controlplane) swept across entity-store sizes,
// controller-pool widths and scheduler-domain shard counts. Every cell
// reconciles the same recorded log, so its workload counters and its
// observability snapshots — the gateways' admission counters and queue
// high-water, the schedulers' turns and deepest wait list — are
// deterministic; wall time, and the throughput derived from it, are the only
// host-dependent columns. A replay gate re-runs the seeded-race scenario's
// fixed input and fails the experiment on any fingerprint divergence, as does
// a cell that corrupted an entity or did not install every one; the title line
// is printed once the gate passed.
func runControlPlane(e *Experiment, w io.Writer, _ *Runner, _ Args) (*Table, error) {
	entities, controllers, shards := []int{8, 32, 128}, []int{1, 2, 4}, []int{0, 2}
	cfg := QiThread().Cfg
	t := e.newTable()
	for _, n := range entities {
		log := controlplane.DemoLog(n, controlplane.Transitions)
		for _, c := range controllers {
			for _, s := range shards {
				start := time.Now()
				res := controlplane.Run(controlplane.Config{
					Entities: n, Controllers: c, Shards: s,
					ValidateWork: 32, EventWork: 8, MaxBatch: 8,
					Log: log,
				}, cfg)
				wall := time.Since(start)
				var requeues uint64
				for _, en := range res.Entities {
					requeues += en.Requeues
				}
				var admitted, shed, turns int64
				var maxQueue, maxWait int
				for _, gw := range res.Gateways {
					admitted += gw.Admitted
					shed += gw.Shed
					maxQueue = max(maxQueue, gw.MaxQueue)
				}
				for _, sc := range res.Schedulers {
					turns += sc.Turns
					maxWait = max(maxWait, sc.MaxWaiting)
				}
				t.add(n, c, s, res.Transitions, res.Conflicts, requeues, res.Installed, res.Anomalies,
					admitted, shed, maxQueue, turns, maxWait, wall,
					ftoa(ratio(float64(res.Transitions), float64(wall)/float64(time.Millisecond)), 0))
			}
		}
	}
	scenario := func() string {
		res := controlplane.Run(controlplane.ScenarioConfig(true, false), cfg)
		return fmt.Sprintf("%v/%x/%x/%x", res.Fingerprint, res.Output, res.AdmitHash, res.ShedHash)
	}
	if err := replayGate("controlplane replay %d diverged:\n  ref %s\n  got %s", scenario, scenario); err != nil {
		return nil, fmt.Errorf("replay gate: %w", err)
	}
	fmt.Fprintf(w, "=== E22 control plane: entities %v x controllers %v x shards %v; replay gate: %d scenario replays identical ===\n",
		entities, controllers, shards, gateReplays)
	t.Fprint(w)
	if bad := badCells(t); bad > 0 {
		return t, fmt.Errorf("%d control-plane cell(s) corrupted an entity or failed to install every entity", bad)
	}
	return t, nil
}

func badCells(t *Table) (bad int) {
	for _, row := range t.rows {
		if t.num(row, "anomalies") != 0 || t.num(row, "installed") != t.num(row, "entities") {
			bad++
		}
	}
	return bad
}

// controlPlaneSummary flags any cell that corrupted an entity or failed to
// converge and names the fastest cell per store size.
func controlPlaneSummary(w io.Writer, t *Table) {
	if bad := badCells(t); bad > 0 {
		fmt.Fprintf(w, "WARNING: %d cell(s) corrupted an entity or failed to install every entity\n", bad)
	}
	var sizes []string
	best := map[string][]string{}
	for _, row := range t.rows {
		n := row[t.col("entities")]
		if b, ok := best[n]; !ok {
			sizes = append(sizes, n)
			best[n] = row
		} else if t.num(row, "wall_ms") < t.num(b, "wall_ms") {
			best[n] = row
		}
	}
	for _, n := range sizes {
		b := best[n]
		fmt.Fprintf(w, "best for %s entities: %s controllers x %s shards at %s ms\n",
			n, b[t.col("controllers")], b[t.col("shards")], b[t.col("wall_ms")])
	}
}
