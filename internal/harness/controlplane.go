package harness

import (
	"fmt"
	"io"
	"time"

	"qithread"
	"qithread/internal/workload/controlplane"
)

// ControlPlanePoint is one cell of the control-plane sweep: a fixed recorded
// log reconciled by a (entities × controllers × shards) configuration, with
// the observability snapshots (gateway admission counters, scheduler
// wait-list depths) folded in alongside the workload counters.
type ControlPlanePoint struct {
	Entities    int
	Controllers int
	Shards      int

	Transitions uint64
	Conflicts   uint64
	Requeues    uint64
	Installed   int
	Anomalies   uint64

	Admitted int64 // gateway snapshot: events admitted
	Shed     int64 // gateway snapshot: events shed
	MaxQueue int   // gateway snapshot: admission queue high-water
	Turns    int64 // scheduler snapshots: total turns across domains
	MaxWait  int   // scheduler snapshots: deepest wait list seen

	Wall time.Duration
}

// ControlPlaneSweep reconciles a recorded log across the configuration grid.
// The makespans are wall-clock but the counters and snapshots are
// deterministic: every cell replays the same per-entity event sequence.
func ControlPlaneSweep(cfg qithread.Config, entities, controllers, shards []int) []ControlPlanePoint {
	var points []ControlPlanePoint
	for _, n := range entities {
		log := controlplane.DemoLog(n, controlplane.Transitions)
		for _, c := range controllers {
			for _, s := range shards {
				wcfg := controlplane.Config{
					Entities: n, Controllers: c, Shards: s,
					ValidateWork: 32, EventWork: 8, MaxBatch: 8,
					Log: log,
				}
				start := time.Now()
				r := controlplane.Run(wcfg, cfg)
				pt := ControlPlanePoint{
					Entities: n, Controllers: c, Shards: s,
					Transitions: r.Transitions, Conflicts: r.Conflicts,
					Installed: r.Installed, Anomalies: r.Anomalies,
					Wall: time.Since(start),
				}
				for _, e := range r.Entities {
					pt.Requeues += e.Requeues
				}
				for _, gw := range r.Gateways {
					pt.Admitted += gw.Admitted
					pt.Shed += gw.Shed
					if gw.MaxQueue > pt.MaxQueue {
						pt.MaxQueue = gw.MaxQueue
					}
				}
				for _, sc := range r.Schedulers {
					pt.Turns += sc.Turns
					if sc.MaxWaiting > pt.MaxWait {
						pt.MaxWait = sc.MaxWaiting
					}
				}
				points = append(points, pt)
			}
		}
	}
	return points
}

// ControlPlaneReplayCheck replays the seeded-race scenario's fixed input N
// times and returns an error on any fingerprint divergence — the experiment's
// determinism gate, mirroring IngressReplayCheck.
func ControlPlaneReplayCheck(cfg qithread.Config, replays int) error {
	shape := func(r controlplane.Result) string {
		return fmt.Sprintf("%v/%x/%x/%x", r.Fingerprint, r.Output, r.AdmitHash, r.ShedHash)
	}
	ref := shape(controlplane.Run(controlplane.ScenarioConfig(true, false), cfg))
	for i := 0; i < replays; i++ {
		if got := shape(controlplane.Run(controlplane.ScenarioConfig(true, false), cfg)); got != ref {
			return fmt.Errorf("controlplane replay %d diverged:\n  ref %s\n  got %s", i, ref, got)
		}
	}
	return nil
}

// runControlPlane is experiment E22: the production-shape control-plane
// workload (internal/workload/controlplane) swept across entity-store sizes,
// controller-pool widths and scheduler-domain shard counts, with the gateway
// and scheduler observability snapshots reported per cell. Every cell
// reconciles the same recorded log, so the counter columns are deterministic;
// wall time, and the throughput derived from it, are the only host-dependent
// columns. A replay gate re-runs the scenario input and fails the experiment
// on any fingerprint divergence, as does a cell that corrupted an entity or
// did not install every one; the title line is printed once the gate passed.
func runControlPlane(e *Experiment, w io.Writer, _ *Runner, _ Args) (*Table, error) {
	entities, controllers, shards := []int{8, 32, 128}, []int{1, 2, 4}, []int{0, 2}
	points := ControlPlaneSweep(QiThread().Cfg, entities, controllers, shards)
	if err := ControlPlaneReplayCheck(QiThread().Cfg, 5); err != nil {
		return nil, fmt.Errorf("replay gate: %w", err)
	}
	fmt.Fprintf(w, "=== E22 control plane: entities %v x controllers %v x shards %v; replay gate: 5 scenario replays identical ===\n",
		entities, controllers, shards)
	t := e.newTable()
	for _, pt := range points {
		t.add(pt.Entities, pt.Controllers, pt.Shards, pt.Transitions, pt.Conflicts, pt.Requeues, pt.Installed,
			pt.Anomalies, pt.Admitted, pt.Shed, pt.MaxQueue, pt.Turns, pt.MaxWait, pt.Wall,
			ftoa(ratio(float64(pt.Transitions), float64(pt.Wall)/float64(time.Millisecond)), 0))
	}
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
