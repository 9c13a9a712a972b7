package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// This file is the benchmark's metric vocabulary: the workloads, the six
// end-to-end metrics and the per-layer ledger, each with its unit, direction
// and — which BENCHMARK.json has no room for — the end-to-end metric and
// workload it should move. BENCHMARK.json at the repository root declares the
// same names, units, directions and bounds for the driver; the smoke test
// keeps the two in step.

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
	// Moves names what a per-layer metric should move (documentation; printed
	// by -list, kept out of BENCHMARK.json whose entries have fixed keys).
	Moves string `json:"-"`
}

// Seeds. The default seed is what the sizes and README numbers were measured
// on; the held-out seed is for checking that a claim made while looking at
// the default one holds elsewhere.
const (
	defaultSeed = 1
	heldOutSeed = 20190216
)

var workloadDefs = []workloadDef{
	{"catalog", "106 catalog programs on fresh runtimes: wrappers, policy stack and multi-runnable turn handoffs do all the work; domains, ingress, log codecs and the explorer are idle."},
	{"server_record", "Live sharded server recording itself: ingress admission, XPipe routing and schedule/ingress log writers carry the load; gateway turns are leased, shard turns are two-worker handoffs."},
	{"replay", "Loads the recorded schedule and ingress files and re-executes them: log decoders, ingress replayer and the never-leased structural-replay turn path."},
	{"explore", "DPOR search of the seeded control-plane race with 2 workers: runtime construction, control-plane allocations, chooser-consulted turns and the search engine."},
}

var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "ops/s", Better: "higher", Bound: 0.25},
	{Name: "allocs_per_op", Unit: "allocs/op", Better: "lower", Bound: 0.02},
	{Name: "alloc_bytes_per_op", Unit: "B/op", Better: "lower", Bound: 0.05},
	{Name: "vtime_per_op", Unit: "vunits/op", Better: "lower", Bound: 0.02},
	{Name: "ok_share", Unit: "ok/attempted", Better: "higher", Bound: 0.000001},
}

const (
	onCatalog = "ops_per_s on catalog"
	onServer  = "ops_per_s on server_record"
	onReplay  = "ops_per_s on replay"
	onExplore = "ops_per_s on explore"
)

var perLayer = []metricDef{
	// wrappers: the root package's mutex/cond/pipe/thread wrappers.
	{Name: "wrappers.lock_unlock_nondet_ns", Unit: "ns", Better: "lower", Moves: "nothing gated (Nondet floor)"},
	{Name: "wrappers.lock_unlock_rr_ns", Unit: "ns", Better: "lower", Moves: onCatalog},
	{Name: "wrappers.cond_pingpong_ns", Unit: "ns", Better: "lower", Moves: onCatalog},
	{Name: "wrappers.pipe_msg_ns", Unit: "ns", Better: "lower", Moves: onCatalog},
	{Name: "wrappers.create_join_us", Unit: "us", Better: "lower", Moves: onCatalog + " and explore"},

	{Name: "policy.dispatch_ns", Unit: "ns", Better: "lower", Moves: onCatalog + " only"},
	{Name: "policy.lease_extends_per_op", Unit: "count/op", Better: "higher", Moves: onCatalog},
	{Name: "policy.decisions_per_op", Unit: "count/op", Better: "lower", Moves: onCatalog},
	{Name: "policy.norm_makespan", Unit: "ratio", Better: "lower", Moves: "vtime_per_op on catalog; nothing on the host side"},

	{Name: "core.turn_leased_ns", Unit: "ns", Better: "lower", Moves: onServer + ", not catalog"},
	{Name: "core.turn_unleased_ns", Unit: "ns", Better: "lower", Moves: onReplay + " and catalog"},
	{Name: "core.handoff_ns_t4", Unit: "ns", Better: "lower", Moves: onCatalog + " (largest share); a few % on server_record"},
	{Name: "core.handoff_ns_t64", Unit: "ns", Better: "lower", Moves: onCatalog},
	{Name: "core.wait_signal_ns", Unit: "ns", Better: "lower", Moves: onCatalog},
	{Name: "core.traceop_ns", Unit: "ns", Better: "lower", Moves: onServer + " and explore"},
	{Name: "core.replay_event_ns", Unit: "ns", Better: "lower", Moves: onReplay + " only"},
	{Name: "core.chooser_turn_ns", Unit: "ns", Better: "lower", Moves: onExplore + " only"},
	{Name: "core.turns_per_op", Unit: "turns/op", Better: "lower", Moves: "ops_per_s on the traced workload"},
	{Name: "core.lease_extend_share", Unit: "share", Better: "higher", Moves: "ops_per_s on the traced workload"},
	{Name: "core.handoff_share", Unit: "share", Better: "lower", Moves: "ops_per_s on the traced workload"},

	{Name: "domain.xpipe_msg_ns_b1", Unit: "ns", Better: "lower", Moves: onServer + " and replay"},
	{Name: "domain.xpipe_msg_ns_b16", Unit: "ns", Better: "lower", Moves: onServer + " and replay"},
	{Name: "domain.send_busy_share", Unit: "share", Better: "lower", Moves: onServer},
	{Name: "domain.recv_wait_share", Unit: "share", Better: "lower", Moves: onServer},
	{Name: "domain.msgs_per_slot", Unit: "msgs/slot", Better: "higher", Moves: onServer},

	{Name: "ingress.admit_event_ns_b1", Unit: "ns", Better: "lower", Moves: onServer + " and replay"},
	{Name: "ingress.admit_event_ns_b16", Unit: "ns", Better: "lower", Moves: onServer + " and replay"},
	{Name: "ingress.push_ns", Unit: "ns", Better: "lower", Moves: onServer},
	{Name: "ingress.log_append_event_ns", Unit: "ns", Better: "lower", Moves: onServer},
	{Name: "ingress.log_load_mev_s", Unit: "Mev/s", Better: "higher", Moves: onReplay},
	{Name: "ingress.admit_busy_share", Unit: "share", Better: "lower", Moves: onServer},
	{Name: "ingress.push_block_share", Unit: "share", Better: "lower", Moves: onServer},
	{Name: "ingress.events_per_epoch", Unit: "events/epoch", Better: "higher", Moves: onServer},
	{Name: "ingress.max_stage", Unit: "count", Better: "lower", Moves: onServer},
	{Name: "ingress.push_to_done_us_p50", Unit: "us", Better: "lower", Moves: "closed-loop latency on server_record (not gated)"},
	{Name: "ingress.push_to_done_us_p99", Unit: "us", Better: "lower", Moves: "closed-loop latency on server_record (not gated)"},

	// trace, with logio underneath.
	{Name: "trace.sink_append_ns", Unit: "ns", Better: "lower", Moves: "ops_per_s and alloc_bytes_per_op on server_record"},
	{Name: "trace.save_binary_mev_s", Unit: "Mev/s", Better: "higher", Moves: onServer},
	{Name: "trace.load_binary_mev_s", Unit: "Mev/s", Better: "higher", Moves: onReplay + " only"},
	{Name: "trace.load_text_mev_s", Unit: "Mev/s", Better: "higher", Moves: "nothing gated (text schedules are not on a workload path)"},
	{Name: "trace.bytes_per_event", Unit: "B/event", Better: "lower", Moves: onServer + " and replay"},
	{Name: "trace.sink_busy_share", Unit: "share", Better: "lower", Moves: onServer},
	{Name: "trace.load_share", Unit: "share", Better: "lower", Moves: onReplay},

	// ckpt: ledger only, no workload checkpoints.
	{Name: "ckpt.checkpoint_us", Unit: "us", Better: "lower", Moves: "nothing in this benchmark (ledger only)"},
	{Name: "ckpt.resume_us", Unit: "us", Better: "lower", Moves: "nothing in this benchmark (ledger only)"},
	{Name: "ckpt.bytes", Unit: "B", Better: "lower", Moves: "nothing in this benchmark (ledger only)"},

	{Name: "explore.run_us", Unit: "us", Better: "lower", Moves: onExplore + " only"},
	{Name: "explore.engine_share", Unit: "share", Better: "lower", Moves: onExplore + " only"},
	{Name: "explore.minimize_ms", Unit: "ms", Better: "lower", Moves: onExplore + " only"},
	{Name: "explore.minimize_runs", Unit: "count", Better: "lower", Moves: onExplore + " only"},
	{Name: "explore.persist_overhead_x", Unit: "x", Better: "lower", Moves: "nothing gated (the workload explores in memory)"},
	{Name: "explore.distinct_share", Unit: "share", Better: "higher", Moves: onExplore + " only"},
	{Name: "explore.failures_per_krun", Unit: "count/krun", Better: "higher", Moves: onExplore + " only"},
	{Name: "explore.first_bug_run", Unit: "count", Better: "lower", Moves: onExplore + " only"},
	{Name: "explore.hb_pruned_share", Unit: "share", Better: "higher", Moves: "nothing gated (the workload runs with HB off)"},

	{Name: "controlplane.cell_us_e64", Unit: "us", Better: "lower", Moves: "nothing gated (64-entity shape)"},
	{Name: "controlplane.allocs_per_entity", Unit: "allocs/entity", Better: "lower", Moves: "allocs_per_op on explore"},
	{Name: "controlplane.cell_us_race", Unit: "us", Better: "lower", Moves: onExplore},

	{Name: "runtime.new_run_us", Unit: "us", Better: "lower", Moves: onExplore + " and catalog"},
	{Name: "runtime.new_run_allocs", Unit: "allocs", Better: "lower", Moves: "allocs_per_op on explore and catalog"},
	{Name: "runtime.cpu_us_per_op", Unit: "us/op", Better: "lower", Moves: "the traced workload (not gated: ±10 % run to run)"},
	{Name: "runtime.peak_heap_mb", Unit: "MB", Better: "lower", Moves: "alloc_bytes_per_op on the traced workload"},
	{Name: "runtime.gc_cpu_share", Unit: "share", Better: "lower", Moves: "ops_per_s on the traced workload"},
	{Name: "runtime.tracing_overhead_share", Unit: "share", Better: "lower", Moves: "nothing (cost of the benchmark's own spans)"},

	{Name: "ledger.explained_share", Unit: "share", Better: "higher", Moves: "how much of the traced workload's wall the probes account for"},
}

func findMetric(defs []metricDef, name string) (metricDef, bool) {
	for _, d := range defs {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

// benchSpec mirrors BENCHMARK.json.
type benchSpec struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// value is one emitted metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects emitted metrics, refusing undeclared names and
// duplicates so the output always matches the declared vocabulary.
type metricSet struct {
	defs   []metricDef
	values map[string]value
	order  []string
}

func newMetricSet(defs []metricDef) *metricSet {
	return &metricSet{defs: defs, values: map[string]value{}}
}

func (m *metricSet) emit(name string, v float64) {
	d, ok := findMetric(m.defs, name)
	if !ok {
		panic("benchmark: metric " + name + " is not declared")
	}
	if _, dup := m.values[name]; dup {
		panic("benchmark: metric " + name + " emitted twice")
	}
	m.values[name] = value{Value: v, Unit: d.Unit}
	m.order = append(m.order, name)
}

// missing lists declared metrics that were not emitted.
func (m *metricSet) missing() []string {
	var out []string
	for _, d := range m.defs {
		if _, ok := m.values[d.Name]; !ok {
			out = append(out, d.Name)
		}
	}
	return out
}
