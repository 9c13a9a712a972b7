package programs

import (
	"slices"
	"testing"

	"qithread"
	"qithread/internal/trace"
	"qithread/internal/workload"
)

// tinyParams keeps catalog integration tests fast: 4 threads, 2% scale.
var tinyParams = workload.Params{Threads: 4, Scale: 0.02, InputSeed: 7}

func TestCatalogHas108Programs(t *testing.T) {
	if got := len(All()); got != 108 {
		t.Fatalf("catalog has %d programs, want 108", got)
	}
	counts := map[string]int{}
	for _, s := range All() {
		counts[s.Suite]++
	}
	want := map[string]int{
		"splash2x": 14, "npb": 10, "parsec": 15, "phoenix": 14,
		"realworld": 8, "imagemagick": 14, "stl": 33,
	}
	for suite, n := range want {
		if counts[suite] != n {
			t.Errorf("suite %s has %d programs, want %d", suite, counts[suite], n)
		}
	}
}

func TestFindAndNames(t *testing.T) {
	if _, ok := Find("pbzip2_compress"); !ok {
		t.Fatal("pbzip2_compress missing")
	}
	if _, ok := Find("nonexistent"); ok {
		t.Fatal("Find accepted a bogus name")
	}
}

// TestEveryProgramEveryMode is the whole-catalog integration test: every
// program must run to completion under every scheduling configuration and
// produce the same output in all of them — the nondeterministic reference,
// the Figure 8 configurations, the logical clock, and each policy alone plus
// two partial combinations, since every policy set induces a different legal
// schedule of the same program.
func TestEveryProgramEveryMode(t *testing.T) {
	configs := []qithread.Config{
		{Mode: qithread.Nondet},
		{Mode: qithread.RoundRobin, Policies: qithread.NoPolicies},
		{Mode: qithread.RoundRobin, Policies: qithread.NoPolicies, SoftBarriers: true},
		{Mode: qithread.RoundRobin, Policies: qithread.NoPolicies, SoftBarriers: true, PCS: true},
		{Mode: qithread.RoundRobin, Policies: qithread.AllPolicies},
		{Mode: qithread.LogicalClock},
	}
	for _, p := range []qithread.Policy{
		qithread.BoostBlocked,
		qithread.CreateAll,
		qithread.CSWhole,
		qithread.WakeAMAP,
		qithread.BranchedWake,
		qithread.BoostBlocked | qithread.WakeAMAP,
		qithread.BoostBlocked | qithread.CSWhole | qithread.WakeAMAP,
	} {
		configs = append(configs, qithread.Config{Mode: qithread.RoundRobin, Policies: p})
	}
	for _, spec := range All() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			app := spec.Build(tinyParams)
			var ref uint64
			for i, cfg := range configs {
				rt := qithread.New(cfg)
				out := app(rt)
				if i == 0 {
					ref = out
					continue
				}
				if out != ref {
					t.Fatalf("%s: output %#x under %v/%v, want %#x (nondet)",
						spec.Name, out, cfg.Mode, cfg.Policies, ref)
				}
			}
		})
	}
}

// TestEveryProgramDeterministic verifies that every catalog program yields a
// bit-identical schedule across repeated runs under the QiThread default
// configuration.
func TestEveryProgramDeterministic(t *testing.T) {
	for _, spec := range All() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			app := spec.Build(tinyParams)
			cfg := qithread.Config{Mode: qithread.RoundRobin, Policies: qithread.AllPolicies, Record: true}
			var ref uint64
			for run := 0; run < 2; run++ {
				rt := qithread.New(cfg)
				app(rt)
				h := trace.Hash(rt.Trace())
				if run == 0 {
					ref = h
				} else if h != ref {
					t.Fatalf("%s: schedule hash differs across runs: %#x vs %#x", spec.Name, h, ref)
				}
			}
		})
	}
}

// TestEveryProgramReplaysItsTrace: replaying a catalog program's recorded
// schedule under the configuration that recorded it returns, from Trace(), a
// schedule deep-equal to the recording — Domain included — and the
// same output. The replaying run retains the schedule it verified by
// reference (core's traceLog), so this is the borrowed prefix read back.
func TestEveryProgramReplaysItsTrace(t *testing.T) {
	for _, spec := range All() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			app := spec.Build(tinyParams)
			cfg := qithread.Config{Mode: qithread.RoundRobin, Policies: qithread.AllPolicies, Record: true}
			rec := qithread.New(cfg)
			want := app(rec)
			recorded := rec.Trace()
			cfg.Replay = recorded
			rep := qithread.New(cfg)
			if got := app(rep); got != want {
				t.Fatalf("replay output %#x, recorded %#x", got, want)
			}
			if got := rep.Trace(); !slices.Equal(got, recorded) {
				t.Fatalf("replay traced %d events, recorded %d, or they differ", len(got), len(recorded))
			}
		})
	}
}
