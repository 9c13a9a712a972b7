// detcluster: a deterministic control-plane cluster — record once, replay
// forever, inject faults without losing reproducibility.
//
// The workload (internal/workload/controlplane) is the production shape of a
// cluster manager: an entity store of state machines (hosts moving through
// Discovering -> Known -> Installing -> Installed), a controller pool
// reconciling them snapshot/validate/apply style under striped locks, and
// periodic resync ticks sweeping unfinished entities back onto the work
// queue. External events enter through the ingress gateway, so a live run —
// free-running feeds, real-time jitter, OS-thread racing — leaves behind a
// recorded admission log that makes the whole execution a pure function of
// (log, config).
//
// The example runs the pipeline end to end:
//
//  1. Record a live cluster: jittered event feeds push host advances and
//     resync ticks while controllers reconcile across scheduler domains.
//  2. Replay the recorded log N times: every fingerprint (per-domain
//     schedule hashes + cross-domain delivery hash + output + admission
//     hashes) must be byte-identical.
//  3. Inject faults deterministically: a FaultSpec (drop one event, delay
//     another, duplicate a third) transforms the recorded log as a pure
//     function, and the faulted replay is just as reproducible — chaos
//     testing without losing the repro.
//  4. Run the seeded missing-recheck race under its default schedule: it
//     PASSES — the bug is real but schedule-dependent, which is why
//     qiexplore/qireplay exist (see `qiexplore -program controlplane-race`).
//
// Any mismatch exits nonzero. The explore-and-replay commands step 4 prints
// are run as printed by TestDetclusterExploreHintRuns.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"

	"qithread"
	"qithread/internal/ingress"
	"qithread/internal/workload/controlplane"
)

const (
	entities    = 6
	controllers = 3
	shards      = 2
	replays     = 5
)

func rtConfig() qithread.Config {
	return qithread.Config{
		Mode:     qithread.RoundRobin,
		Policies: qithread.AllPolicies,
		Record:   true,
	}
}

func baseConfig() controlplane.Config {
	return controlplane.Config{
		Entities: entities, Controllers: controllers, Shards: shards,
		ValidateWork: 32, EventWork: 8, MaxBatch: 4, QueueCap: 64,
	}
}

// shape condenses a run into the string compared across replays.
func shape(r controlplane.Result) string {
	return fmt.Sprintf("%v output=%x admit=%016x shed=%016x", r.Fingerprint, r.Output, r.AdmitHash, r.ShedHash)
}

// feeds returns the live sources: one jittered advance feed per entity pair
// and a resync ticker. They run free on OS threads outside the deterministic
// schedule — only their admission order, fixed by the gateway, matters.
func feeds() []ingress.Source {
	var srcs []ingress.Source
	for f := 0; f < 2; f++ {
		first := f * (entities / 2)
		limit := first + entities/2
		srcs = append(srcs, ingress.FuncSource(fmt.Sprintf("feed%d", f), func(p *ingress.Port) {
			for round := 0; round < controlplane.Transitions; round++ {
				for id := first; id < limit; id++ {
					time.Sleep(time.Duration(rand.Intn(200)) * time.Microsecond)
					p.Push([]byte(fmt.Sprintf("advance %d", id)))
				}
			}
		}))
	}
	srcs = append(srcs, ingress.FuncSource("resync", func(p *ingress.Port) {
		for n := 0; n < 2; n++ {
			time.Sleep(500 * time.Microsecond)
			p.Push([]byte(fmt.Sprintf("tick %d", n)))
		}
	}))
	return srcs
}

func main() {
	flag.Parse() // no flags: -h prints usage and any flag exits 2
	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "detcluster: "+format+"\n", args...)
		os.Exit(1)
	}

	// 1. Record a live cluster run.
	fmt.Printf("=== 1. record: live cluster, %d entities x %d controllers x %d shard domains ===\n",
		entities, controllers, shards)
	live := baseConfig()
	live.Sources = feeds()
	rec := controlplane.Run(live, rtConfig())
	if rec.Anomalies != 0 || rec.Installed != entities {
		fail("live run did not converge: %d anomalies, %d/%d installed", rec.Anomalies, rec.Installed, entities)
	}
	if rec.Log == nil || rec.Log.Events() == 0 {
		fail("live run recorded no ingress log")
	}
	fmt.Printf("recorded %d admitted events over %d epochs; all %d entities Installed\n",
		rec.Log.Events(), len(rec.Log.Batches), rec.Installed)

	// 2. Replay the recorded log; every observable must match.
	fmt.Printf("\n=== 2. replay: %d runs of the recorded log ===\n", replays)
	replayCfg := baseConfig()
	replayCfg.Log = rec.Log
	ref := shape(controlplane.Run(replayCfg, rtConfig()))
	for i := 1; i < replays; i++ {
		if got := shape(controlplane.Run(replayCfg, rtConfig())); got != ref {
			fail("replay %d diverged:\n  ref %s\n  got %s", i, ref, got)
		}
	}
	fmt.Printf("%d replays, one fingerprint:\n  %s\n", replays, ref)

	// 3. Deterministic fault injection on the same recording.
	fmt.Printf("\n=== 3. inject: drop/delay/duplicate faults on the recorded log ===\n")
	spec := &controlplane.FaultSpec{Faults: []controlplane.Fault{
		{Kind: controlplane.Drop, Source: 0, Nth: 2},
		{Kind: controlplane.Delay, Source: 0, Nth: 4, Delay: 2},
		{Kind: controlplane.Dup, Source: 0, Nth: 7},
	}}
	faultCfg := replayCfg
	faultCfg.Faults = spec
	fref := shape(controlplane.Run(faultCfg, rtConfig()))
	if fref == ref {
		fail("fault injection changed nothing observable")
	}
	for i := 1; i < replays; i++ {
		if got := shape(controlplane.Run(faultCfg, rtConfig())); got != fref {
			fail("faulted replay %d diverged:\n  ref %s\n  got %s", i, fref, got)
		}
	}
	fr := controlplane.Run(faultCfg, rtConfig())
	fmt.Printf("%d faulted replays, one fingerprint (%d/%d entities converged despite the faults):\n  %s\n",
		replays, fr.Installed, entities, fref)

	// 4. The seeded race is invisible under the default schedule.
	fmt.Printf("\n=== 4. the seeded race: hidden until explored ===\n")
	racy := controlplane.Run(controlplane.ScenarioConfig(false, true), qithread.Config{
		Mode: qithread.RoundRobin, Policies: qithread.BoostBlocked, Record: true,
	})
	if racy.Anomalies != 0 {
		fail("seeded race fired under the default schedule; it must stay hidden here")
	}
	fmt.Printf("controlplane-race passes under its default schedule (%d transitions, 0 anomalies).\n", racy.Transitions)
	fmt.Printf("Find the interleaving that corrupts it, then prove the fix on that exact schedule:\n")
	fmt.Printf("  qiexplore -program controlplane-race -dir results/\n")
	fmt.Printf("  qireplay  -program controlplane-race  -runs 20 -schedule \"$(ls results/repro-assert-fail-*.sched | head -1)\"\n")
	fmt.Printf("  qireplay  -program controlplane-fixed -runs 20 -expect ok -schedule \"$(ls results/repro-assert-fail-*.sched | head -1)\"\n")
}
