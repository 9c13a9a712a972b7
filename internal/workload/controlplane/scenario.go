package controlplane

import (
	"fmt"

	"qithread/internal/ingress"
)

// This file holds the built-in scenarios the explore registry and
// examples/detcluster run: fixed, code-constructed ingress logs (no live sources, no
// timing), so every run is a pure function of (scenario config, schedule) and
// the schedule-space explorer's choice points are the only nondeterminism.
//
// The seeded-race scenario's input is not hand-written: it is the healthy
// log passed through a Dup fault — a duplicated "advance" nudge for entity 0,
// exactly the perturbation a flaky event bus produces. Under the default
// schedule the duplicate is reconciled serially (an extra, harmless
// transition); under the interleaving qiexplore finds, two controllers hold
// reconciles of the same entity concurrently and the missing generation
// re-check (Config.SeededRace) double-applies a stale transition.

// advance builds an "advance <id>" event payload for the scenario source.
func advance(id int) ingress.Event {
	return ingress.Event{Source: 0, Data: []byte(fmt.Sprintf("advance %d", id))}
}

// HealthyLog is the clean scenario input: two entities, three interleaved
// "advance" nudges each — exactly enough to drive both through the full
// lifecycle (Discovering → Known → Installing → Installed).
func HealthyLog() *ingress.Log {
	return &ingress.Log{Batches: []ingress.Batch{
		{Epoch: 1, Events: []ingress.Event{advance(0), advance(1)}},
		{Epoch: 2, Events: []ingress.Event{advance(1), advance(0)}},
		{Epoch: 3, Events: []ingress.Event{advance(0), advance(1)}},
	}}
}

// DupFault is the fault spec that arms the race scenario: duplicate the 4th
// event of the healthy log (the epoch-2 "advance 0"), modeling an event bus
// redelivering one nudge.
func DupFault() *FaultSpec {
	return &FaultSpec{Faults: []Fault{{Kind: Dup, Source: 0, Nth: 3}}}
}

// RaceLog is the seeded-race scenario input: the healthy log with the
// duplicate injected — two back-to-back reconcile nudges for entity 0.
func RaceLog() *ingress.Log {
	return DupFault().Apply(HealthyLog())
}

// ScenarioConfig builds the single-domain explore scenario: two entities,
// two controllers, one lock stripe per entity, fed by the fixed scenario
// log. healthy selects the clean input and the fixed (generation-rechecking)
// controller; otherwise the input carries the duplicate. seededRace plants
// the missing re-check; the (racy input, fixed controller) combination is
// the fix-proof program qireplay replays the racy repro against.
func ScenarioConfig(healthy, seededRace bool) Config {
	log := RaceLog()
	if healthy {
		log = HealthyLog()
	}
	return Config{
		Entities:     2,
		Controllers:  2,
		Stripes:      2,
		ValidateWork: 16,
		EventWork:    4,
		MaxBatch:     2,
		SeededRace:   seededRace,
		Log:          log,
	}
}

// DemoLog builds a larger deterministic input: rounds "advance" nudges per
// entity, round-robin across entities in batches of eight, followed by two
// resync ticks that sweep any entity a dropped or conflicted nudge left
// unfinished. Benchmarks and the sharded tests use it; examples/detcluster
// records an equivalent stream live.
func DemoLog(entities, rounds int) *ingress.Log {
	l := &ingress.Log{}
	epoch := int64(0)
	var batch []ingress.Event
	flush := func() {
		if len(batch) > 0 {
			epoch++
			l.Batches = append(l.Batches, ingress.Batch{Epoch: epoch, Events: batch})
			batch = nil
		}
	}
	for r := 0; r < rounds; r++ {
		for id := 0; id < entities; id++ {
			batch = append(batch, advance(id))
			if len(batch) == 8 {
				flush()
			}
		}
	}
	flush()
	for i := 0; i < 2; i++ {
		epoch++
		l.Batches = append(l.Batches, ingress.Batch{Epoch: epoch,
			Events: []ingress.Event{{Source: 1, Data: []byte(fmt.Sprintf("tick %d", i))}}})
	}
	return l
}

// Check is the scenario invariant oracle: a correct control plane never
// corrupts an entity's transition chain, under any schedule. Conflicts and
// skipped duplicates are normal operation; anomalies are the seeded race.
func Check(out uint64) error {
	if a := Anomalies(out); a > 0 {
		return fmt.Errorf("controlplane: %d entity state machine(s) corrupted (stale transition double-applied without a generation re-check)", a)
	}
	return nil
}
