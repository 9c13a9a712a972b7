package controlplane

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"qithread"
	"qithread/internal/ingress"
)

func rrConfig(set qithread.Policy) qithread.Config {
	return qithread.Config{Mode: qithread.RoundRobin, Policies: set, Record: true}
}

// fingerprintOf condenses a run for equality checks.
func fingerprintOf(r Result) string {
	return fmt.Sprintf("%v out=%x admit=%016x shed=%016x", r.Fingerprint, r.Output, r.AdmitHash, r.ShedHash)
}

// TestScenarioHealthyDefault: the clean scenario under the default schedule
// drives both entities through the full lifecycle with no anomalies.
func TestScenarioHealthyDefault(t *testing.T) {
	r := Run(ScenarioConfig(true, false), rrConfig(qithread.BoostBlocked))
	if r.Anomalies != 0 {
		t.Fatalf("healthy scenario produced %d anomalies: %+v", r.Anomalies, r.Entities)
	}
	if r.Installed != 2 {
		t.Fatalf("healthy scenario installed %d of 2 entities: %+v", r.Installed, r.Entities)
	}
	if r.Transitions != uint64(2*Transitions) {
		t.Fatalf("healthy scenario applied %d transitions, want %d", r.Transitions, 2*Transitions)
	}
	if err := Check(r.Output); err != nil {
		t.Fatalf("healthy scenario failed its own oracle: %v", err)
	}
}

// TestScenarioRaceHiddenByDefault: the seeded-race scenario PASSES under its
// default schedule — the duplicate nudge is reconciled serially, so the
// missing re-check never fires. The bug is a pure scheduling question; only
// exploration (internal/explore) exposes it.
func TestScenarioRaceHiddenByDefault(t *testing.T) {
	r := Run(ScenarioConfig(false, true), rrConfig(qithread.BoostBlocked))
	if r.Anomalies != 0 {
		t.Fatalf("seeded race fired under the default schedule (%d anomalies): the scenario must hide it\n%+v",
			r.Anomalies, r.Entities)
	}
	if err := Check(r.Output); err != nil {
		t.Fatalf("default schedule failed the oracle: %v", err)
	}
}

// TestScenarioDeterminism: 20 runs of each scenario produce byte-identical
// fingerprints — the workload is a pure function of (log, config).
func TestScenarioDeterminism(t *testing.T) {
	for _, tc := range []struct {
		name            string
		healthy, seeded bool
	}{
		{"healthy", true, false},
		{"race", false, true},
		{"fixed-on-race-input", false, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ref := fingerprintOf(Run(ScenarioConfig(tc.healthy, tc.seeded), rrConfig(qithread.BoostBlocked)))
			for i := 1; i < 20; i++ {
				got := fingerprintOf(Run(ScenarioConfig(tc.healthy, tc.seeded), rrConfig(qithread.BoostBlocked)))
				if got != ref {
					t.Fatalf("run %d diverged:\n  ref: %s\n  got: %s", i, ref, got)
				}
			}
		})
	}
}

// TestShardedDeterminism: the multi-domain engine (entities sharded across
// controller domains, tasks crossing XPipes) replays a recorded log to
// identical fingerprints, and timer ticks sweep unfinished entities to
// completion.
func TestShardedDeterminism(t *testing.T) {
	log := DemoLog(16, 3)
	cfg := Config{
		Entities: 16, Controllers: 2, Shards: 2, Stripes: 4,
		ValidateWork: 16, EventWork: 4, MaxBatch: 8,
		Log: log,
	}
	ref := Run(cfg, rrConfig(qithread.AllPolicies))
	if ref.Anomalies != 0 {
		t.Fatalf("sharded run produced %d anomalies", ref.Anomalies)
	}
	if ref.Installed != 16 {
		t.Fatalf("sharded run installed %d of 16 entities\n%+v", ref.Installed, ref.Entities)
	}
	want := fingerprintOf(ref)
	for i := 1; i < 20; i++ {
		got := fingerprintOf(Run(cfg, rrConfig(qithread.AllPolicies)))
		if got != want {
			t.Fatalf("sharded replay %d diverged:\n  ref: %s\n  got: %s", i, want, got)
		}
	}
}

// TestResyncTickSweeps: a log whose advances stop early still installs every
// entity, because tick events sweep non-final entities back onto the queue —
// the deterministic requeue timers of the control plane.
func TestResyncTickSweeps(t *testing.T) {
	log := &ingress.Log{Batches: []ingress.Batch{
		{Epoch: 1, Events: []ingress.Event{advance(0), advance(1)}},
		{Epoch: 2, Events: []ingress.Event{{Source: 1, Data: []byte("tick 0")}}},
		{Epoch: 3, Events: []ingress.Event{{Source: 1, Data: []byte("tick 1")}}},
	}}
	cfg := Config{
		Entities: 2, Controllers: 2, Stripes: 2,
		ValidateWork: 8, EventWork: 4, MaxBatch: 2,
		Log: log,
	}
	r := Run(cfg, rrConfig(qithread.AllPolicies))
	if r.Installed != 2 {
		t.Fatalf("resync sweeps installed %d of 2 entities\n%+v", r.Installed, r.Entities)
	}
	var requeues uint64
	for _, e := range r.Entities {
		requeues += e.Requeues
	}
	if requeues == 0 {
		t.Fatal("no requeues recorded; ticks did not sweep")
	}
}

// TestObservabilitySnapshots: the run surfaces gateway and scheduler
// snapshots with plausible counters.
func TestObservabilitySnapshots(t *testing.T) {
	cfg := Config{
		Entities: 8, Controllers: 2, Shards: 2, Stripes: 2,
		ValidateWork: 8, EventWork: 4, MaxBatch: 4,
		Log: DemoLog(8, 3),
	}
	r := Run(cfg, rrConfig(qithread.AllPolicies))
	if len(r.Gateways) != 1 {
		t.Fatalf("want 1 gateway snapshot, got %d", len(r.Gateways))
	}
	gw := r.Gateways[0]
	if gw.Name != "cluster" || gw.Domain != 0 {
		t.Fatalf("gateway snapshot misattributed: %+v", gw)
	}
	if gw.Admitted == 0 || gw.Epoch == 0 {
		t.Fatalf("gateway snapshot empty: %+v", gw)
	}
	if len(r.Schedulers) != 3 { // gateway domain + 2 shards
		t.Fatalf("want 3 scheduler snapshots, got %d", len(r.Schedulers))
	}
	for _, s := range r.Schedulers {
		if s.Turns == 0 || s.Ops == 0 {
			t.Fatalf("scheduler snapshot for domain %d empty: %+v", s.Domain, s)
		}
	}
	// Controllers block on the work queue, so the wait-list high-water of
	// the shard domains must be nonzero.
	if r.Schedulers[1].MaxWaiting == 0 && r.Schedulers[2].MaxWaiting == 0 {
		t.Fatalf("no wait-list depth recorded in shard domains: %+v", r.Schedulers)
	}
}

// TestGroupSlabs: a shard's slice of the store is laid out by arithmetic —
// entity id = local index * mod + k — so ownership is checked, not searched
// for; the task queue is one buffer reused from the start whenever it drains;
// and the anomaly predicate and the diagnostic agree.
func TestGroupSlabs(t *testing.T) {
	rt := qithread.New(rrConfig(qithread.NoPolicies))
	rt.Run(func(main *qithread.Thread) {
		g := newGroup(rt, main, Config{Entities: 8, Stripes: 2, MaxBatch: 2}.withDefaults(), 1, 3, "s1")
		if len(g.entities) != 3 || g.entities[0].ID != 1 || g.entities[1].ID != 4 || g.entities[2].ID != 7 {
			t.Fatalf("shard 1 of 3 over 8 entities owns %+v, want ids 1, 4, 7", g.entities)
		}
		for i := range g.entities {
			if got := g.localIndex(g.entities[i].ID); got != i {
				t.Errorf("localIndex(%d) = %d, want %d", g.entities[i].ID, got, i)
			}
		}
		for _, id := range []int{0, 2, 3, 10, -2, -1} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("localIndex(%d) on shard 1 of 3 over 8 entities did not panic", id)
					}
				}()
				g.localIndex(id)
			}()
		}
		if none := newGroup(rt, main, Config{Entities: 2, MaxBatch: 2}.withDefaults(), 3, 4, "s3"); len(none.entities) != 0 || len(none.stripes) != 1 {
			t.Errorf("a shard past the last entity owns %d entities under %d stripes, want 0 and 1", len(none.entities), len(none.stripes))
		}

		buf := cap(g.queue)
		for round := 0; round < 3; round++ {
			for id := 0; id < buf; id++ {
				g.enqueue(main, task{id: id})
			}
			for id := 0; id < buf; id++ {
				if tk := g.dequeue(); tk.id != id {
					t.Fatalf("round %d: dequeued task %d, want %d", round, tk.id, id)
				}
			}
			if g.head != 0 || len(g.queue) != 0 || cap(g.queue) != buf {
				t.Fatalf("round %d: drained queue has head %d, len %d, cap %d, want 0, 0, %d", round, g.head, len(g.queue), cap(g.queue), buf)
			}
		}
	})

	ok, bad := Entity{ID: 1, State: Installing, Steps: 2}, Entity{ID: 2, State: Known, Steps: 2}
	if !ok.consistent() || bad.consistent() {
		t.Errorf("consistent: %+v %v, %+v %v; want true, false", ok, ok.consistent(), bad, bad.consistent())
	}
}

// parseEventFields is parseEvent as it was written over strings.Fields: the
// reference the in-place scanner must agree with on every payload.
func parseEventFields(data []byte, entities int) task {
	f := strings.Fields(string(data))
	if len(f) == 2 && f[0] == "advance" {
		if id, err := strconv.Atoi(f[1]); err == nil && id >= 0 && id < entities {
			return task{id: id}
		}
	}
	if len(f) == 2 && f[0] == "tick" {
		return task{id: -1}
	}
	return task{id: -2}
}

// TestParseEventMatchesFields: the byte scanner accepts and rejects exactly
// what the strings.Fields version did — including the payloads only a fault
// spec or a hostile source would deliver — and does it without allocating.
func TestParseEventMatchesFields(t *testing.T) {
	const entities = 4
	cases := []struct {
		payload string
		want    int // entity id, -1 sweep, -2 dropped
	}{
		{"advance 0", 0},
		{"advance 3", 3},
		{"tick 7", -1},
		{"tick x", -1}, // the tick argument is not interpreted
		{"  advance 2", 2},
		{"advance 2  ", 2},
		{"advance \t\n\v\f\r 2", 2},
		{"\tadvance\t1\n", 1},
		{"advance +1", 1}, // Atoi's sign handling is part of the contract
		{"advance -0", 0},
		{"advance 03", 3},
		{"advance", -2},
		{"advance ", -2},
		{"advance x", -2},
		{"advance 3 4", -2},
		{"advance 3 4 5", -2},
		{"advance 4", -2}, // out of range: entities is exclusive
		{"advance -1", -2},
		{"advance 99999999999999999999", -2}, // Atoi range error
		{"advance 1_0", -2},
		{"advance0", -2},
		{"Advance 0", -2},
		{"advanced 0", -2},
		{"tick", -2},
		{"tick 1 2", -2},
		{"ticks 1", -2},
		{"", -2},
		{" ", -2},
		{" \t\n", -2},
		{"advance\x000", -2}, // NUL is not whitespace
		// Unicode whitespace, spelled as UTF-8 bytes, splits fields exactly as
		// strings.Fields does.
		{"advance\xc2\xa01", 1},         // U+00A0 no-break space
		{"advance\xc2\x851", 1},         // U+0085 next line
		{"advance\xe2\x80\x831", 1},     // U+2003 em space
		{" tick\xe3\x80\x800 ", -1},     // U+3000 ideographic space
		{"advance\xe2\x80\x8b1", -2},    // U+200B zero-width space is not White_Space
		{"advance 1\xe2\x80\xa8 2", -2}, // U+2028 line separator: a third field
		// Not UTF-8: invalid bytes are non-space field bytes.
		{"\xff\xfe", -2},
		{"advance \xff", -2},
		{"advance 1\xff", -2},
		{"\xffadvance 1", -2},
		{"advance\xc21", -2},     // truncated two-byte sequence
		{"advance\xe2\x801", -2}, // truncated three-byte space
		{"tick \xf0\x9f", -1},
		{"advance\xa01", -2}, // a bare Latin-1 NBSP byte is not U+00A0
	}
	for _, c := range cases {
		got, ref := parseEvent([]byte(c.payload), entities), parseEventFields([]byte(c.payload), entities)
		if got != ref || got.id != c.want {
			t.Errorf("parseEvent(%q) = %d, strings.Fields version = %d, want %d", c.payload, got.id, ref.id, c.want)
		}
	}
	payload := []byte("  advance \t 3 ")
	if n := testing.AllocsPerRun(100, func() { parseEvent(payload, entities) }); n != 0 {
		t.Errorf("parseEvent allocates %.0f objects per event, want 0", n)
	}
}

// FuzzParseEvent: agreement with the strings.Fields version on arbitrary
// bytes, seeded with the table's shapes.
func FuzzParseEvent(f *testing.F) {
	for _, s := range []string{"advance 1", "tick 0", " advance 2 ", "advance 3 4", "\xff", "advance\xe2\x801", "advance\xc2\xa01"} {
		f.Add([]byte(s), 4)
	}
	f.Fuzz(func(t *testing.T, data []byte, entities int) {
		if got, ref := parseEvent(data, entities), parseEventFields(data, entities); got != ref {
			t.Fatalf("parseEvent(%q, %d) = %d, strings.Fields version = %d", data, entities, got.id, ref.id)
		}
	})
}
