package qithread

import (
	"reflect"
	"testing"

	"qithread/internal/core"
	"qithread/internal/ingress"
	"qithread/internal/policy"
)

// TestStatsDeclaredOnce: each layer declares its counters in one struct —
// core.Counters, ingress.Stats, policy.Metrics (DESIGN.md §4.12) — and the
// structs that checkpoint or expose them embed that struct. A holder that
// lists a counter as a field of its own needs a copy loop to fill it, and
// the copy loops are where a new counter gets forgotten (MaxWaiting never
// reached the old flat SchedState). The one exception is the block a
// checkpoint file carries, core.Stats: gob writes its name and fields into
// the file, so it lists them itself, and it must list exactly Counters'
// fields, in order, then PolicyMetrics as a slice of policy.Metrics.
func TestStatsDeclaredOnce(t *testing.T) {
	counters := map[string]string{}
	for _, v := range []any{core.Counters{}, ingress.Stats{}, policy.Metrics{}} {
		typ := reflect.TypeOf(v)
		for i := 0; i < typ.NumField(); i++ {
			counters[typ.Field(i).Name] = typ.String()
		}
	}
	for _, h := range []struct{ holder, embedded any }{
		{core.SchedState{}, core.Stats{}},
		{core.Snapshot{}, core.Counters{}},
		{ingress.GatewayState{}, ingress.Stats{}},
		{SchedulerStat{}, core.Snapshot{}},
		{GatewayStat{}, ingress.Stats{}},
	} {
		typ, embeds := reflect.TypeOf(h.holder), false
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if f.Anonymous {
				embeds = embeds || f.Type == reflect.TypeOf(h.embedded)
				continue
			}
			if owner, dup := counters[f.Name]; dup {
				t.Errorf("%s declares its own %s; that counter belongs to %s, which it should embed", typ, f.Name, owner)
			}
		}
		if !embeds {
			t.Errorf("%s does not embed %T", typ, h.embedded)
		}
	}

	var want, got []string
	for typ, i := reflect.TypeOf(core.Counters{}), 0; i < typ.NumField(); i++ {
		want = append(want, typ.Field(i).Name+" "+typ.Field(i).Type.String())
	}
	want = append(want, "PolicyMetrics []policy.Metrics")
	for typ, i := reflect.TypeOf(core.Stats{}), 0; i < typ.NumField(); i++ {
		got = append(got, typ.Field(i).Name+" "+typ.Field(i).Type.String())
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("core.Stats lists %v, want Counters' fields and then the policy metrics: %v", got, want)
	}
}
