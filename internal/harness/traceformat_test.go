package harness

import (
	"reflect"
	"strings"
	"testing"

	"qithread"
	"qithread/internal/core"
	"qithread/internal/trace"
	"qithread/internal/workload"
)

// The schedule-file format tests: v1 must stay byte-identical for
// single-domain executions (the format the golden fingerprints hash), v2 must
// round-trip domain ids, and malformed files must fail loudly — the earlier
// Sscanf-based reader silently dropped trailing fields, so a v2-style line in
// a v1 file lost its domain id instead of erroring.

func formatEvents(domains bool) []core.Event {
	ev := []core.Event{
		{TID: 0, Op: core.OpThreadBegin, Obj: 0, Status: core.StatusOK},
		{TID: 0, Op: core.OpMutexLock, Obj: 3, Status: core.StatusOK},
		{TID: 1, Op: core.OpMutexUnlock, Obj: 3, Status: core.StatusReturn},
	}
	if domains {
		ev[1].Domain = 2
		ev[2].Domain = 1
	}
	return ev
}

func saveString(t *testing.T, ev []core.Event) string {
	t.Helper()
	var sb strings.Builder
	if err := trace.Save(&sb, ev); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// TestScheduleFormatV1RoundTrip pins the v1 wire format byte-for-byte: it is
// what every committed golden fingerprint hashes, so Save must keep emitting
// it unchanged for default-domain schedules.
func TestScheduleFormatV1RoundTrip(t *testing.T) {
	ev := formatEvents(false)
	text := saveString(t, ev)
	want := "qithread-schedule v1\n0 0 1 0 0\n1 0 6 3 0\n2 1 8 3 2\n"
	if text != want {
		t.Fatalf("v1 serialization changed:\n got %q\nwant %q", text, want)
	}
	got, err := trace.Load(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ev) {
		t.Fatalf("v1 round trip:\n got %+v\nwant %+v", got, ev)
	}
}

// TestScheduleFormatV2RoundTrip asserts Save switches to v2 as soon as any
// event carries a non-default domain, and that Load restores the ids.
func TestScheduleFormatV2RoundTrip(t *testing.T) {
	ev := formatEvents(true)
	text := saveString(t, ev)
	if !strings.HasPrefix(text, "qithread-schedule v2\n") {
		t.Fatalf("multi-domain schedule saved with header %q, want v2", strings.SplitN(text, "\n", 2)[0])
	}
	got, err := trace.Load(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ev) {
		t.Fatalf("v2 round trip:\n got %+v\nwant %+v", got, ev)
	}
}

// TestScheduleFormatVersionErrors covers the explicit failure modes: unknown
// versions are rejected, and — the bug the v2 format revision fixed — a line
// with more fields than its declared version is an error, not a silent
// truncation. (Save picks the version itself, so a v1 file can never be asked
// to hold a non-default domain.)
func TestScheduleFormatVersionErrors(t *testing.T) {
	cases := []struct {
		name, in string
	}{
		{"bad-header", "qithread-schedule v9\n0 0 1 0 0\n"},
		{"trailing-field-v1", "qithread-schedule v1\n0 0 1 0 0 2\n"},
		{"missing-field-v2", "qithread-schedule v2\n0 0 1 0 0\n"},
		{"out-of-order", "qithread-schedule v1\n1 0 1 0 0\n"},
		{"empty", ""},
	}
	for _, c := range cases {
		if _, err := trace.Load(strings.NewReader(c.in)); err == nil {
			t.Errorf("%s: Load accepted %q", c.name, c.in)
		}
	}
}

// TestScheduleFormatPartitionedRun saves each per-domain schedule of a real
// partitioned execution and reloads it: shard schedules round-trip as v2
// (their events carry the shard's domain id), while the default domain's
// schedule still writes plain v1, so single-domain tooling keeps working on
// the coordinator's file.
func TestScheduleFormatPartitionedRun(t *testing.T) {
	const nd = 2
	app := workload.DomainServer(workload.DomainServerConfig{
		Domains: nd, Workers: 2, Requests: 8,
		AcceptWork: 10, ParseWork: 40, StateWork: 10,
	}, workload.Params{Scale: 0.25, InputSeed: 5})
	rt := qithread.New(qithread.Config{Mode: qithread.RoundRobin, Policies: qithread.AllPolicies, Record: true})
	app(rt)
	for id := 0; id <= nd; id++ {
		ev := rt.Domain(id).Trace()
		if len(ev) == 0 {
			t.Fatalf("domain %d recorded no events", id)
		}
		text := saveString(t, ev)
		wantHeader := "qithread-schedule v2"
		if id == 0 {
			wantHeader = "qithread-schedule v1"
		}
		if !strings.HasPrefix(text, wantHeader+"\n") {
			t.Errorf("domain %d schedule header %q, want %q", id, strings.SplitN(text, "\n", 2)[0], wantHeader)
		}
		got, err := trace.Load(strings.NewReader(text))
		if err != nil {
			t.Fatalf("domain %d: %v", id, err)
		}
		if !reflect.DeepEqual(got, ev) {
			t.Errorf("domain %d schedule did not round-trip", id)
		}
	}
}
