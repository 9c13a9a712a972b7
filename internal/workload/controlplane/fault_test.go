package controlplane

import (
	"bytes"
	"testing"

	"qithread"
	"qithread/internal/ingress"
)

// saveBytes renders a log for byte-equality checks.
func saveBytes(t *testing.T, l *ingress.Log) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := l.SaveBinary(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestFaultSpecApplySemantics: each fault kind performs its documented log
// transformation, the result keeps strictly monotone epochs, and it survives
// a Save/Load round trip under the strict parser.
func TestFaultSpecApplySemantics(t *testing.T) {
	base := HealthyLog() // batches: [a0 a1] [a1 a0] [a0 a1]
	for _, tc := range []struct {
		name string
		spec *FaultSpec
		want [][]string
	}{
		{"drop", &FaultSpec{Faults: []Fault{{Kind: Drop, Source: 0, Nth: 2}}},
			[][]string{{"advance 0", "advance 1"}, {"advance 0"}, {"advance 0", "advance 1"}}},
		{"dup", &FaultSpec{Faults: []Fault{{Kind: Dup, Source: 0, Nth: 3}}},
			[][]string{{"advance 0", "advance 1"}, {"advance 1", "advance 0", "advance 0"}, {"advance 0", "advance 1"}}},
		{"delay", &FaultSpec{Faults: []Fault{{Kind: Delay, Source: 0, Nth: 0, Delay: 2}}},
			[][]string{{"advance 1"}, {"advance 1", "advance 0"}, {"advance 0", "advance 1", "advance 0"}}},
		{"delay-past-end", &FaultSpec{Faults: []Fault{{Kind: Delay, Source: 0, Nth: 1, Delay: 99}}},
			[][]string{{"advance 0"}, {"advance 1", "advance 0"}, {"advance 0", "advance 1", "advance 1"}}},
		{"drop-whole-batch", &FaultSpec{Faults: []Fault{
			{Kind: Drop, Source: 0, Nth: 2}, {Kind: Drop, Source: 0, Nth: 3}}},
			[][]string{{"advance 0", "advance 1"}, {"advance 0", "advance 1"}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := tc.spec.Apply(base)
			if len(got.Batches) != len(tc.want) {
				t.Fatalf("got %d batches, want %d: %+v", len(got.Batches), len(tc.want), got.Batches)
			}
			lastEpoch := int64(0)
			for bi, b := range got.Batches {
				if b.Epoch <= lastEpoch {
					t.Fatalf("batch %d epoch %d not strictly monotone (prev %d)", bi, b.Epoch, lastEpoch)
				}
				lastEpoch = b.Epoch
				if len(b.Events) != len(tc.want[bi]) {
					t.Fatalf("batch %d: got %d events, want %d", bi, len(b.Events), len(tc.want[bi]))
				}
				for ei, e := range b.Events {
					if string(e.Data) != tc.want[bi][ei] {
						t.Fatalf("batch %d event %d: got %q, want %q", bi, ei, e.Data, tc.want[bi][ei])
					}
				}
			}
			// The transformed log must load under the strict parser.
			if _, err := ingress.LoadLog(bytes.NewReader(saveBytes(t, got))); err != nil {
				t.Fatalf("faulted log does not round-trip: %v", err)
			}
			// The input log is never modified.
			if !bytes.Equal(saveBytes(t, base), saveBytes(t, HealthyLog())) {
				t.Fatal("Apply mutated its input log")
			}
		})
	}
}

// TestFaultSpecReplayDeterminism: with a fixed (log, fault spec) pair, 20
// runs of the control-plane workload produce byte-identical fingerprints for
// every fault kind — injection is a pure function of its inputs.
func TestFaultSpecReplayDeterminism(t *testing.T) {
	log := DemoLog(8, 3)
	for _, tc := range []struct {
		name string
		spec *FaultSpec
	}{
		{"drop", &FaultSpec{Faults: []Fault{{Kind: Drop, Source: 0, Nth: 5}}}},
		{"delay", &FaultSpec{Faults: []Fault{{Kind: Delay, Source: 0, Nth: 2, Delay: 2}}}},
		{"dup", &FaultSpec{Faults: []Fault{{Kind: Dup, Source: 0, Nth: 9}}}},
		{"combined", &FaultSpec{Faults: []Fault{
			{Kind: Drop, Source: 0, Nth: 1},
			{Kind: Delay, Source: 0, Nth: 4, Delay: 1},
			{Kind: Dup, Source: 0, Nth: 12}}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{
				Entities: 8, Controllers: 2, Stripes: 4,
				ValidateWork: 8, EventWork: 4, MaxBatch: 4,
				Log: log, Faults: tc.spec,
			}
			ref := fingerprintOf(Run(cfg, rrConfig(qithread.AllPolicies)))
			for i := 1; i < 20; i++ {
				got := fingerprintOf(Run(cfg, rrConfig(qithread.AllPolicies)))
				if got != ref {
					t.Fatalf("faulted replay %d diverged:\n  ref: %s\n  got: %s", i, ref, got)
				}
			}
		})
	}
}

// TestNilFaultSpecIdentity: a nil spec is the identity at every layer — the
// transformed log is byte-identical to the input, and the run fingerprint
// equals the un-faulted run's.
func TestNilFaultSpecIdentity(t *testing.T) {
	log := DemoLog(4, 3)
	var nilSpec *FaultSpec
	if got, want := saveBytes(t, nilSpec.Apply(log)), saveBytes(t, log); !bytes.Equal(got, want) {
		t.Fatalf("nil spec Apply not byte-identical:\n got %q\nwant %q", got, want)
	}
	if got, want := saveBytes(t, (&FaultSpec{}).Apply(log)), saveBytes(t, log); !bytes.Equal(got, want) {
		t.Fatalf("empty spec Apply not byte-identical:\n got %q\nwant %q", got, want)
	}

	cfg := Config{Entities: 4, Controllers: 2, ValidateWork: 8, EventWork: 4, MaxBatch: 4, Log: log}
	plain := Run(cfg, rrConfig(qithread.AllPolicies))
	cfg.Faults = nilSpec
	faulted := Run(cfg, rrConfig(qithread.AllPolicies))
	if fingerprintOf(plain) != fingerprintOf(faulted) {
		t.Fatalf("nil fault spec changed the run:\n  plain:  %s\n  faulted: %s",
			fingerprintOf(plain), fingerprintOf(faulted))
	}
}
