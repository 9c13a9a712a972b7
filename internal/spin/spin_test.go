package spin

import (
	"testing"
	"testing/quick"
)

// TestWorkPure: Work is a pure function of (seed, n) — the foundation of
// output determinism across scheduling modes.
func TestWorkPure(t *testing.T) {
	f := func(seed uint64, n uint16) bool {
		return Work(seed, int64(n)) == Work(seed, int64(n))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestWorkSeedSensitive: different seeds give different results (on any
// non-trivial amount of work), so distinct items contribute distinct values.
func TestWorkSeedSensitive(t *testing.T) {
	f := func(seed uint64, delta uint8) bool {
		d := uint64(delta) + 1
		return Work(seed, 8) != Work(seed+d, 8)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestWorkLengthSensitive: more work changes the result, preventing the
// compiler or a refactor from silently dropping iterations.
func TestWorkLengthSensitive(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		return Work(seed, int64(n)+1) != Work(seed, int64(n)+2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWorkZeroAndNegative(t *testing.T) {
	if Work(5, 0) != Work(5, 0) {
		t.Fatal("zero-work not stable")
	}
	if Work(4, -3) != Work(4, -3) {
		t.Fatal("negative work not stable")
	}
}

func BenchmarkWorkUnit(b *testing.B) {
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink = Work(uint64(i), 1)
	}
	_ = sink
}
