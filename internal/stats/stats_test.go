package stats

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestMedian(t *testing.T) {
	cases := []struct {
		in   []time.Duration
		want time.Duration
	}{
		{nil, 0},
		{[]time.Duration{5}, 5},
		{[]time.Duration{3, 1, 2}, 2},
		{[]time.Duration{4, 1, 3, 2}, 2}, // (2+3)/2 truncated
	}
	for _, c := range cases {
		if got := Median(c.in); got != c.want {
			t.Errorf("Median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// TestMedianBounds: the median lies within [min, max] and does not mutate
// its input.
func TestMedianBounds(t *testing.T) {
	f := func(raw []uint32) bool {
		if len(raw) == 0 {
			return Median(nil) == 0
		}
		ds := make([]time.Duration, len(raw))
		orig := make([]time.Duration, len(raw))
		lo, hi := time.Duration(math.MaxInt64), time.Duration(0)
		for i, r := range raw {
			ds[i] = time.Duration(r)
			orig[i] = ds[i]
			if ds[i] < lo {
				lo = ds[i]
			}
			if ds[i] > hi {
				hi = ds[i]
			}
		}
		m := Median(ds)
		if m < lo || m > hi {
			return false
		}
		for i := range ds {
			if ds[i] != orig[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMean(t *testing.T) {
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Fatal("Mean wrong")
	}
	if !math.IsNaN(Mean(nil)) {
		t.Fatal("Mean(nil) should be NaN")
	}
}

func TestNormalizedAndOverhead(t *testing.T) {
	if got := Normalized(150, 100); got != 1.5 {
		t.Fatalf("Normalized = %v", got)
	}
	if !math.IsNaN(Normalized(1, 0)) {
		t.Fatal("Normalized with zero base should be NaN")
	}
	if got := OverheadPct(1.5); math.Abs(got-50) > 1e-9 {
		t.Fatalf("OverheadPct = %v", got)
	}
	if got := OverheadPct(0.9689); got >= 0 {
		t.Fatalf("negative overhead expected, got %v", got)
	}
}

func TestMaxDeviationPct(t *testing.T) {
	if got := MaxDeviationPct([]float64{1, 1, 1}); got != 0 {
		t.Fatalf("deviation of constant series = %v", got)
	}
	got := MaxDeviationPct([]float64{1.0, 2.0}) // mean 1.5, dev 0.5/1.5
	if math.Abs(got-100.0/3) > 1e-9 {
		t.Fatalf("deviation = %v", got)
	}
}

// TestCompareCountsConsistent: Comparable+Slower == Total, Speedup ⊆
// Comparable.
func TestCompareCountsConsistent(t *testing.T) {
	f := func(raw []uint16) bool {
		ratios := make([]float64, len(raw))
		for i, r := range raw {
			ratios[i] = float64(r)/1000 + 0.001
		}
		c := Compare(ratios)
		return c.Comparable+c.Slower == c.Total && c.Speedup <= c.Comparable && c.Total == len(ratios)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCompareThresholds(t *testing.T) {
	c := Compare([]float64{0.5, 0.95, 1.05, 1.10, 1.2, math.NaN()})
	if c.Total != 5 {
		t.Fatalf("NaN not skipped: %+v", c)
	}
	if c.Speedup != 1 || c.Comparable != 4 || c.Slower != 1 {
		t.Fatalf("thresholds wrong: %+v", c)
	}
}
