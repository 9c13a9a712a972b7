// Package stats provides the small statistics toolkit the experiment harness
// uses: robust central tendency for repeated timings, normalized overheads,
// and the aggregate counts Section 5 of the paper reports.
package stats

import (
	"math"
	"sort"
	"time"
)

// Median returns the median of ds (0 for an empty slice).
func Median(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Mean returns the arithmetic mean of xs (NaN for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Normalized returns t divided by base as a ratio (the paper's
// "execution time normalized to nondeterministic execution"). A base of zero
// yields NaN.
func Normalized(t, base time.Duration) float64 {
	if base == 0 {
		return math.NaN()
	}
	return float64(t) / float64(base)
}

// OverheadPct converts a normalized time to the percentage overhead the
// paper quotes (−3.11%, 14.52%, ...).
func OverheadPct(normalized float64) float64 {
	return (normalized - 1) * 100
}

// MaxDeviationPct returns the maximum |x−mean|/mean over xs in percent, the
// paper's scalability-variation metric ("varied within 42% from each
// program's mean overhead across four thread counts").
func MaxDeviationPct(xs []float64) float64 {
	m := Mean(xs)
	if m == 0 || math.IsNaN(m) {
		return math.NaN()
	}
	var worst float64
	for _, x := range xs {
		d := math.Abs(x-m) / math.Abs(m) * 100
		if d > worst {
			worst = d
		}
	}
	return worst
}

// Counts aggregates how a set of normalized ratios compares against a
// reference, using the paper's thresholds: Comparable is ratio ≤ 1.10,
// Speedup is ratio < 0.90, Slower is ratio > 1.10.
type Counts struct {
	Comparable int
	Speedup    int
	Slower     int
	Total      int
}

// Compare computes Counts for ratios of candidate time over reference time.
func Compare(ratios []float64) Counts {
	var c Counts
	for _, r := range ratios {
		if math.IsNaN(r) {
			continue
		}
		c.Total++
		if r <= 1.10 {
			c.Comparable++
		}
		if r < 0.90 {
			c.Speedup++
		}
		if r > 1.10 {
			c.Slower++
		}
	}
	return c
}
