// Package trace analyzes recorded synchronization schedules: hashing for
// determinism checks, prefix comparison for the schedule-stability
// experiments (Section 2 of the paper: round-robin policies give one stable
// schedule across inputs, logical clocks give many).
package trace

import (
	"fmt"
	"strings"

	"qithread/internal/core"
	"qithread/internal/logio"
)

// Hash returns a hash of the complete schedule including blocking status.
// Two runs of the same program under a deterministic scheduler must produce
// equal hashes.
func Hash(events []core.Event) uint64 {
	h := uint64(logio.FNVOffset64)
	for _, e := range events {
		h = core.FoldEvent(h, e)
	}
	return h
}

// CommonPrefix returns the length of the longest common prefix of two
// schedules.
func CommonPrefix(a, b []core.Event) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// StablePrefix reports whether two schedules agree on their common length,
// the paper's notion of schedule stability across similar inputs.
func StablePrefix(a, b []core.Event) bool {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	return CommonPrefix(a, b) == n
}

// ScheduleClasses groups a set of schedules by prefix-stability and returns
// each schedule's class, numbered from 1 in order of first appearance; the
// number of classes is the "five different schedules for eight different
// files" measurement reported for CoreDet on pbzip2.
func ScheduleClasses(schedules [][]core.Event) []int {
	class := make([]int, len(schedules))
	n := 0
	for i := range schedules {
		if class[i] != 0 {
			continue
		}
		n++
		class[i] = n
		for j := i + 1; j < len(schedules); j++ {
			if class[j] == 0 && StablePrefix(schedules[i], schedules[j]) {
				class[j] = n
			}
		}
	}
	return class
}

// Format renders a schedule like the rows of Figure 1b, up to limit events
// (0 = all), each row led by the event's position.
func Format(events []core.Event, limit int) string {
	if limit <= 0 || limit > len(events) {
		limit = len(events)
	}
	var b strings.Builder
	for i, e := range events[:limit] {
		fmt.Fprintf(&b, "%4d %v\n", i, e)
	}
	return b.String()
}
